// Observability guarantees (src/obs): the obs= knob, the metrics
// registry and its publish() contract, the three exporters, and the two
// hard gates the subsystem is built around —
//
//  * obs=off is bitwise identical to an uninstrumented run, and
//    obs=trace never changes the physics (state hash + stats equal);
//  * exported totals reconcile exactly: the bytes summed over the
//    trace's "xfer" instants equal gpu::TransferStats equal
//    FsbmStats::h2d/d2h_bytes equal the wrf_xfer_bytes_total counters,
//    across every exec space and both residency modes.
//
// Plus the Chrome-trace structural invariants the ci.sh smoke check
// relies on: balanced B/E pairs and monotone timestamps per track; and
// the flat-profile fold (obs::flat_profile): exclusive attribution on
// hand-timed tracks, and inclusive time equal to summed span durations
// on a real run.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "model/driver.hpp"
#include "model/knobs.hpp"
#include "obs/export.hpp"
#include "util/error.hpp"

namespace wrf {
namespace {

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CountersAddGaugesSet) {
  obs::Registry reg;
  reg.counter("wrf_x_total", 3.0);
  reg.counter("wrf_x_total", 4.0);
  EXPECT_DOUBLE_EQ(reg.value("wrf_x_total"), 7.0);

  reg.gauge("wrf_g", 5.0);
  reg.gauge("wrf_g", 2.5);
  EXPECT_DOUBLE_EQ(reg.value("wrf_g"), 2.5);

  EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);
  EXPECT_FALSE(reg.has("absent"));
}

TEST(ObsRegistry, LabelsAreCanonicalizedBySorting) {
  obs::Registry reg;
  reg.counter("wrf_x_total", 1.0, {{"b", "2"}, {"a", "1"}});
  reg.counter("wrf_x_total", 2.0, {{"a", "1"}, {"b", "2"}});
  // Same label set in any order is the same series.
  EXPECT_DOUBLE_EQ(reg.value("wrf_x_total", {{"b", "2"}, {"a", "1"}}), 3.0);
  // A different value is a different series.
  reg.counter("wrf_x_total", 10.0, {{"a", "9"}, {"b", "2"}});
  EXPECT_DOUBLE_EQ(reg.value("wrf_x_total", {{"a", "1"}, {"b", "2"}}), 3.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, SnapshotIsDeterministicallyOrdered) {
  obs::Registry reg;
  reg.gauge("b_metric", 1.0);
  reg.counter("a_metric_total", 1.0, {{"k", "v"}});
  reg.counter("a_metric_total", 1.0);
  const std::vector<obs::Metric> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sorted by name first (series of one family are adjacent — what the
  // Prometheus exporter's one-TYPE-per-family logic relies on), with a
  // deterministic label order within the family.
  EXPECT_EQ(snap[0].name, "a_metric_total");
  EXPECT_EQ(snap[1].name, "a_metric_total");
  EXPECT_NE(snap[0].labels.empty(), snap[1].labels.empty());
  EXPECT_EQ(snap[2].name, "b_metric");
  EXPECT_FALSE(snap[2].is_counter);
}

// ------------------------------------------------------------ exporters

TEST(ObsExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

/// Quote-aware structural JSON scan: every brace/bracket outside string
/// literals balances, and the document is a single object.  Not a full
/// parser — the ci.sh smoke check runs the real one (python json.tool);
/// this guards the generator in-unit.
void expect_balanced_json(const std::string& doc) {
  int brace = 0;
  int bracket = 0;
  bool in_str = false;
  bool escaped = false;
  for (const char c : doc) {
    if (in_str) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_str);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(ObsExport, ChromeTraceJsonIsStructurallyValid) {
  obs::TraceSink sink;
  {
    obs::Span s(&sink, "pass", "outer", {{"tiles", 4}, {"space", "serial"}});
    obs::Span inner(&sink, "pass", "inner");
    sink.instant("xfer", "h2d", {{"bytes", std::uint64_t{128}}});
  }
  sink.instant("fidelity", "census", {{"cells_bin", 7}});
  const std::string doc = obs::chrome_trace_json(sink.drain());
  expect_balanced_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"bytes\":128"), std::string::npos);
}

TEST(ObsExport, MetricsJsonlOneObjectPerLine) {
  obs::TraceSink sink;
  obs::StepRecord rec;
  rec.step = 2;
  rec.rank = 1;
  rec.h2d_bytes = 4096;
  sink.record_step(rec);
  obs::Registry reg;
  reg.counter("wrf_xfer_bytes_total", 4096.0, {{"dir", "h2d"}});
  const std::string doc = obs::metrics_jsonl(sink.steps(), reg);
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    const std::size_t nl = doc.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);  // newline-terminated lines
    const std::string line = doc.substr(pos, nl - pos);
    expect_balanced_json(line);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
    pos = nl + 1;
  }
  EXPECT_EQ(lines, 2u);  // one step + one metric
  EXPECT_NE(doc.find("\"type\":\"step\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"metric\""), std::string::npos);
  EXPECT_NE(doc.find("\"h2d_bytes\":4096"), std::string::npos);
}

TEST(ObsExport, PrometheusTextShape) {
  obs::Registry reg;
  reg.counter("wrf_xfer_bytes_total", 100.0, {{"dir", "h2d"}});
  reg.counter("wrf_xfer_bytes_total", 40.0, {{"dir", "d2h"}});
  reg.gauge("wrf_run_wall_seconds", 1.5);
  const std::string doc = obs::prometheus_text(reg);
  EXPECT_NE(doc.find("# TYPE wrf_xfer_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(doc.find("# TYPE wrf_run_wall_seconds gauge"), std::string::npos);
  EXPECT_NE(doc.find("wrf_xfer_bytes_total{dir=\"h2d\"} 100"),
            std::string::npos);
  EXPECT_NE(doc.find("wrf_xfer_bytes_total{dir=\"d2h\"} 40"),
            std::string::npos);
  EXPECT_NE(doc.find("wrf_run_wall_seconds 1.5"), std::string::npos);
  // One TYPE header per metric family, not per series.
  std::size_t count = 0;
  for (std::size_t p = doc.find("# TYPE wrf_xfer_bytes_total");
       p != std::string::npos;
       p = doc.find("# TYPE wrf_xfer_bytes_total", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

// ---------------------------------------------------------- active sink

TEST(ObsSink, ScopedActiveInstallsAndRestores) {
  EXPECT_EQ(obs::active(), nullptr);
  obs::TraceSink outer;
  {
    obs::ScopedActive a(&outer);
    EXPECT_EQ(obs::active(), &outer);
    obs::TraceSink inner;
    {
      obs::ScopedActive b(&inner);
      EXPECT_EQ(obs::active(), &inner);
    }
    EXPECT_EQ(obs::active(), &outer);
  }
  EXPECT_EQ(obs::active(), nullptr);
}

TEST(ObsSink, DyingActiveSinkDeactivatesItself) {
  {
    obs::TraceSink sink;
    obs::set_active(&sink);
    EXPECT_EQ(obs::active(), &sink);
  }
  EXPECT_EQ(obs::active(), nullptr);
}

// -------------------------------------------------------- physics gates

model::RunConfig gate_case(const char* exec, mem::ResidencyMode res) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.version = fsbm::Version::kV3Offload3;
  cfg.exec = exec::ExecConfig::parse(exec);
  cfg.res = res;
  return cfg;
}

struct GateRun {
  std::uint64_t hash = 0;
  fsbm::FsbmStats fsbm;
};

GateRun run_gate(const model::RunConfig& cfg) {
  const model::RunResult r = model::run_single(cfg);
  return {model::state_hash(r), r.totals.fsbm};
}

TEST(ObsGate, TracingNeverChangesThePhysics) {
  // Three runs of one config: uninstrumented, under a test-owned sink,
  // and with the driver-installed obs=trace knob (which also writes the
  // export file).  All state hashes and stats must be identical.
  const model::RunConfig cfg = gate_case("serial", mem::ResidencyMode::kStep);
  const GateRun plain = run_gate(cfg);

  obs::TraceSink sink;
  GateRun traced;
  {
    obs::ScopedActive active(&sink);
    traced = run_gate(cfg);
  }
  EXPECT_GT(sink.event_count(), 0u);

  model::RunConfig knob = cfg;
  knob.obs = obs::ObsConfig::parse("trace:obs_test_driver_trace.json");
  const GateRun via_knob = run_gate(knob);

  const GateRun* gates[] = {&traced, &via_knob};
  for (const GateRun* g : gates) {
    EXPECT_EQ(g->hash, plain.hash);
    EXPECT_EQ(g->fsbm.cells_active, plain.fsbm.cells_active);
    EXPECT_EQ(g->fsbm.coal_flops, plain.fsbm.coal_flops);
    EXPECT_EQ(g->fsbm.h2d_bytes, plain.fsbm.h2d_bytes);
    EXPECT_EQ(g->fsbm.d2h_bytes, plain.fsbm.d2h_bytes);
    EXPECT_EQ(g->fsbm.surface_precip, plain.fsbm.surface_precip);
    EXPECT_EQ(g->fsbm.kernel_launches, plain.fsbm.kernel_launches);
  }
}

TEST(ObsGate, OffKnobIsBitwiseIdenticalToDefault) {
  const model::RunConfig base =
      gate_case("threads:2", mem::ResidencyMode::kPersist);
  model::RunConfig off = base;
  off.obs = obs::ObsConfig::parse("off");
  // describe() with obs off must not change — shape keys and the
  // exact-string expectations elsewhere depend on it.
  EXPECT_EQ(base.describe(), off.describe());
  EXPECT_EQ(run_gate(base).hash, run_gate(off).hash);
}

// --------------------------------------- trace structure + reconciliation

struct TraceTotals {
  std::uint64_t xfer_h2d = 0;
  std::uint64_t xfer_d2h = 0;
  std::uint64_t region_h2d = 0;
  std::uint64_t region_d2h = 0;
  std::uint64_t pass_spans = 0;
  std::uint64_t kernel_spans = 0;
};

std::int64_t arg_int(const obs::TraceEvent& e, const char* key) {
  for (const obs::ArgVal& a : e.args) {
    if (std::string(a.key) == key && !a.is_str) return a.i;
  }
  return 0;
}

std::string arg_str(const obs::TraceEvent& e, const char* key) {
  for (const obs::ArgVal& a : e.args) {
    if (std::string(a.key) == key && a.is_str) return a.s;
  }
  return "";
}

/// Walk every track: assert balanced spans + monotone timestamps, and
/// accumulate the reconciliation totals.
TraceTotals audit_tracks(const obs::TraceSink& sink) {
  TraceTotals tt;
  for (const obs::TrackEvents& track : sink.drain()) {
    std::uint64_t prev_ts = 0;
    std::int64_t open = 0;
    for (const obs::TraceEvent& e : track.events) {
      EXPECT_GE(e.ts_us, prev_ts) << "track " << track.track;
      prev_ts = e.ts_us;
      if (e.phase == 'B') ++open;
      if (e.phase == 'E') --open;
      EXPECT_GE(open, 0) << "track " << track.track;
      const std::string cat = e.cat;
      if (e.phase == 'B' && cat == "pass") ++tt.pass_spans;
      if (e.phase == 'B' && cat == "kernel") ++tt.kernel_spans;
      if (e.phase == 'i' && cat == "xfer") {
        (e.name == "h2d" ? tt.xfer_h2d : tt.xfer_d2h) +=
            static_cast<std::uint64_t>(arg_int(e, "bytes"));
      }
      if (e.phase == 'i' && cat == "region") {
        (arg_str(e, "dir") == "h2d" ? tt.region_h2d : tt.region_d2h) +=
            static_cast<std::uint64_t>(arg_int(e, "bytes"));
      }
    }
    EXPECT_EQ(open, 0) << "unbalanced spans on track " << track.track;
  }
  return tt;
}

TEST(ObsReconcile, TransferTotalsAgreeAcrossExecAndResidency) {
  // The hard reconciliation gate, per ISSUE: for every exec space and
  // both residency modes, the bytes summed over the trace's "xfer"
  // instants equal gpu::TransferStats equal FsbmStats equal the
  // wrf_xfer_bytes_total counters.  DataRegion "region" instants cover
  // the same traffic (map/update verbs route through Device::update_*),
  // so their sums match too.
  for (const char* exec : {"serial", "threads:2", "device", "hetero:2"}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      SCOPED_TRACE(std::string(exec) + "/" + model::knob_name("res", res));
      const model::RunConfig cfg = gate_case(exec, res);
      const grid::Patch patch =
          grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
      model::RankModel rank(cfg, patch, nullptr);
      rank.init();
      obs::TraceSink sink;
      model::StepStats totals;
      {
        obs::ScopedActive active(&sink);
        for (int s = 0; s < cfg.nsteps; ++s) totals.merge(rank.step());
      }
      const TraceTotals tt = audit_tracks(sink);
      ASSERT_NE(rank.device(), nullptr);
      const gpu::TransferStats& dev = rank.device()->transfers();

      // trace == device == fsbm, exactly.
      EXPECT_EQ(tt.xfer_h2d, dev.h2d_bytes);
      EXPECT_EQ(tt.xfer_d2h, dev.d2h_bytes);
      EXPECT_EQ(totals.fsbm.h2d_bytes, dev.h2d_bytes);
      EXPECT_EQ(totals.fsbm.d2h_bytes, dev.d2h_bytes);
      EXPECT_EQ(tt.region_h2d, dev.h2d_bytes);
      EXPECT_EQ(tt.region_d2h, dev.d2h_bytes);
      EXPECT_GT(tt.pass_spans, 0u);
      EXPECT_GT(tt.kernel_spans, 0u);
      EXPECT_GT(dev.h2d_bytes, 0u);

      // ...and the published counters carry the same totals.
      obs::Registry reg;
      totals.fsbm.publish(reg);
      EXPECT_DOUBLE_EQ(reg.value("wrf_xfer_bytes_total", {{"dir", "h2d"}}),
                       static_cast<double>(dev.h2d_bytes));
      EXPECT_DOUBLE_EQ(reg.value("wrf_xfer_bytes_total", {{"dir", "d2h"}}),
                       static_cast<double>(dev.d2h_bytes));
      obs::Registry dreg;
      dev.publish(dreg);
      EXPECT_DOUBLE_EQ(dreg.value("wrf_device_bytes_total", {{"dir", "h2d"}}),
                       static_cast<double>(dev.h2d_bytes));
      EXPECT_DOUBLE_EQ(
          dreg.value("wrf_device_transfers_total", {{"dir", "h2d"}}),
          static_cast<double>(dev.h2d_count));
    }
  }
}

TEST(ObsReconcile, RunResultPublishMatchesStructFields) {
  const model::RunConfig cfg = gate_case("serial", mem::ResidencyMode::kStep);
  const model::RunResult r = model::run_single(cfg);
  obs::Registry reg;
  r.publish(reg);
  EXPECT_DOUBLE_EQ(reg.value("wrf_xfer_bytes_total", {{"dir", "h2d"}}),
                   static_cast<double>(r.totals.fsbm.h2d_bytes));
  EXPECT_DOUBLE_EQ(reg.value("wrf_fsbm_cells_active_total"),
                   static_cast<double>(r.totals.fsbm.cells_active));
  EXPECT_DOUBLE_EQ(reg.value("wrf_kernel_launches_total"),
                   static_cast<double>(r.totals.fsbm.kernel_launches));
  EXPECT_DOUBLE_EQ(reg.value("wrf_halo_bytes_total"),
                   static_cast<double>(r.totals.halo_bytes));
  EXPECT_DOUBLE_EQ(reg.value("wrf_run_wall_seconds"), r.wall_sec);
  // Publishing twice accumulates counters (the merge-equivalence law)
  // but only re-sets gauges.
  r.publish(reg);
  EXPECT_DOUBLE_EQ(reg.value("wrf_fsbm_cells_active_total"),
                   2.0 * static_cast<double>(r.totals.fsbm.cells_active));
  EXPECT_DOUBLE_EQ(reg.value("wrf_run_wall_seconds"), r.wall_sec);
}

TEST(ObsTrace, GoldenChromeTraceFromARealRun) {
  // The golden-file shape check: a real multi-exec run's trace renders
  // to structurally valid JSON with balanced phases — what Perfetto and
  // the ci.sh python check consume.
  const model::RunConfig cfg =
      gate_case("threads:2", mem::ResidencyMode::kPersist);
  obs::TraceSink sink;
  {
    obs::ScopedActive active(&sink);
    run_gate(cfg);
  }
  audit_tracks(sink);
  const std::string doc = obs::chrome_trace_json(sink.drain());
  expect_balanced_json(doc);
  std::size_t b = 0;
  std::size_t e = 0;
  for (std::size_t p = doc.find("\"ph\":\"B\""); p != std::string::npos;
       p = doc.find("\"ph\":\"B\"", p + 1)) {
    ++b;
  }
  for (std::size_t p = doc.find("\"ph\":\"E\""); p != std::string::npos;
       p = doc.find("\"ph\":\"E\"", p + 1)) {
    ++e;
  }
  EXPECT_GT(b, 0u);
  EXPECT_EQ(b, e);
  EXPECT_NE(doc.find("\"cat\":\"pass\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"xfer\""), std::string::npos);
}

// ------------------------------------------------------- flat profile

obs::TraceEvent span_event(char phase, const char* cat, const char* name,
                           std::uint64_t ts_us) {
  obs::TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = phase;
  e.ts_us = ts_us;
  return e;
}

/// One track of hand-timed events: {phase, name, ts_us}, category "t".
obs::TrackEvents track_of(
    int id, std::initializer_list<std::tuple<char, const char*, int>> evs) {
  obs::TrackEvents t;
  t.track = id;
  for (const auto& [ph, name, ts] : evs) {
    t.events.push_back(
        span_event(ph, "t", name, static_cast<std::uint64_t>(ts)));
  }
  return t;
}

TEST(FlatProfile, NestedExclusiveAttribution) {
  // Inner time is excluded from outer's exclusive but included in
  // outer's inclusive.
  const auto rows = obs::flat_profile({track_of(
      0, {{'B', "outer", 0}, {'B', "inner", 4}, {'E', "inner", 12},
          {'E', "outer", 14}})});
  const obs::FlatRow outer = obs::flat_row(rows, "t/outer");
  const obs::FlatRow inner = obs::flat_row(rows, "t/inner");
  EXPECT_DOUBLE_EQ(outer.inclusive_sec, 14e-6);
  EXPECT_DOUBLE_EQ(outer.exclusive_sec, 6e-6);
  EXPECT_DOUBLE_EQ(inner.inclusive_sec, 8e-6);
  EXPECT_DOUBLE_EQ(inner.exclusive_sec, 8e-6);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
}

TEST(FlatProfile, RepeatedCallsAccumulate) {
  obs::TrackEvents t;
  for (int n = 0; n < 10; ++n) {
    t.events.push_back(span_event('B', "t", "loop", 3 * n));
    t.events.push_back(span_event('E', "t", "loop", 3 * n + 2));
  }
  const obs::FlatRow row = obs::flat_row(obs::flat_profile({t}), "t/loop");
  EXPECT_EQ(row.calls, 10u);
  EXPECT_DOUBLE_EQ(row.inclusive_sec, 20e-6);
  EXPECT_DOUBLE_EQ(row.percent_exclusive, 100.0);
}

TEST(FlatProfile, SelfNestedSameNameCountsTwoCalls) {
  const auto rows = obs::flat_profile({track_of(
      0, {{'B', "rec", 0}, {'B', "rec", 1}, {'E', "rec", 3},
          {'E', "rec", 5}})});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].calls, 2u);
  EXPECT_DOUBLE_EQ(rows[0].inclusive_sec, 7e-6);  // 5 + the nested 2
  EXPECT_DOUBLE_EQ(rows[0].exclusive_sec, 5e-6);  // the outer wall, once
}

TEST(FlatProfile, RowsSortedByExclusive) {
  const auto rows = obs::flat_profile({track_of(
      0, {{'B', "small", 0}, {'E', "small", 1}, {'B', "big", 1},
          {'E', "big", 9}, {'i', "census", 9}})});
  ASSERT_EQ(rows.size(), 2u);  // instants are not spans
  EXPECT_EQ(rows[0].name, "t/big");
  EXPECT_EQ(rows[1].name, "t/small");
  EXPECT_DOUBLE_EQ(rows[0].percent_exclusive + rows[1].percent_exclusive,
                   100.0);
}

TEST(FlatProfile, TwoTracksSumPerRow) {
  const auto rows = obs::flat_profile(
      {track_of(0, {{'B', "fast_sbm", 0}, {'E', "fast_sbm", 10}}),
       track_of(1, {{'B', "fast_sbm", 2},
                    {'B', "pass", 3},
                    {'E', "pass", 4},
                    {'E', "fast_sbm", 7}})});
  const obs::FlatRow sbm = obs::flat_row(rows, "t/fast_sbm");
  EXPECT_EQ(sbm.calls, 2u);
  EXPECT_DOUBLE_EQ(sbm.inclusive_sec, 15e-6);
  EXPECT_DOUBLE_EQ(sbm.exclusive_sec, 14e-6);
  EXPECT_EQ(obs::flat_row(rows, "t/pass").calls, 1u);
  EXPECT_EQ(obs::flat_row(rows, "t/absent").calls, 0u);
}

TEST(FlatProfile, UnbalancedTrackThrowsNamingTrack) {
  const auto message_of = [](const obs::TrackEvents& bad) {
    try {
      obs::flat_profile({track_of(0, {{'B', "ok", 0}, {'E', "ok", 1}}), bad});
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::string open = message_of(track_of(7, {{'B', "dangling", 0}}));
  EXPECT_NE(open.find("track 7"), std::string::npos) << open;
  EXPECT_NE(open.find("t/dangling"), std::string::npos) << open;
  const std::string orphan = message_of(track_of(3, {{'E', "orphan", 0}}));
  EXPECT_NE(orphan.find("track 3"), std::string::npos) << orphan;
  const std::string crossed = message_of(track_of(
      5, {{'B', "a", 0}, {'B', "b", 1}, {'E', "a", 2}, {'E', "b", 3}}));
  EXPECT_NE(crossed.find("track 5"), std::string::npos) << crossed;
  const std::string backwards =
      message_of(track_of(4, {{'B', "a", 5}, {'E', "a", 2}}));
  EXPECT_NE(backwards.find("track 4"), std::string::npos) << backwards;
}

TEST(FlatProfile, FormatAlignsColumnsRegardlessOfNameLength) {
  const std::string long_name =
      "fsbm/coalescence/kernel_table_fill/with/very/long/nested/path";
  obs::FlatRow big;
  big.name = long_name;
  big.calls = 123456789ull;
  big.inclusive_sec = big.exclusive_sec = 1234.5;
  obs::FlatRow small;
  small.name = "x";
  small.calls = 1;
  const std::string rep = obs::format_flat_profile({big, small});

  // Names go last on each row, so a long name can never truncate and
  // every row's name starts at the same column as the header's.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < rep.size()) {
    const std::size_t nl = rep.find('\n', pos);
    lines.push_back(rep.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  const std::size_t name_col = lines[0].find("name");
  ASSERT_NE(name_col, std::string::npos);
  EXPECT_EQ(lines[1].substr(name_col), long_name) << rep;
  EXPECT_EQ(lines[2].substr(name_col), "x") << rep;
}

/// A threads:2 run under a test-owned sink: the drained tracks and the
/// run's stats.
struct FoldedRun {
  std::vector<obs::TrackEvents> tracks;
  fsbm::FsbmStats fsbm;
  int nsteps = 0;
};

FoldedRun folded_threads_run() {
  const model::RunConfig cfg =
      gate_case("threads:2", mem::ResidencyMode::kStep);
  obs::TraceSink sink;
  FoldedRun out;
  {
    obs::ScopedActive active(&sink);
    out.fsbm = model::run_single(cfg).totals.fsbm;
  }
  out.tracks = sink.drain();
  out.nsteps = cfg.nsteps;
  return out;
}

TEST(FlatProfile, InclusiveEqualsSummedSpanDurationsOfARealRun) {
  const FoldedRun run = folded_threads_run();
  // Independent reference: match each E to its B by a per-track stack
  // and sum E - B per "cat/name".
  std::map<std::string, std::uint64_t> dur_us;
  std::map<std::string, std::uint64_t> calls;
  for (const obs::TrackEvents& t : run.tracks) {
    std::vector<const obs::TraceEvent*> open;
    for (const obs::TraceEvent& e : t.events) {
      if (e.phase == 'B') open.push_back(&e);
      if (e.phase != 'E') continue;
      ASSERT_FALSE(open.empty());
      const std::string key = std::string(e.cat) + "/" + e.name;
      dur_us[key] += e.ts_us - open.back()->ts_us;
      calls[key] += 1;
      open.pop_back();
    }
  }
  const std::vector<obs::FlatRow> rows = obs::flat_profile(run.tracks);
  ASSERT_EQ(rows.size(), dur_us.size());
  for (const obs::FlatRow& r : rows) {
    EXPECT_DOUBLE_EQ(r.inclusive_sec,
                     static_cast<double>(dur_us[r.name]) * 1e-6)
        << r.name;
    EXPECT_EQ(r.calls, calls[r.name]) << r.name;
  }
  EXPECT_EQ(obs::flat_row(rows, "step/solve_interval").calls,
            static_cast<std::uint64_t>(run.nsteps));
}

TEST(FlatProfile, FastSbmSpanBracketsTheStatsClockPair) {
  // The fsbm/fast_sbm span opens before FastSbm::step's clock pair and
  // closes after it; only the microsecond truncation of the two span
  // timestamps can make it look shorter.
  const FoldedRun run = folded_threads_run();
  const obs::FlatRow sbm =
      obs::flat_row(obs::flat_profile(run.tracks), "fsbm/fast_sbm");
  ASSERT_EQ(sbm.calls, static_cast<std::uint64_t>(run.nsteps));
  EXPECT_GE(sbm.inclusive_sec,
            run.fsbm.wall_total_sec - 1e-6 * static_cast<double>(sbm.calls));
}

TEST(ObsTrace, StepSeriesSortedByStepAndRank) {
  obs::TraceSink sink;
  for (const auto& [step, rank] : std::vector<std::pair<int, int>>{
           {1, 1}, {0, 0}, {1, 0}, {0, 1}}) {
    obs::StepRecord r;
    r.step = step;
    r.rank = rank;
    sink.record_step(r);
  }
  const std::vector<obs::StepRecord> steps = sink.steps();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(std::make_pair(steps[0].step, steps[0].rank), std::make_pair(0, 0));
  EXPECT_EQ(std::make_pair(steps[1].step, steps[1].rank), std::make_pair(0, 1));
  EXPECT_EQ(std::make_pair(steps[2].step, steps[2].rank), std::make_pair(1, 0));
  EXPECT_EQ(std::make_pair(steps[3].step, steps[3].rank), std::make_pair(1, 1));
}

}  // namespace
}  // namespace wrf
