// The paper's claims as one table.
//
// Each row is one quantity the paper reports (a Table I share, a
// Table VI kernel metric, a Table VII speedup, ...) measured on this
// implementation, on one of three clocks:
//   wall    — host seconds of the functional code, min of 3 reps;
//   modeled — gpusim / perfmodel time for the paper's Perlmutter node;
//   count   — deterministic counters (flops, digits, launch geometry).
// A row with a predicate is a claim: one of the paper's findings as a
// gate on the measured value.  A row without one is a figure, reported
// next to the paper's number.  The printed report, the exit code (1
// when any claim is false) and PAPER_CLAIMS.json (in the working
// directory) all derive from the table.
//
// After the paper's rows come the `ext.*` rows: the gates of this repo's
// extensions (fusion, residency, hetero, hybrid, service, tuner), each on
// its own small grid.
//
// Usage: bench_paper_claims [claims=smoke|paper]
//   paper (default): every row; the paper's on the 107x75x50 CONUS rank
//     patch.
//   smoke: the modeled and count rows only, the paper's on a 32x24x50
//     patch (its 50 levels still reach above the coal gate); run as a
//     ctest case.
// A bad argument exits 2.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "bulk/kessler.hpp"
#include "fsbm/coal_bott.hpp"
#include "fsbm/nucleation.hpp"
#include "fsbm/onecond.hpp"
#include "obs/export.hpp"
#include "perfmodel/scaling.hpp"
#include "svc/scheduler.hpp"
#include "tune/tuner.hpp"
#include "util/constants.hpp"

using namespace wrf;

namespace {

constexpr int kWallReps = 3;

enum class Clock { kWall, kModeled, kCount };

const char* clock_name(Clock c) {
  switch (c) {
    case Clock::kWall: return "wall";
    case Clock::kModeled: return "modeled";
    case Clock::kCount: return "count";
  }
  return "?";
}

/// One term of a predicate: `measured <op> bound`.
struct Bound {
  const char* op;  // "<" | "<=" | ">" | ">="
  double bound;

  bool holds(double m) const {
    const std::string o = op;
    if (o == "<") return m < bound;
    if (o == "<=") return m <= bound;
    if (o == ">") return m > bound;
    return o == ">=" && m >= bound;
  }
};

struct Row {
  std::string id;        ///< "<artifact key>.<quantity>"
  const char* artifact;  ///< "Table VI"
  Clock clock;
  std::string what;      ///< the measured quantity, in words
  std::optional<double> paper;
  double measured;
  std::vector<Bound> pred;  ///< all must hold; empty for a figure

  bool claim() const { return !pred.empty(); }
  bool pass() const {
    for (const Bound& b : pred) {
      if (!b.holds(measured)) return false;
    }
    return true;
  }
  std::string predicate() const {
    std::string s = what;
    for (std::size_t i = 0; i < pred.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s %s %g", i ? " and" : "", pred[i].op,
                    pred[i].bound);
      s += buf;
    }
    return s;
  }
};

constexpr std::optional<double> kNoPaper;

/// The claim table.  Sections add rows; a row on a clock the set does
/// not run is dropped, and sections skip work no kept row needs.
class Table {
 public:
  explicit Table(bool paper_set) : paper_set_(paper_set) {}

  bool paper_set() const { return paper_set_; }
  bool wants(Clock c) const { return paper_set_ || c != Clock::kWall; }

  void add(const std::string& id, const char* artifact, Clock clock,
           const std::string& what, std::optional<double> paper,
           double measured, std::vector<Bound> pred = {}) {
    if (!wants(clock)) return;
    rows_.push_back(Row{id, artifact, clock, what, paper, measured,
                        std::move(pred)});
  }

  void print() const {
    const char* artifact = "";
    for (const Row& r : rows_) {
      if (std::string(artifact) != r.artifact) {
        artifact = r.artifact;
        std::printf("\n%s\n  %-38s %-7s %10s %12s  %s\n", artifact, "id",
                    "clock", "paper", "measured", "quantity / claim");
      }
      char paper[32] = "-";
      if (r.paper) std::snprintf(paper, sizeof(paper), "%.6g", *r.paper);
      std::printf("  %-38s %-7s %10s %12.6g  %s%s\n", r.id.c_str(),
                  clock_name(r.clock), paper, r.measured,
                  r.claim() ? r.predicate().c_str() : r.what.c_str(),
                  r.claim() ? (r.pass() ? "  yes" : "  NO") : "");
    }
    int claims = 0, held = 0;
    for (const Row& r : rows_) {
      claims += r.claim();
      held += r.claim() && r.pass();
    }
    std::printf("\n%d of %d claims hold (set=%s)\n", held, claims,
                paper_set_ ? "paper" : "smoke");
  }

  bool all_pass() const {
    for (const Row& r : rows_) {
      if (r.claim() && !r.pass()) return false;
    }
    return true;
  }

  void write_json(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) throw IoError(std::string("cannot write ") + path);
    const auto num = [](double v) {
      char buf[32] = "null";
      if (std::isfinite(v)) std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    };
    std::fprintf(f, "{\n  \"schema\": 1,\n  \"set\": \"%s\",\n"
                 "  \"hw_threads\": %u,\n",
                 paper_set_ ? "paper" : "smoke",
                 std::thread::hardware_concurrency());
    for (const bool claims : {true, false}) {
      std::fprintf(f, "  \"%s\": [", claims ? "claims" : "figures");
      const char* sep = "\n";
      for (const Row& r : rows_) {
        if (r.claim() != claims) continue;
        std::fprintf(
            f, "%s    {\"id\": \"%s\", \"artifact\": \"%s\", \"clock\": "
               "\"%s\", \"paper\": %s, \"measured\": %s, \"%s\": \"%s\"",
            sep, r.id.c_str(), r.artifact, clock_name(r.clock),
            r.paper ? num(*r.paper).c_str() : "null", num(r.measured).c_str(),
            claims ? "predicate" : "what",
            claims ? r.predicate().c_str() : r.what.c_str());
        if (claims) {
          std::fprintf(f, ", \"pass\": %s", r.pass() ? "true" : "false");
        }
        std::fprintf(f, "}");
        sep = ",\n";
      }
      std::fprintf(f, "\n  ]%s\n", claims ? "," : "");
    }
    std::fprintf(f, "}\n");
    if (std::fclose(f) != 0) throw IoError(std::string("cannot write ") + path);
  }

 private:
  bool paper_set_;
  std::vector<Row> rows_;
};

/// A functional run and, when traced, the flat profile of its spans.
struct Run {
  model::RunResult res;
  std::vector<obs::FlatRow> flat;
};

/// Every functional run, once per process: keyed by configuration
/// (version, grid, nsteps, ranks) and tracing, extended to more fresh
/// reps on demand.  Only runs that need a flat profile are traced: the
/// trace buffers move the heap, and gpusim's cache replay sees heap
/// addresses.
class Runs {
 public:
  const std::deque<Run>& get(const model::RunConfig& cfg, int reps = 1,
                             bool traced = false) {
    std::deque<Run>& runs =
        memo_[cfg.describe() + " nsteps=" + std::to_string(cfg.nsteps) +
              (traced ? " traced" : "")];
    while (static_cast<int>(runs.size()) < reps) {
      obs::TraceSink sink;
      std::optional<obs::ScopedActive> on;
      if (traced) on.emplace(&sink);
      Run r;
      r.res = cfg.nranks() == 1 ? model::run_single(cfg)
                                : model::run_simulation(cfg);
      on.reset();
      r.flat = obs::flat_profile(sink.drain());
      runs.push_back(std::move(r));
    }
    return runs;
  }

 private:
  // A deque, so extending one key's reps keeps references to its
  // earlier runs valid.
  std::map<std::string, std::deque<Run>> memo_;
};

/// Min over reps of one wall quantity.
template <class Reps, class Fn>
double wall_min(const Reps& reps, Fn&& fn) {
  std::vector<double> samples;
  for (const auto& r : reps) samples.push_back(fn(r));
  return tune::aggregate_samples(std::move(samples)).min;
}

/// The scaled-down CONUS case (64x48x24 on 2x2 ranks) of the
/// functional measurements.
model::RunConfig bench_case(fsbm::Version v, int nsteps) {
  model::RunConfig cfg;
  cfg.nx = 64;
  cfg.ny = 48;
  cfg.nz = 24;
  cfg.npx = 2;
  cfg.npy = 2;
  cfg.nsteps = nsteps;
  cfg.version = v;
  return cfg;
}

/// A per-rank-step WorkProfile of a functional run, its per-cell work
/// scaled up to the CONUS-12km per-rank patch (425x300x50 / 16 ranks).
perfmodel::WorkProfile profile_from_run(const model::RunResult& res,
                                        const model::RunConfig& cfg) {
  perfmodel::WorkProfile w;
  const double rank_steps = static_cast<double>(cfg.nranks()) * cfg.nsteps;
  const auto& f = res.totals.fsbm;
  w.cells = static_cast<double>(cfg.domain().cells()) / cfg.nranks();
  w.coal_flops = f.coal_flops / rank_steps;
  w.coal_flops_v0 = w.coal_flops;  // the caller overrides from a v0 run
  w.cond_nucl_flops = (f.cond_flops + f.nucl_flops) / rank_steps;
  w.sed_flops = f.sed_flops / rank_steps;
  w.adv_flops =
      (res.totals.dyn.tend.flops + res.totals.dyn.update.flops) / rank_steps;
  w.halo_bytes = static_cast<double>(res.comm.total_bytes()) / rank_steps;
  w.halo_messages =
      static_cast<double>(res.comm.total_messages()) / rank_steps;
  const double cell_ratio = (425.0 * 300.0 * 50.0 / 16.0) / w.cells;
  w = w.scaled_to(cell_ratio);
  w.cells = 425.0 * 300.0 * 50.0 / 16.0;
  return w;
}

constexpr fsbm::Version kV0 = fsbm::Version::kV0Baseline;
constexpr fsbm::Version kV1 = fsbm::Version::kV1LookupOnDemand;
constexpr fsbm::Version kV2 = fsbm::Version::kV2Offload2;
constexpr fsbm::Version kV3 = fsbm::Version::kV3Offload3;

// ------------------------------------------------------------ Table I

/// Inclusive seconds of the Table I routines; each advection routine is
/// its qv pass plus its `_bins` twin.
struct Hotspots {
  double fast_sbm = 0, tend = 0, update = 0, total = 0;
};

Hotspots hotspots(const std::vector<obs::FlatRow>& rows) {
  const auto incl = [&](const char* key) {
    return obs::flat_row(rows, key).inclusive_sec;
  };
  return {incl("fsbm/fast_sbm"),
          incl("pass/rk_scalar_tend") + incl("pass/rk_scalar_tend_bins"),
          incl("pass/rk_update_scalar") + incl("pass/rk_update_scalar_bins"),
          incl("step/solve_interval")};
}

/// Table I rows of one view: shares (%) of solver time from the min over
/// reps of each routine's time, and the ranking claim.
void hotspot_rows(Table& t, const char* view, const std::vector<Hotspots>& reps,
                  double p_sbm, double p_tend, double p_update) {
  const auto min_of = [&](double Hotspots::*field) {
    return wall_min(reps, [&](const Hotspots& h) { return h.*field; });
  };
  const double total = min_of(&Hotspots::total);
  const double sbm = 100.0 * min_of(&Hotspots::fast_sbm) / total;
  const double tend = 100.0 * min_of(&Hotspots::tend) / total;
  const double update = 100.0 * min_of(&Hotspots::update) / total;
  const std::string id = std::string("table1.") + view;
  t.add(id + "_fast_sbm_pct", "Table I", Clock::kWall, "fast_sbm share (%)",
        p_sbm, sbm);
  t.add(id + "_rk_scalar_tend_pct", "Table I", Clock::kWall,
        "rk_scalar_tend share (%)", p_tend, tend);
  t.add(id + "_rk_update_scalar_pct", "Table I", Clock::kWall,
        "rk_update_scalar share (%)", p_update, update);
  t.add(id + "_ranked", "Table I", Clock::kWall,
        "min(fast_sbm - tend, tend - update) share",
        std::min(p_sbm - p_tend, p_tend - p_update),
        std::min(sbm - tend, tend - update), {{">", 0}});
}

/// Table I: the gprof view aggregates all ranks of the v0 case; the
/// Nsight view profiles rank 0, which owns the squall line (load
/// imbalance makes its fast_sbm share larger, as the paper observes).
void table1(Table& t, Runs& runs) {
  if (!t.wants(Clock::kWall)) return;
  const model::RunConfig cfg = bench_case(kV0, 3);
  std::vector<Hotspots> all, one;
  for (const Run& r : runs.get(cfg, kWallReps, /*traced=*/true)) {
    all.push_back(hotspots(r.flat));
  }
  const grid::Patch patch =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo)[0];
  for (int rep = 0; rep < kWallReps; ++rep) {
    obs::TraceSink sink;
    model::RankModel rank0(cfg, patch, nullptr);
    rank0.init();
    obs::ScopedActive on(&sink);
    for (int s = 0; s < cfg.nsteps; ++s) rank0.step();
    one.push_back(hotspots(obs::flat_profile(sink.drain())));
  }
  hotspot_rows(t, "gprof", all, 51.39, 28.07, 6.361);
  hotspot_rows(t, "nsight", one, 77.07, 10.15, 1.504);
}

// ----------------------------------------------------------- Table III

void table3(Table& t, Runs& runs) {
  if (!t.wants(Clock::kWall)) return;
  // Traced like Table I's runs, which the v0 side shares.
  const auto& r0 = runs.get(bench_case(kV0, 3), kWallReps, /*traced=*/true);
  const auto& r1 = runs.get(bench_case(kV1, 3), kWallReps, /*traced=*/true);
  const auto sbm = [](const Run& r) {
    return r.res.totals.fsbm.wall_total_sec;
  };
  const auto overall = [](const Run& r) { return r.res.wall_sec; };
  t.add("table3.fast_sbm_speedup", "Table III", Clock::kWall,
        "fast_sbm v0/v1 wall", 1.83, wall_min(r0, sbm) / wall_min(r1, sbm),
        {{">", 1.3}});
  t.add("table3.overall_speedup", "Table III", Clock::kWall,
        "overall v0/v1 wall", 1.42,
        wall_min(r0, overall) / wall_min(r1, overall), {{">", 1.15}});
  t.add("table3.coal_flops_ratio", "Table III", Clock::kCount,
        "coal FLOPs v0/v1 (v1 computes only touched kernel entries)", kNoPaper,
        r0[0].res.totals.fsbm.coal_flops / r1[0].res.totals.fsbm.coal_flops);
}

// -------------------------------------------- Tables IV-VII, Figure 3

/// One CONUS rank patch through one fast_sbm version: modeled Perlmutter
/// seconds per step, with the parts the paper leaves on the CPU priced
/// by the Milan core model.
struct Offload {
  double coal_loop_sec = 0;  ///< collision section (CPU or kernel)
  double fast_sbm_sec = 0;   ///< nucleation+condensation+sed + coal
  double overall_sec = 0;    ///< + advection + halo comm
  double h2d_ms = 0, d2h_ms = 0;
  gpu::KernelStats kernel;   ///< offloaded versions only
  const model::RunResult* res = nullptr;
};

Offload offload(const model::RunResult& res, int nsteps) {
  Offload m;
  m.res = &res;
  const perfmodel::CpuSpec cpu = perfmodel::CpuSpec::milan();
  const auto& f = res.totals.fsbm;
  const double host_phys_sec =
      cpu.seconds_for_flops(f.cond_flops + f.nucl_flops + f.sed_flops) /
      nsteps;
  if (res.last_coal_kernel) {
    m.kernel = *res.last_coal_kernel;
    m.h2d_ms = f.h2d_ms / nsteps;
    m.d2h_ms = f.d2h_ms / nsteps;
    // The collision-loop timing is the target-region execution time;
    // the bin-field maps belong to the enclosing per-step data region
    // and are charged to fast_sbm (identical across v2/v3, as in the
    // paper where Table V isolates the kernel change).
    m.coal_loop_sec = m.kernel.modeled_time_ms / 1e3;
    m.fast_sbm_sec =
        host_phys_sec + m.coal_loop_sec + (m.h2d_ms + m.d2h_ms) / 1e3;
  } else {
    m.coal_loop_sec = cpu.seconds_for_flops(f.coal_flops) / nsteps;
    m.fast_sbm_sec = host_phys_sec + m.coal_loop_sec;
  }
  const double adv_flops =
      (res.totals.dyn.tend.flops + res.totals.dyn.update.flops) / nsteps;
  const perfmodel::NetworkSpec net = perfmodel::NetworkSpec::slingshot();
  m.overall_sec = m.fast_sbm_sec + cpu.seconds_for_flops(adv_flops) +
                  net.seconds_for(8, 30 << 20, 16);
  return m;
}

/// The shared inputs of the offload sections: the rank patch through
/// v1/v2/v3, and (paper set) v0's modeled times as v1's scaled by the
/// measured v0/v1 wall ratio of the bench case — the synthetic spectra
/// are sparser than a real storm's, so deriving v0 from flop counts
/// alone would overweight the kernals_ks fill.
struct Patch {
  model::RunConfig cfg;
  Offload v1, v2, v3;
  double v0_fast_sbm_sec = 0, v0_overall_sec = 0;  ///< wall-derived
};

Patch patch_runs(const Table& t, Runs& runs) {
  Patch p;
  p.cfg = bench::conus_rank_patch(kV1);
  if (!t.paper_set()) {
    p.cfg.nx = 32;
    p.cfg.ny = 24;
  }
  const auto one = [&](fsbm::Version v) {
    model::RunConfig c = p.cfg;
    c.version = v;
    return offload(runs.get(c)[0].res, c.nsteps);
  };
  p.v1 = one(kV1);
  p.v2 = one(kV2);
  p.v3 = one(kV3);
  if (t.wants(Clock::kWall)) {
    const auto& r0 = runs.get(bench_case(kV0, 2), kWallReps);
    const auto& r1 = runs.get(bench_case(kV1, 2), kWallReps);
    const auto sbm = [](const Run& r) {
      return r.res.totals.fsbm.wall_total_sec;
    };
    const auto overall = [](const Run& r) { return r.res.wall_sec; };
    p.v0_fast_sbm_sec =
        p.v1.fast_sbm_sec * (wall_min(r0, sbm) / wall_min(r1, sbm));
    p.v0_overall_sec =
        p.v1.overall_sec * (wall_min(r0, overall) / wall_min(r1, overall));
  }
  return p;
}

void table4(Table& t, const Patch& p) {
  const char* a = "Table IV";
  const Offload &v1 = p.v1, &v2 = p.v2;
  const auto& f2 = v2.res->totals.fsbm;
  t.add("table4.v1_coal_loop_s", a, Clock::kModeled, "v1 (CPU) coal loop s",
        kNoPaper, v1.coal_loop_sec);
  t.add("table4.v2_coal_loop_s", a, Clock::kModeled, "v2 (GPU) coal loop s",
        kNoPaper, v2.coal_loop_sec);
  t.add("table4.v1_fast_sbm_s", a, Clock::kModeled, "v1 fast_sbm s", kNoPaper,
        v1.fast_sbm_sec);
  t.add("table4.v2_fast_sbm_s", a, Clock::kModeled, "v2 fast_sbm s", kNoPaper,
        v2.fast_sbm_sec);
  t.add("table4.v1_overall_s", a, Clock::kModeled, "v1 overall s", kNoPaper,
        v1.overall_sec);
  t.add("table4.v2_overall_s", a, Clock::kModeled, "v2 overall s", kNoPaper,
        v2.overall_sec);
  t.add("table4.v2_kernel_ms", a, Clock::kModeled, "v2 kernel ms", kNoPaper,
        v2.kernel.modeled_time_ms);
  t.add("table4.v2_h2d_ms", a, Clock::kModeled, "v2 H2D ms per step",
        kNoPaper, v2.h2d_ms);
  t.add("table4.v2_d2h_ms", a, Clock::kModeled, "v2 D2H ms per step",
        kNoPaper, v2.d2h_ms);
  t.add("table4.v2_h2d_mb", a, Clock::kCount,
        "v2 H2D MB per step (res=step re-maps every field)", kNoPaper,
        static_cast<double>(f2.h2d_bytes) / 1e6);
  t.add("table4.v2_h2d_maps", a, Clock::kCount, "v2 H2D maps per step",
        kNoPaper, static_cast<double>(f2.h2d_transfers));
  t.add("table4.v2_d2h_mb", a, Clock::kCount, "v2 D2H MB per step", kNoPaper,
        static_cast<double>(f2.d2h_bytes) / 1e6);
  t.add("table4.v2_d2h_maps", a, Clock::kCount, "v2 D2H maps per step",
        kNoPaper, static_cast<double>(f2.d2h_transfers));
  t.add("table4.fast_sbm_speedup", a, Clock::kModeled, "fast_sbm v1/v2",
        1.54, v1.fast_sbm_sec / v2.fast_sbm_sec);
  t.add("table4.fast_sbm_cumulative", a, Clock::kWall, "fast_sbm v0/v2",
        2.67, p.v0_fast_sbm_sec / v2.fast_sbm_sec);
  t.add("table4.overall_speedup", a, Clock::kModeled, "overall v1/v2", 1.33,
        v1.overall_sec / v2.overall_sec);
  t.add("table4.overall_cumulative", a, Clock::kWall, "overall v0/v2", 2.09,
        p.v0_overall_sec / v2.overall_sec);
  t.add("table4.loop_speedup", a, Clock::kModeled, "coal loop v1/v2", 6.47,
        v1.coal_loop_sec / v2.coal_loop_sec, {{">", 3}});
  t.add("table4.c2_occupancy_pct", a, Clock::kModeled,
        "v2 achieved occupancy (%, grid-limited)", 4.63,
        100.0 * v2.kernel.occupancy.achieved, {{"<", 10}});
}

void table5(Table& t, const Patch& p) {
  const char* a = "Table V";
  const Offload &v1 = p.v1, &v2 = p.v2, &v3 = p.v3;
  t.add("table5.v3_coal_loop_s", a, Clock::kModeled, "v3 coal loop s",
        kNoPaper, v3.coal_loop_sec);
  t.add("table5.v3_fast_sbm_s", a, Clock::kModeled, "v3 fast_sbm s", kNoPaper,
        v3.fast_sbm_sec);
  t.add("table5.v3_overall_s", a, Clock::kModeled, "v3 overall s", kNoPaper,
        v3.overall_sec);
  t.add("table5.loop_cumulative", a, Clock::kModeled, "coal loop v1/v3", 66.6,
        v1.coal_loop_sec / v3.coal_loop_sec);
  t.add("table5.fast_sbm_speedup", a, Clock::kModeled, "fast_sbm v2/v3", 1.12,
        v2.fast_sbm_sec / v3.fast_sbm_sec);
  t.add("table5.fast_sbm_cumulative", a, Clock::kWall, "fast_sbm v0/v3", 2.99,
        p.v0_fast_sbm_sec / v3.fast_sbm_sec);
  t.add("table5.overall_speedup", a, Clock::kModeled, "overall v2/v3", 1.05,
        v2.overall_sec / v3.overall_sec);
  t.add("table5.overall_cumulative", a, Clock::kWall, "overall v0/v3", 2.20,
        p.v0_overall_sec / v3.overall_sec);
  t.add("table5.loop_speedup", a, Clock::kModeled, "coal loop v2/v3", 10.3,
        v2.coal_loop_sec / v3.coal_loop_sec, {{">", 2}});
  t.add("table5.diminishing_returns", a, Clock::kModeled,
        "overall (v2/v3) / (v1/v2)", 1.05 / 1.33,
        (v2.overall_sec / v3.overall_sec) / (v1.overall_sec / v2.overall_sec),
        {{"<", 1}});
}

void table6(Table& t, const Patch& p) {
  const char* a = "Table VI";
  const gpu::KernelStats &k2 = p.v2.kernel, &k3 = p.v3.kernel;
  struct Metric {
    const char* key;
    const char* what;
    double p2, o2, p3, o3;
  };
  const Metric metrics[] = {
      {"time_ms", "time (ms)", 335.85, k2.modeled_time_ms, 29.11,
       k3.modeled_time_ms},
      {"occupancy_pct", "achieved occupancy (%)", 4.63,
       100.0 * k2.occupancy.achieved, 35.67, 100.0 * k3.occupancy.achieved},
      {"l1_hit_pct", "L1/TEX hit rate (%)", 84.82, 100.0 * k2.l1_hit_rate,
       61.43, 100.0 * k3.l1_hit_rate},
      {"l2_hit_pct", "L2 hit rate (%)", 95.84, 100.0 * k2.l2_hit_rate, 69.28,
       100.0 * k3.l2_hit_rate},
      {"dram_write_gb", "writes to DRAM (GB)", 0.785, k2.dram_write_gb, 4.290,
       k3.dram_write_gb},
      {"dram_read_gb", "reads from DRAM (GB)", 0.654, k2.dram_read_gb, 10.24,
       k3.dram_read_gb},
  };
  for (const Metric& m : metrics) {
    t.add(std::string("table6.c2_") + m.key, a, Clock::kModeled,
          std::string("c2 ") + m.what, m.p2, m.o2);
    t.add(std::string("table6.c3_") + m.key, a, Clock::kModeled,
          std::string("c3 ") + m.what, m.p3, m.o3);
  }
  t.add("table6.c2_iterations", a, Clock::kCount, "c2 kernel iterations",
        kNoPaper, static_cast<double>(k2.iterations));
  t.add("table6.c3_iterations", a, Clock::kCount, "c3 kernel iterations",
        kNoPaper, static_cast<double>(k3.iterations));
  const Metric &time = metrics[0], &occ = metrics[1], &l1 = metrics[2],
               &l2 = metrics[3], &wr = metrics[4], &rd = metrics[5];
  t.add("table6.c3_much_faster", a, Clock::kModeled, "time c2/c3",
        time.p2 / time.p3, time.o2 / time.o3, {{">", 3}});
  t.add("table6.c3_occupancy_rises", a, Clock::kModeled, "occupancy c3/c2",
        occ.p3 / occ.p2, occ.o3 / occ.o2, {{">", 4}});
  t.add("table6.c3_l1_hit_drops", a, Clock::kModeled, "L1 hit c3 - c2 (pp)",
        l1.p3 - l1.p2, l1.o3 - l1.o2, {{"<", 0}});
  t.add("table6.c3_l2_hit_drops", a, Clock::kModeled, "L2 hit c3 - c2 (pp)",
        l2.p3 - l2.p2, l2.o3 - l2.o2, {{"<", 0}});
  t.add("table6.c3_dram_reads_grow", a, Clock::kModeled,
        "DRAM reads c3 - c2 (GB)", rd.p3 - rd.p2, rd.o3 - rd.o2, {{">", 0}});
  t.add("table6.c3_dram_writes_grow", a, Clock::kModeled,
        "DRAM writes c3 - c2 (GB)", wr.p3 - wr.p2, wr.o3 - wr.o2, {{">", 0}});
}

/// Figure 3: roofline placement of the collision kernel.  The paper's
/// reading of the plot: both points far below peak; the full collapse
/// closer to the roofline but at lower arithmetic intensity (more DRAM
/// traffic from the pooled arrays).
void fig3(Table& t, const Patch& p) {
  const char* a = "Figure 3";
  const gpu::DeviceSpec dev = gpu::DeviceSpec::a100_40gb();
  const gpu::KernelStats &k2 = p.v2.kernel, &k3 = p.v3.kernel;
  const double frac2 =
      k2.gflops_achieved /
      gpu::roofline_gflops(dev, k2.arithmetic_intensity, false);
  const double frac3 =
      k3.gflops_achieved /
      gpu::roofline_gflops(dev, k3.arithmetic_intensity, false);
  t.add("fig3.sp_ridge_ai", a, Clock::kModeled, "SP ridge point (F/B)",
        kNoPaper, dev.peak_sp_gflops / dev.dram_bw_gbs);
  t.add("fig3.dp_ridge_ai", a, Clock::kModeled, "DP ridge point (F/B)",
        kNoPaper, dev.peak_dp_gflops / dev.dram_bw_gbs);
  t.add("fig3.c2_ai", a, Clock::kModeled, "c2 arithmetic intensity (F/B)",
        kNoPaper, k2.arithmetic_intensity);
  t.add("fig3.c2_gflops", a, Clock::kModeled, "c2 GFLOP/s", kNoPaper,
        k2.gflops_achieved);
  t.add("fig3.c3_ai", a, Clock::kModeled, "c3 arithmetic intensity (F/B)",
        kNoPaper, k3.arithmetic_intensity);
  t.add("fig3.c3_gflops", a, Clock::kModeled, "c3 GFLOP/s", kNoPaper,
        k3.gflops_achieved);
  t.add("fig3.c2_roofline_frac", a, Clock::kModeled,
        "c2 fraction of SP roofline", kNoPaper, frac2);
  t.add("fig3.c3_roofline_frac", a, Clock::kModeled,
        "c3 fraction of SP roofline", kNoPaper, frac3);
  t.add("fig3.low_ai", a, Clock::kModeled, "max(c2, c3) AI (F/B)", kNoPaper,
        std::max(k2.arithmetic_intensity, k3.arithmetic_intensity),
        {{"<", 10}});
  t.add("fig3.c3_closer_to_roofline", a, Clock::kModeled,
        "roofline fraction c3 - c2", kNoPaper, frac3 - frac2, {{">", 0}});
  t.add("fig3.c3_lowers_ai", a, Clock::kModeled, "AI c3/c2", kNoPaper,
        k3.arithmetic_intensity / k2.arithmetic_intensity, {{"<", 1}});
}

/// Table VII / Figure 4: total time and speedup of the paper's four
/// configurations over 120 steps (10 simulated minutes).  The work
/// profile comes from the bench case scaled to the CONUS grid; CPU
/// ranks are priced with the Milan model, kernels with gpusim at the
/// v3 patch's per-cell work, the network with the alpha-beta model, and
/// ranks per GPU with the device-memory footprint (which pins the
/// 2-node GPU configuration at 5 ranks/GPU).
void table7(Table& t, const Patch& p, Runs& runs) {
  const char* a = "Table VII";
  const model::RunConfig cfg = bench_case(kV1, 2);
  perfmodel::WorkProfile w16 = profile_from_run(
      runs.get(cfg)[0].res, cfg);
  {
    const model::RunConfig c0 = bench_case(kV0, 2);
    w16.coal_flops_v0 =
        profile_from_run(runs.get(c0)[0].res, c0).coal_flops;
  }
  w16.coal_fraction_cloudy = 0.15;

  const double cells = static_cast<double>(p.cfg.nx) * p.cfg.ny * p.cfg.nz;
  const double flops_per_cell = p.v3.res->totals.fsbm.coal_flops / cells;
  const double bytes_per_cell =
      (p.v3.kernel.dram_read_gb + p.v3.kernel.dram_write_gb) * 1e9 / cells;
  gpu::Device dev(gpu::DeviceSpec::a100_40gb());
  dev.set_stack_limit(65536);
  dev.set_heap_limit(64ull << 20);
  const auto kernel_ms = [&](double patch_cells) {
    gpu::KernelDesc k;
    k.name = "coal_scaled";
    k.iterations = static_cast<std::int64_t>(patch_cells);
    k.regs_per_thread = 90;
    k.flops_per_iter = flops_per_cell;
    k.bytes_per_iter = bytes_per_cell;
    return dev.launch(k).modeled_time_ms;
  };
  const auto transfer_ms = [&](double patch_cells) {
    // 7 bin fields + temp/pres/pred each way per step.
    const double bytes = patch_cells * (7.0 * 33.0 * 4.0 * 2.0 + 12.0);
    return bytes / (gpu::DeviceSpec::a100_40gb().host_link_gbs * 1e6);
  };
  const auto rows = perfmodel::table7_rows(
      w16, /*nsteps=*/120, perfmodel::CpuSpec::milan(),
      perfmodel::NetworkSpec::slingshot(), gpu::DeviceSpec::a100_40gb(),
      perfmodel::DeviceFootprint{}, cfg.nkr, kernel_ms, transfer_ms);

  const char* const keys[4] = {"r16", "r32", "r64", "2node"};
  const double paper_base[4] = {1211.45, 655.1, 471.7, 379.8};
  const double paper_gpu[4] = {581.2, 360.1, 303.03, 397.1};
  const double paper_su[4] = {2.08, 1.82, 1.56, 0.956};
  for (int i = 0; i < 4; ++i) {
    const perfmodel::ScalingRow& r = rows[i];
    const std::string id = std::string("table7.") + keys[i];
    t.add(id + "_ranks_per_gpu", a, Clock::kModeled,
          r.label + ": ranks per GPU (" + std::to_string(r.ranks) + " ranks)",
          kNoPaper, r.ranks_per_gpu);
    t.add(id + "_baseline_s", a, Clock::kModeled, r.label + ": baseline s",
          paper_base[i], r.baseline_sec);
    t.add(id + "_lookup_s", a, Clock::kModeled, r.label + ": lookup s",
          kNoPaper, r.lookup_sec);
    t.add(id + "_gpu_s", a, Clock::kModeled, r.label + ": GPU s",
          paper_gpu[i], r.gpu_sec);
    t.add(id + "_speedup", a, Clock::kModeled, r.label + ": speedup",
          paper_su[i], r.speedup);
  }
  t.add("table7.speedup_falls_with_ranks", a, Clock::kModeled,
        "min(s16 - s32, s32 - s64)",
        std::min(paper_su[0] - paper_su[1], paper_su[1] - paper_su[2]),
        std::min(rows[0].speedup - rows[1].speedup,
                 rows[1].speedup - rows[2].speedup),
        {{">", 0}});
  t.add("table7.two_node_loses", a, Clock::kModeled, "2-node speedup",
        paper_su[3], rows[3].speedup, {{"<", 1.1}});
  t.add("table7.ranks_per_gpu_capped", a, Clock::kModeled,
        "2-node ranks per GPU", 5, rows[3].ranks_per_gpu, {{"<=", 6}});
}

// -------------------------------------------------------- §VII-B

/// §VII-B: diffwrf-style agreement of the CPU (v1) and offloaded (v3,
/// FMA-contracted device arithmetic) versions of one case, after one
/// step (the -gpu=autocompare analogue) and after six.
void verif(Table& t, Runs& runs) {
  const char* a = "Sec. VII-B";
  model::RunConfig cfg = bench_case(kV1, 6);
  cfg.npx = cfg.npy = 1;
  const auto diff = [&](int nsteps) {
    model::RunConfig c = cfg;
    c.nsteps = nsteps;
    const io::Snapshot& cpu = runs.get(c)[0].res.snapshots[0];
    c.version = kV3;
    return io::diffstate(cpu, runs.get(c)[0].res.snapshots[0], 1e-12);
  };
  const io::DiffReport rep = diff(6);
  const io::DiffReport step = diff(1);
  double state = 16.0, micro = 16.0, differing = 0.0;
  for (const io::VarDiff& v : rep.vars) {
    const std::string id = "verif." + v.name;
    t.add(id + "_bit_equal", a, Clock::kCount,
          v.name + " bit-equal elements of " + std::to_string(v.count),
          kNoPaper, static_cast<double>(v.bitwise_equal));
    t.add(id + "_min_digits", a, Clock::kCount,
          v.name + " worst digits after 6 steps", kNoPaper, v.digits_min);
    t.add(id + "_mean_digits", a, Clock::kCount,
          v.name + " mean digits of unequal elements", kNoPaper,
          v.digits_mean);
    if (v.name == "T" || v.name == "QVAPOR") {
      state = std::min(state, v.digits_min);
    } else if (v.name.rfind("Q_", 0) == 0) {
      micro = std::min(micro, v.digits_min);
    }
    differing += v.bitwise_equal != v.count;
  }
  t.add("verif.one_step_digits", a, Clock::kCount,
        "worst digits after 1 step (paper: 6-7)", 6, step.worst_digits);
  t.add("verif.not_bitwise", a, Clock::kCount,
        "variables not bitwise equal (FMA contraction)", kNoPaper, differing,
        {{">", 0}});
  t.add("verif.state_digits", a, Clock::kCount,
        "state worst digits (paper: 3-6)", 3, state, {{">=", 3}});
  t.add("verif.micro_digits", a, Clock::kCount,
        "microphysics worst digits (paper: 1-5)", 1, micro, {{">=", 1}});
  t.add("verif.micro_noisier", a, Clock::kCount,
        "microphysics - state worst digits", 1 - 3, micro - state,
        {{"<=", 0}});
}

// ------------------------------------------------------------ Figure 2

/// Figure 2 as a box model: a rising saturated parcel integrated with
/// the FSBM bin chain (explicit 33-bin spectrum) and with Kessler bulk
/// (qc/qr moments).  The bin scheme broadens its spectrum continuously,
/// so rain appears while the bulk scheme is still below its
/// autoconversion threshold.
void fig2(Table& t) {
  const char* a = "Figure 2";
  const fsbm::BinGrid bins(33);
  const fsbm::KernelTables tables(bins);
  const double pres = 85000.0;
  const double dt = 5.0;
  const int nsteps = 240;         // 20 minutes
  const double cooling = -0.004;  // K/s adiabatic cooling (steady updraft)

  float buf[(4 + fsbm::kIceMax) * fsbm::kMaxNkr] = {};
  const int nkr = bins.nkr();
  fsbm::CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + nkr;
  w.g3 = buf + nkr * (1 + fsbm::kIceMax);
  w.g4 = buf + nkr * (2 + fsbm::kIceMax);
  w.g5 = buf + nkr * (3 + fsbm::kIceMax);
  double t_bin = 288.0;
  double qv_bin = 0.995 * constants::qsat_liquid(t_bin, pres);
  bulk::KesslerCell cell;
  double t_blk = t_bin, qv_blk = qv_bin;

  const int rain_bin = 16;  // drops > ~80 um radius
  double bin_onset = -1, blk_onset = -1, bin_only_outputs = 0;
  for (int s = 0; s <= nsteps; ++s) {
    if (s % 24 == 0) {  // an output time
      double qr = 0;
      for (int k = rain_bin; k < 33; ++k) qr += w.fl1[k];
      if (bin_onset < 0 && qr > 1e-5) bin_onset = s * dt;
      if (blk_onset < 0 && cell.qr > 1e-5) blk_onset = s * dt;
      bin_only_outputs += qr > 0 && cell.qr == 0;
    }
    t_bin += cooling * dt;
    t_blk += cooling * dt;
    fsbm::NuclConfig ncfg;
    ncfg.dt = dt;
    fsbm::jernucl01_ks(bins, t_bin, qv_bin, pres, w, ncfg);
    fsbm::CondConfig ccfg;
    ccfg.dt = dt;
    fsbm::onecond1(bins, t_bin, qv_bin, pres, w, ccfg);
    const fsbm::KernelSource ks(tables, pres);
    fsbm::CoalConfig kcfg;
    kcfg.dt = dt;
    fsbm::PairLane lane{&ks, w.fl1, w.fl1, w.fl1, {}};
    fsbm::collect_pair_lanes(bins, fsbm::CollisionPair::kLL,
                             std::span<fsbm::PairLane>(&lane, 1), kcfg);
    bulk::kessler_cell(t_blk, qv_blk, pres, cell, dt);
  }
  t.add("fig2.bin_rain_onset_s", a, Clock::kCount,
        "bin rain onset s (qr > 1e-5)", kNoPaper, bin_onset);
  t.add("fig2.bulk_rain_onset_s", a, Clock::kCount,
        "bulk rain onset s (qr > 1e-5)", kNoPaper, blk_onset);
  t.add("fig2.bin_rains_first", a, Clock::kCount,
        "output times with bin qr > 0 and bulk qr = 0", kNoPaper,
        bin_only_outputs, {{">", 0}});
}

// --------------------------------------------------- launch ablation

/// Launch-geometry ablation of the offloaded kernel on the rank patch's
/// collision workload: (a) threads per block, (b) registers per thread
/// (the paper: "further reduction beyond 64 appears to have no
/// effect"), (c) collapse depth (Listing 6 -> Listing 8).
void ablation_launch(Table& t) {
  const char* a = "Launch ablation";
  const gpu::DeviceSpec spec = gpu::DeviceSpec::a100_40gb();
  const std::int64_t cells = 107LL * 75 * 50;
  const auto launch = [&](std::int64_t iters, int tpb, int regs) {
    gpu::Device dev(spec);
    dev.set_stack_limit(65536);
    dev.set_heap_limit(64ull << 20);
    gpu::KernelDesc k;
    k.name = "coal_ablation";
    k.iterations = iters;
    k.threads_per_block = tpb;
    k.regs_per_thread = regs;
    k.flops_per_iter = 2500.0 * static_cast<double>(cells / iters);
    k.bytes_per_iter = 1800.0 * static_cast<double>(cells / iters);
    return dev.launch(k);
  };
  const auto rows = [&](const std::string& id, const std::string& what,
                        const gpu::KernelStats& ks) {
    t.add(id + "_occupancy_pct", a, Clock::kModeled, what + " occupancy (%)",
          kNoPaper, 100.0 * ks.occupancy.achieved);
    t.add(id + "_ms", a, Clock::kModeled, what + " time (ms)", kNoPaper,
          ks.modeled_time_ms);
    return ks.modeled_time_ms;
  };
  for (const int tpb : {32, 64, 128, 256, 512}) {
    rows("ablation.tpb" + std::to_string(tpb),
         "collapse(3), 90 regs, tpb " + std::to_string(tpb),
         launch(cells, tpb, 90));
  }
  double t64 = 0, t32 = 0;
  for (const int regs : {255, 192, 128, 90, 64, 48, 32}) {
    const double ms = rows("ablation.regs" + std::to_string(regs),
                           "collapse(3), tpb 128, " + std::to_string(regs) +
                               " regs",
                           launch(cells, 128, regs));
    if (regs == 64) t64 = ms;
    if (regs == 32) t32 = ms;
  }
  const std::int64_t iters_by_collapse[3] = {75, 75 * 50, cells};
  double tc[3];
  for (int c = 0; c < 3; ++c) {
    tc[c] = rows("ablation.collapse" + std::to_string(c + 1),
                 "collapse(" + std::to_string(c + 1) + "), " +
                     std::to_string(iters_by_collapse[c]) + " iters",
                 launch(iters_by_collapse[c], 128, 90));
  }
  t.add("ablation.regs_below_64_no_effect", a, Clock::kModeled,
        "time 32 regs / 64 regs", 1.0, t32 / t64, {{">", 0.95}});
  t.add("ablation.collapse_deepens", a, Clock::kModeled,
        "min(t c1/c2, t c2/c3)", kNoPaper,
        std::min(tc[0] / tc[1], tc[1] / tc[2]), {{">", 1}});
}

// ------------------------------------------------------- nkr ablation

/// Wall seconds per coal_bott_new call at `nkr` bins on a dense cold
/// cell (every bin populated: the regime of the introduction's
/// "scales quadratically" claim), averaged over `reps` calls.
double coal_wall_per_cell(int nkr, int reps) {
  const fsbm::BinGrid bins(nkr);
  const fsbm::KernelTables tables(bins);
  std::vector<float> buf(static_cast<std::size_t>(4 + fsbm::kIceMax) * nkr);
  fsbm::CoalWorkspace w;
  w.fl1 = buf.data();
  w.g2 = buf.data() + nkr;
  w.g3 = buf.data() + nkr * (1 + fsbm::kIceMax);
  w.g4 = buf.data() + nkr * (2 + fsbm::kIceMax);
  w.g5 = buf.data() + nkr * (3 + fsbm::kIceMax);
  const fsbm::CoalConfig cfg;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    std::fill(buf.begin(), buf.end(), 1.0e-5f);
    const fsbm::KernelSource ks(tables, 60000.0);
    fsbm::coal_bott_new(bins, 258.0, ks, w, cfg);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

void ablation_nkr(Table& t) {
  if (!t.wants(Clock::kWall)) return;
  const char* a = "nkr ablation";
  const int nkrs[] = {17, 33, 66, 132, 264};
  double wall[5];
  for (int i = 0; i < 5; ++i) {
    const int reps = std::max(2, 2000000 / (nkrs[i] * nkrs[i]));
    wall[i] = tune::measure_reps(kWallReps, [&] {
      return coal_wall_per_cell(nkrs[i], reps);
    }).min;
    t.add("nkr.wall_us_" + std::to_string(nkrs[i]), a, Clock::kWall,
          "coal_bott_new wall per cell (us), nkr " + std::to_string(nkrs[i]),
          kNoPaper, wall[i] * 1e6);
  }
  t.add("nkr.cost_exponent", a, Clock::kWall,
        "wall exponent in nkr, 17 -> 264", 2.0,
        std::log(wall[4] / wall[0]) / std::log(264.0 / 17.0),
        {{">", 1.5}, {"<", 2.6}});
}

// ------------------------------------------------ extension benches
//
// The gates of this repo's extensions to the paper's code: pass fusion,
// device residency, heterogeneous dispatch, hybrid microphysics, the
// forecast service and the autotuner.  Each runs on the small grid its
// gates have always been checked on.  The modeled kernel times here are
// figures only: they follow host addresses, so no gate rests on them.

/// One rank of nx x ny x nz at version `v`, `nsteps` steps.
model::RunConfig ext_case(fsbm::Version v, int nx, int ny, int nz,
                          int nsteps) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = v;
  return cfg;
}

/// Device counters of one rank stepped by hand, per steady-state step
/// (every step after the first, which pays the one-time uploads).
struct Steady {
  double launches = 0;   ///< kernel launches per step
  double bytes = 0;      ///< h2d + d2h bytes per step
  double kernel_ms = 0;  ///< modeled kernel ms per step, over all steps
};

Steady step_rank(const model::RunConfig& cfg) {
  const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
  model::RankModel rank(cfg, patches[0], nullptr);
  rank.init();
  std::uint64_t launches = 0;
  gpu::TransferStats first;
  for (int s = 0; s < cfg.nsteps; ++s) {
    const model::StepStats st = rank.step();
    if (s == 0) {
      first = rank.device()->transfers();
    } else {
      launches += st.fsbm.kernel_launches;
    }
  }
  const gpu::TransferStats& last = rank.device()->transfers();
  const double steady = cfg.nsteps - 1;
  return {static_cast<double>(launches) / steady,
          static_cast<double>(last.h2d_bytes - first.h2d_bytes +
                              last.d2h_bytes - first.d2h_bytes) /
              steady,
          rank.device()->total_kernel_ms() / cfg.nsteps};
}

/// Fusion: fuse=auto (the analyzer-verified cond+coal fusion) against
/// one launch per pass, v3 with offloaded condensation on exec=device.
void ext_fusion(Table& t) {
  const char* a = "Ext: fusion";
  double launches[2][2], mb[2][2];  // [fuse off|auto][res step|persist]
  for (const exec::FuseMode fuse :
       {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      model::RunConfig cfg = ext_case(kV3, 24, 16, 10, 3);
      cfg.fsbm_params.offload_condensation = true;
      cfg.res = res;
      cfg.fuse = fuse;
      cfg.exec.kind = exec::ExecKind::kDevice;
      const std::string cell = "fuse=" + model::knob_name("fuse", fuse) +
                               " res=" + model::knob_name("res", res);
      const std::string id = "ext.fusion." + model::knob_name("fuse", fuse) +
                             "_" + model::knob_name("res", res);
      const Steady s = step_rank(cfg);
      const int f = static_cast<int>(fuse), r = static_cast<int>(res);
      launches[f][r] = s.launches;
      mb[f][r] = s.bytes / 1e6;
      t.add(id + "_launches", a, Clock::kCount, cell + ": launches per step",
            kNoPaper, s.launches);
      t.add(id + "_mb", a, Clock::kCount, cell + ": h2d+d2h MB per step",
            kNoPaper, mb[f][r]);
      if (t.wants(Clock::kWall) && res == mem::ResidencyMode::kStep) {
        t.add(id + "_wall_s", a, Clock::kWall, cell + ": run wall s",
              kNoPaper, tune::measure_reps(kWallReps, [&] {
                          return model::run_single(cfg).wall_sec;
                        }).min);
      }
    }
  }
  t.add("ext.fusion.fewer_launches", a, Clock::kCount,
        "min over res of launches per step, off - auto", kNoPaper,
        std::min(launches[0][0] - launches[1][0],
                 launches[0][1] - launches[1][1]),
        {{">", 0}});
  t.add("ext.fusion.less_step_traffic", a, Clock::kCount,
        "res=step h2d+d2h MB per step, off - auto", kNoPaper,
        mb[0][0] - mb[1][0], {{">", 0}});
}

/// Residency: per-launch re-maps (res=step) against device-resident
/// fields with dirty tracking (res=persist), on exec=device.  A single
/// rank has no neighbours, so persist's steady state is about zero.
void ext_residency(Table& t) {
  const char* a = "Ext: residency";
  double bytes[2] = {0, 0};  // v3 [step, persist]
  for (const auto& [v, key] : {std::pair{kV2, "v2"}, std::pair{kV3, "v3"}}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      model::RunConfig cfg = ext_case(v, 24, 16, 10, 3);
      cfg.res = res;
      cfg.exec.kind = exec::ExecKind::kDevice;
      const std::string cell =
          std::string(key) + " res=" + model::knob_name("res", res);
      const std::string id = std::string("ext.residency.") + key + "_" +
                             model::knob_name("res", res);
      const Steady s = step_rank(cfg);
      if (v == kV3) bytes[static_cast<int>(res)] = s.bytes;
      t.add(id + "_mb", a, Clock::kCount, cell + ": h2d+d2h MB per step",
            kNoPaper, s.bytes / 1e6);
      t.add(id + "_kernel_ms", a, Clock::kModeled,
            cell + ": kernel ms per step", kNoPaper, s.kernel_ms);
    }
  }
  t.add("ext.residency.v3_reduction", a, Clock::kCount,
        "v3 h2d+d2h per step, step / persist (0 B counts as 1 B)", kNoPaper,
        bytes[0] / (bytes[1] > 0 ? bytes[1] : 1.0), {{">=", 5}});
}

/// Heterogeneous dispatch: exec=hetero splits the collision pass by its
/// predicate; 40 levels of 400 m reach above the 223.15 K coal gate, so
/// the split is two-sided.  The device shard uploads each of its cells'
/// footprint (predicate byte, temp + pres, seven bin slices) exactly
/// once; the full-pass baseline re-maps whole buffers, halo included.
void ext_hetero(Table& t) {
  const char* a = "Ext: hetero";
  const std::uint64_t cell_bytes =
      1 + 2 * sizeof(float) +
      static_cast<std::uint64_t>(fsbm::kNumSpecies) *
          static_cast<std::uint64_t>(model::RunConfig{}.nkr) * sizeof(float);
  for (const auto& [v, key] : {std::pair{kV2, "v2"}, std::pair{kV3, "v3"}}) {
    model::RunConfig cfg = ext_case(v, 16, 12, 40, 1);
    const model::RunResult base = model::run_single(cfg);
    cfg.exec.kind = exec::ExecKind::kHetero;
    const model::RunResult het = model::run_single(cfg);
    const fsbm::FsbmStats &h = het.totals.fsbm, &b = base.totals.fsbm;
    const std::string id = std::string("ext.hetero.") + key;
    const std::string ver = key;
    t.add(id + "_split_fraction", a, Clock::kCount,
          ver + " device-shard cells / all", kNoPaper,
          het.device_shard_fraction());
    t.add(id + "_two_sided", a, Clock::kCount,
          ver + " min(device, host) shard cells", kNoPaper,
          static_cast<double>(
              std::min(h.shard_cells_device, h.shard_cells_host)),
          {{">", 0}});
    t.add(id + "_h2d_exact", a, Clock::kCount,
          ver + " shard h2d - footprint x shard cells (B)", kNoPaper,
          static_cast<double>(static_cast<std::int64_t>(h.h2d_bytes) -
                              static_cast<std::int64_t>(
                                  h.shard_cells_device * cell_bytes)),
          {{">=", 0}, {"<=", 0}});
    t.add(id + "_d2h_within_full", a, Clock::kCount,
          ver + " full-pass d2h - hetero d2h (B)", kNoPaper,
          static_cast<double>(b.d2h_bytes) - static_cast<double>(h.d2h_bytes),
          {{">=", 0}});
    t.add(id + "_kernel_ms", a, Clock::kModeled, ver + " hetero kernel ms",
          kNoPaper, het.last_coal_kernel ? het.last_coal_kernel->modeled_time_ms
                                         : 0.0);
    t.add(id + "_full_kernel_ms", a, Clock::kModeled,
          ver + " full-pass kernel ms", kNoPaper,
          base.last_coal_kernel ? base.last_coal_kernel->modeled_time_ms
                                : 0.0);
    if (!t.wants(Clock::kWall)) continue;
    std::vector<double> dev{h.shard_wall_device_sec};
    std::vector<double> host{h.shard_wall_host_sec};
    for (int r = 1; r < kWallReps; ++r) {
      const fsbm::FsbmStats f = model::run_single(cfg).totals.fsbm;
      dev.push_back(f.shard_wall_device_sec);
      host.push_back(f.shard_wall_host_sec);
    }
    t.add(id + "_device_shard_s", a, Clock::kWall, ver + " device shard wall s",
          kNoPaper, tune::aggregate_samples(std::move(dev)).min);
    t.add(id + "_host_shard_s", a, Clock::kWall, ver + " host shard wall s",
          kNoPaper, tune::aggregate_samples(std::move(host)).min);
  }
}

/// Hybrid microphysics on the v1 host bin chain: phys=hybrid's
/// throughput must land strictly between pure bulk and pure bin, with
/// both fidelity populations live.  The three modes are measured in
/// interleaved reps, rotating which goes first, so host drift lands on
/// all three; reps adapt as tune::MeasurePolicy does (3-8, until every
/// mode's CV is at most 0.1).
void ext_hybrid(Table& t) {
  const char* a = "Ext: hybrid";
  const model::RunConfig cfg = ext_case(kV1, 24, 16, 10, 3);
  const fsbm::PhysScheme phys[3] = {fsbm::PhysScheme::kBulk,
                                    fsbm::PhysScheme::kHybrid,
                                    fsbm::PhysScheme::kBin};
  model::RunConfig cfgs[3] = {cfg, cfg, cfg};
  for (int m = 0; m < 3; ++m) cfgs[m].phys = phys[m];
  std::vector<double> walls[3];
  model::RunResult hybrid;
  if (t.wants(Clock::kWall)) {
    tune::MeasurePolicy policy;
    policy.max_reps = 8;
    for (int rep = 0; rep < policy.max_reps; ++rep) {
      for (int r = 0; r < 3; ++r) {
        const int m = (rep + r) % 3;
        model::RunResult res = model::run_single(cfgs[m]);
        walls[m].push_back(res.wall_sec);
        if (m == 1) hybrid = std::move(res);
      }
      if (rep + 1 >= policy.min_reps &&
          std::all_of(std::begin(walls), std::end(walls), [&](const auto& w) {
            return tune::aggregate_samples(w).cv <= policy.target_cv;
          })) {
        break;
      }
    }
  } else {
    hybrid = model::run_single(cfgs[1]);
  }
  const fsbm::FsbmStats& st = hybrid.totals.fsbm;
  const double census = static_cast<double>(st.cells_bin + st.cells_bulk);
  t.add("ext.hybrid.bin_fraction", a, Clock::kCount,
        "hybrid cell-steps at bin fidelity / all", kNoPaper,
        census > 0 ? static_cast<double>(st.cells_bin) / census : 1.0,
        {{">", 0}, {"<", 1}});
  if (!t.wants(Clock::kWall)) return;
  double rate[3];
  for (int m = 0; m < 3; ++m) {
    rate[m] = static_cast<double>(cfg.domain().cells()) * cfg.nsteps /
              tune::aggregate_samples(walls[m]).min;
    const std::string name = model::knob_name("phys", phys[m]);
    t.add("ext.hybrid." + name + "_cellsteps_per_s", a, Clock::kWall,
          "phys=" + name + " cell-steps per s (min wall, " +
              std::to_string(walls[m].size()) + " reps)",
          kNoPaper, rate[m]);
  }
  t.add("ext.hybrid.ordered", a, Clock::kWall,
        "min(bulk - hybrid, hybrid - bin) cell-steps per s", kNoPaper,
        std::min(rate[0] - rate[1], rate[1] - rate[2]), {{">", 0}});
}

/// One pass of the service's fixed stream through a `lanes`-wide pool.
struct Stream {
  double jobs_per_s = 0, wait_p50 = 0, parallelism = 0;
  double class_wait[svc::kNumClasses] = {0, 0, 0};  ///< mean per class
  bool clean = false;         ///< every job completed
  std::uint64_t batches = 0;  ///< multi-job dispatches
};

/// `per_class` jobs of each class, submitted paused so the dispatch
/// order is a function of the queue alone: v3 persist nowcasts with a
/// deadline, same-shape v2 ensemble members, and host-only v1 batch.
Stream run_stream(int lanes, int per_class) {
  svc::SchedulerConfig sc;
  sc.lanes = lanes;
  sc.batch_max = 4;
  sc.start_paused = true;
  svc::Scheduler sched(sc);
  const auto submit = [&](svc::JobClass cls, model::RunConfig cfg,
                          std::uint64_t seed, double deadline) {
    svc::Job job;
    job.cls = cls;
    job.deadline_sec = deadline;
    cfg.seed = seed;
    job.config = cfg;
    sched.submit(job);
  };
  model::RunConfig nowcast = ext_case(kV3, 24, 16, 10, 2);
  nowcast.res = mem::ResidencyMode::kPersist;
  for (int n = 0; n < per_class; ++n) {
    submit(svc::JobClass::kInteractive, nowcast, 100 + n, 600.0);
  }
  for (int n = 0; n < per_class; ++n) {
    submit(svc::JobClass::kEnsemble, ext_case(kV2, 20, 14, 8, 2), 200 + n,
           svc::Job{}.deadline_sec);
  }
  for (int n = 0; n < per_class; ++n) {
    submit(svc::JobClass::kBatch, ext_case(kV1, 16, 12, 8, 3), 300 + n,
           svc::Job{}.deadline_sec);
  }
  sched.drain();
  const svc::ServiceStats stats = sched.stats();
  sched.shutdown();

  Stream s;
  std::vector<double> waits;
  double sum[svc::kNumClasses] = {0, 0, 0};
  int count[svc::kNumClasses] = {0, 0, 0};
  for (const svc::JobResult& r : sched.take_results()) {
    if (r.outcome != svc::JobOutcome::kCompleted) continue;
    waits.push_back(r.wait_sec());
    sum[static_cast<int>(r.cls)] += r.wait_sec();
    ++count[static_cast<int>(r.cls)];
  }
  std::sort(waits.begin(), waits.end());
  if (!waits.empty()) s.wait_p50 = waits[waits.size() / 2];
  for (int c = 0; c < svc::kNumClasses; ++c) {
    s.class_wait[c] = count[c] > 0 ? sum[c] / count[c] : 0.0;
  }
  const double span = stats.makespan_sec();
  s.jobs_per_s =
      span > 0.0 ? static_cast<double>(stats.completed()) / span : 0.0;
  s.parallelism = stats.pool_parallelism();
  s.clean = stats.failed() == 0 && stats.rejected() == 0 &&
            stats.completed() == static_cast<std::uint64_t>(3 * per_class);
  s.batches = stats.batches;
  return s;
}

/// The forecast service: one stream of 3 jobs per class (class weights
/// 8/3/1, batch_max 4) over 1, 2 and 4 lanes, kWallReps streams per
/// width.  Wall gates read the rep medians.
void ext_service(Table& t) {
  const char* a = "Ext: service";
  const int reps = t.wants(Clock::kWall) ? kWallReps : 1;
  const int widths[3] = {1, 2, 4};
  double unclean = 0;
  std::uint64_t fewest_batches = ~std::uint64_t{0};
  double p50[3], jobs_per_s[3], class_wait[svc::kNumClasses];
  for (int w = 0; w < 3; ++w) {
    std::vector<double> jps, wait, par, cls[svc::kNumClasses];
    for (int r = 0; r < reps; ++r) {
      const Stream s = run_stream(widths[w], 3);
      unclean += !s.clean;
      fewest_batches = std::min(fewest_batches, s.batches);
      jps.push_back(s.jobs_per_s);
      wait.push_back(s.wait_p50);
      par.push_back(s.parallelism);
      for (int c = 0; c < svc::kNumClasses; ++c) {
        cls[c].push_back(s.class_wait[c]);
      }
    }
    jobs_per_s[w] = tune::aggregate_samples(jps).median;
    p50[w] = tune::aggregate_samples(wait).median;
    if (w == 0) {
      for (int c = 0; c < svc::kNumClasses; ++c) {
        class_wait[c] = tune::aggregate_samples(cls[c]).median;
      }
    }
    const std::string lanes = std::to_string(widths[w]);
    t.add("ext.service.lanes" + lanes + "_jobs_per_s", a, Clock::kWall,
          "lanes=" + lanes + ": jobs per s", kNoPaper, jobs_per_s[w]);
    t.add("ext.service.lanes" + lanes + "_parallelism", a, Clock::kWall,
          "lanes=" + lanes + ": pool parallelism / lanes", kNoPaper,
          tune::aggregate_samples(par).median / widths[w], {{">=", 0.5}});
  }
  t.add("ext.service.clean", a, Clock::kCount,
        "streams with a failed, rejected or missing job", kNoPaper, unclean,
        {{"<=", 0}});
  t.add("ext.service.batches", a, Clock::kCount,
        "fewest multi-job dispatches in one stream", kNoPaper,
        static_cast<double>(fewest_batches), {{">", 0}});
  t.add("ext.service.wait_shrinks", a, Clock::kWall,
        "p50 wait s, 4 lanes - 1 lane", kNoPaper, p50[2] - p50[0],
        {{"<", 0}});
  t.add("ext.service.fair_share", a, Clock::kWall,
        "1 lane: max(I - E, E - B) mean wait s", kNoPaper,
        std::max(class_wait[0] - class_wait[1], class_wait[1] - class_wait[2]),
        {{"<=", 0}});
  t.add("ext.service.throughput_holds", a, Clock::kWall,
        "jobs per s, 4 lanes / 1 lane", kNoPaper, jobs_per_s[2] / jobs_per_s[0],
        {{">=", 0.8}});
}

/// The autotuner on v1 at 24x16x10 (4 candidates past the prior, CV
/// target 0.5, at most 8 reps).  The tuned side loads the written
/// artifact through tune=file:, the round trip users run; it must be
/// bitwise the run with the winning knobs set by hand.  Throughput
/// allows 2% for the case where the winner is the default knobs, i.e.
/// the same config measured twice.
void ext_tuner(Table& t) {
  const char* a = "Ext: tuner";
  const model::RunConfig base = ext_case(kV1, 24, 16, 10, 2);
  tune::TunerOptions opts;
  opts.prior_keep = 4;
  opts.policy.max_reps = 8;
  opts.policy.target_cv = 0.5;
  const tune::TuneReport rep = tune::Tuner(opts).tune(base);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("claims_tuned_" + std::to_string(::getpid()) + ".json"))
          .string();
  const struct Removed {
    const std::string& path;
    ~Removed() { std::remove(path.c_str()); }
  } removed{path};
  tune::write_artifact(path, rep.artifact);
  model::RunConfig tuned = base;
  tuned.tune = tune::TuneSpec::parse("file:" + path);

  model::RunResult last;
  const auto side = [&](const model::RunConfig& cfg) {
    const tune::RepAggregate wall = tune::measure_reps(opts.policy, [&] {
      last = model::run_single(cfg);
      return last.wall_sec;
    });
    return static_cast<double>(cfg.domain().cells()) * cfg.nsteps / wall.min;
  };
  double untuned_rate = 0, tuned_rate = 0;
  if (t.wants(Clock::kWall)) {
    untuned_rate = side(base);
    tuned_rate = side(tuned);
  } else {
    last = model::run_single(tuned);
  }
  model::RunConfig by_hand = rep.winner;
  by_hand.nsteps = base.nsteps;
  const bool same = model::state_hash(last) ==
                    model::state_hash(model::run_single(by_hand));
  t.add("ext.tuner.bitwise", a, Clock::kCount,
        "tune=file: state hash differs from the winner's knobs set by hand",
        kNoPaper, same ? 0.0 : 1.0, {{"<=", 0}});
  t.add("ext.tuner.deciding_cv", a, Clock::kWall,
        "CV of the deciding rung's winner", kNoPaper, rep.entry.wall.cv,
        {{"<=", opts.policy.target_cv}});
  t.add("ext.tuner.untuned_cellsteps_per_s", a, Clock::kWall,
        "untuned cell-steps per s", kNoPaper, untuned_rate);
  t.add("ext.tuner.tuned_cellsteps_per_s", a, Clock::kWall,
        "tuned cell-steps per s (" + rep.entry.knobs + ")", kNoPaper,
        tuned_rate);
  t.add("ext.tuner.not_slower", a, Clock::kWall,
        "tuned x 1.02 / untuned cell-steps per s", kNoPaper,
        tuned_rate * 1.02 / untuned_rate, {{">=", 1}});
}

int run(int argc, char** argv) {
  model::RunConfig knobs;
  const auto own = model::apply_knob_args(knobs, argc, argv, {"claims"});
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]).find('=') == std::string::npos) {
      throw ConfigError(std::string("unexpected argument '") + argv[a] +
                        "' (want claims=smoke|paper)");
    }
  }
  if (knobs.describe() != model::RunConfig{}.describe()) {
    throw ConfigError("the claims run the paper's configuration; the only "
                      "key is claims=smoke|paper");
  }
  const std::string set = own.count("claims") ? own.at("claims") : "paper";
  if (set != "smoke" && set != "paper") {
    throw ConfigError("claims=" + set + ": want smoke | paper");
  }

  bench::print_config_header("the paper's claims");
  Table t(set == "paper");
  Runs runs;
  table1(t, runs);
  table3(t, runs);
  const Patch patch = patch_runs(t, runs);
  table4(t, patch);
  table5(t, patch);
  table6(t, patch);
  fig3(t, patch);
  table7(t, patch, runs);
  verif(t, runs);
  fig2(t);
  ablation_launch(t);
  ablation_nkr(t);
  ext_fusion(t);
  ext_residency(t);
  ext_hetero(t);
  ext_hybrid(t);
  ext_service(t);
  ext_tuner(t);

  t.print();
  t.write_json("PAPER_CLAIMS.json");
  return t.all_pass() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return model::run_main(run, argc, argv); }
