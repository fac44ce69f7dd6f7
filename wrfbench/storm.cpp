// storm_bin / storm_hybrid: the CONUS-like storm on 2x1 simpi ranks,
// driven through the public RankModel lifecycle (ctor, init, step,
// snapshot) under par::run, so set-up is timed apart from stepping.

#include <algorithm>
#include <mutex>
#include <optional>

#include "harness.hpp"
#include "layers.hpp"
#include "model/driver.hpp"
#include "workloads.hpp"

namespace wrfbench {
namespace {

using namespace wrf;

/// Modeled-clock totals of a device's launches.
struct DeviceTotals {
  double kernel_modeled_ms = 0.0;
  double l2_hit_sum = 0.0;
  double dram_gb = 0.0;
  std::uint64_t launches = 0;
};

/// One storm run: set-up, the time loop, the final snapshot.
struct StormRep {
  double init_s = 0.0;   ///< run start until every rank is constructed+init
  double setup_s = 0.0;  ///< run start until every rank ended its warm-up
  double run_s = 0.0;    ///< the remaining steps + final snapshot
  std::vector<double> op_s;  ///< per rank-step: step wall + barrier wait
  std::vector<io::Snapshot> snapshots;
  Layers layers;
  DeviceTotals device;
};

StormRep run_rep(const model::RunConfig& cfg, obs::TraceSink* sink) {
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  StormRep rep;
  rep.snapshots.resize(patches.size());
  std::mutex mu;
  Clock::time_point t_init, t_ready, t_end;
  const Clock::time_point t_start = Clock::now();

  const par::RunStats comm = par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    std::optional<model::RankModel> m;
    const Clock::time_point c0 = Clock::now();
    {
      obs::Span span(sink, "bench", "ctor");
      m.emplace(cfg, patches[static_cast<std::size_t>(ctx.rank())], &ctx);
    }
    {
      obs::Span span(sink, "bench", "init");
      m->init();
    }
    const double my_setup = seconds_between(c0, Clock::now());
    ctx.barrier();
    if (ctx.rank() == 0) t_init = Clock::now();

    prof::Profiler prof;
    model::StepStats local;
    std::vector<double> ops;
    double step_s = 0.0, barrier_s = 0.0;
    for (int s = 0; s < cfg.nsteps; ++s) {
      const Clock::time_point s0 = Clock::now();
      Clock::time_point s1;
      {
        // The ledger's envelope: one rank-step, step plus barrier wait.
        obs::Span rank_step(sink, "bench", "rank_step");
        {
          obs::Span span(sink, "bench", "step");
          local.merge(m->step(prof));
        }
        s1 = Clock::now();
        obs::Span span(sink, "bench", "barrier");
        ctx.barrier();
      }
      const Clock::time_point s2 = Clock::now();
      step_s += seconds_between(s0, s1);
      barrier_s += seconds_between(s1, s2);
      ops.push_back(seconds_between(s0, s2));
      if (ctx.rank() == 0 && s + 1 == kWarmupSteps) t_ready = s2;
    }

    // The snapshot's res=persist pre-output flush is a modeled transfer:
    // charge it like the run helpers do.
    gpu::Device* dev = m->device();
    const gpu::TransferStats x0 =
        dev != nullptr ? dev->transfers() : gpu::TransferStats{};
    const Clock::time_point n0 = Clock::now();
    io::Snapshot snap;
    {
      obs::Span span(sink, "bench", "snapshot");
      snap = m->snapshot();
    }
    const double snap_s = seconds_between(n0, Clock::now());
    if (dev != nullptr) local.fsbm.charge_transfer_delta(x0, dev->transfers());
    ctx.barrier();
    if (ctx.rank() == 0) t_end = Clock::now();

    DeviceTotals dt;
    if (dev != nullptr) {
      for (const gpu::KernelStats& k : dev->launches()) {
        dt.kernel_modeled_ms += k.modeled_time_ms;
        dt.l2_hit_sum += k.l2_hit_rate;
        dt.dram_gb += k.dram_read_gb + k.dram_write_gb;
        ++dt.launches;
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    Layers& l = rep.layers;
    l.totals.merge(local);
    l.setup_s += my_setup;
    l.step_s += step_s;
    l.barrier_wait_s += barrier_s;
    l.snapshot_s += snap_s;
    l.resident_bytes += static_cast<double>(m->scheme().resident_bytes());
    l.pool_bytes += static_cast<double>(m->scheme().pool_bytes());
    rep.device.kernel_modeled_ms += dt.kernel_modeled_ms;
    rep.device.l2_hit_sum += dt.l2_hit_sum;
    rep.device.dram_gb += dt.dram_gb;
    rep.device.launches += dt.launches;
    rep.op_s.insert(rep.op_s.end(), ops.begin(), ops.end());
    rep.snapshots[static_cast<std::size_t>(ctx.rank())] = std::move(snap);
  });

  rep.init_s = seconds_between(t_start, t_init);
  rep.setup_s = seconds_between(t_start, t_ready);
  rep.run_s = seconds_between(t_ready, t_end);
  Layers& l = rep.layers;
  l.halo_wall_s = l.totals.halo_wall_sec;
  l.halo_bytes = static_cast<double>(l.totals.halo_bytes);
  l.par_messages = static_cast<double>(comm.total_messages());
  l.par_bytes = static_cast<double>(comm.total_bytes());
  l.par_wait_s = comm.total_wait_sec();
  l.kernel_modeled_ms = rep.device.kernel_modeled_ms;
  l.launches = static_cast<double>(rep.device.launches);
  l.dram_gb = rep.device.dram_gb;
  return rep;
}

/// Output checks on one rep; returns false when any failed.
bool check_rep(Report& r, const StormRep& rep, int index) {
  bool ok = true;
  double precip = 0.0;
  for (std::size_t i = 0; i < rep.snapshots.size(); ++i) {
    const std::string why = check_snapshot(rep.snapshots[i]);
    ok &= r.check(why.empty(), "rep " + std::to_string(index) + " rank " +
                                   std::to_string(i) + ": " + why);
    precip += snapshot_precip(rep.snapshots[i]);
  }
  ok &= r.check(precip > 0.0, "rep " + std::to_string(index) +
                                  ": no surface precipitation");
  return ok;
}

using Reps = std::vector<StormRep>;

/// Run reps until `seconds` have passed and at least `min_reps` ran.
Reps run_phase(const model::RunConfig& cfg, double seconds, int min_reps,
               int max_reps, obs::TraceSink* sink, Report& r) {
  Reps reps;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(reps.size()) < max_reps &&
         (static_cast<int>(reps.size()) < min_reps ||
          seconds_between(t0, Clock::now()) < seconds)) {
    StormRep rep = run_rep(cfg, sink);
    const std::uint64_t ops = rep.op_s.size();
    r.attempted += ops;
    if (!check_rep(r, rep, static_cast<int>(reps.size()))) r.failed += ops;
    reps.push_back(std::move(rep));
  }
  return reps;
}

std::vector<double> collect(const Reps& reps, double StormRep::*field) {
  std::vector<double> v;
  for (const StormRep& rep : reps) v.push_back(rep.*field);
  return v;
}

model::RunConfig storm_config(const Options& o, fsbm::PhysScheme phys) {
  model::RunConfig c;  // nkr 33, dt 5 s, the CONUS-like synthetic case
  c.nx = kStormGrid[0];
  c.ny = kStormGrid[1];
  c.nz = kStormGrid[2];
  c.version = fsbm::Version::kV3Offload3;
  c.phys = phys;
  c.npx = 2;
  c.npy = 1;
  c.nsteps = kStormSteps;
  c.seed = derive_seed(o.seed, 0);
  if (o.smoke) {
    c.nx = 24;
    c.ny = 16;
    c.nz = 12;
    c.nsteps = 2;
  }
  c.validate();
  return c;
}

void verify_storm_against_host(Report& r, const model::RunConfig& cfg,
                               const std::vector<io::Snapshot>& snaps) {
  // diffwrf-style verification against the v1 host build (paper §VII-B):
  // the offloaded run must agree to >= 3 significant digits.
  model::RunConfig host = cfg;
  host.version = fsbm::Version::kV1LookupOnDemand;
  host.obs = obs::ObsConfig{};
  prof::Profiler prof;
  const model::RunResult ref = model::run_simulation(host, prof);
  double worst = 16.0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const io::DiffReport d = io::diffstate(ref.snapshots[i], snaps[i], 1e-12);
    worst = std::min(worst, d.worst_digits);
  }
  r.props["verify_host_digits"] = worst;
  r.check(worst >= kMinHostDigits,
          "diffstate vs v1 host build: " + std::to_string(worst) +
              " digits < 3");
}

}  // namespace

Report run_storm(const Options& o, const std::string& name,
                 fsbm::PhysScheme phys) {
  Report r;
  r.workload = name;
  const model::RunConfig cfg = storm_config(o, phys);
  r.notes["config"] = cfg.describe();
  // At least kMinOpSamples rank-steps, so p90 has >= 10 samples past it;
  // a traced run prints no percentiles and needs only a pair of reps.
  const int ops_per_rep = cfg.nranks() * (cfg.nsteps - kWarmupSteps);
  const int min_reps =
      o.smoke ? 1
              : o.trace ? kMinTracedReps
                        : (kMinOpSamples + ops_per_rep - 1) / ops_per_rep;
  const int max_reps = o.smoke ? 1 : 1000;
  const double budget = o.trace ? o.seconds / 2.0 : o.seconds;

  const Reps plain = run_phase(cfg, budget, min_reps, max_reps, nullptr, r);
  const double rss = peak_rss_mb();
  put_rusage(r);

  // Latency samples skip each rank's warm-up step of a rep (cold caches,
  // the new device's first cache-trace replay): setup_s carries it.
  std::vector<double> ops;
  double run_total = 0.0;
  for (const StormRep& rep : plain) {
    for (std::size_t i = 0; i < rep.op_s.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(cfg.nsteps)) >=
          kWarmupSteps) {
        ops.push_back(rep.op_s[i]);
      }
    }
    run_total += rep.run_s;
  }
  const double run_med = median(collect(plain, &StormRep::run_s));
  const StormRep& last = plain.back();
  const double steps = static_cast<double>(cfg.nsteps);

  if (!o.trace) {
    r.put("setup_s", median(collect(plain, &StormRep::setup_s)), "s", kWall);
    r.put("run_s", run_med, "s", kWall);
    r.put("latency_p50_s", quantile(ops, 0.50), "s", kWall);
    r.put("latency_p90_s", quantile(ops, 0.90), "s", kWall);
    r.put("ops_per_s", static_cast<double>(ops.size()) / run_total, "1/s",
          kWall);
    // Modeled clock: every launch, its fixed latency and the transfers,
    // summed over ranks, per model step (identical across reps).
    r.put("modeled_device_ms_per_step",
          (last.device.kernel_modeled_ms +
           modeled_overhead_ms(last.layers.totals.fsbm)) /
              steps,
          "ms", kModeled);
    r.put("peak_rss_mb", rss, "MB", kWall);
  } else {
    // Traced phase: same number of reps, bench spans around every public
    // call plus the model's own pass/kernel/halo spans (obs=trace).
    model::RunConfig traced_cfg = cfg;
    traced_cfg.obs = obs::ObsConfig::parse("trace");
    obs::TraceSink sink;
    Reps traced;
    {
      obs::ScopedActive active(&sink);
      const int n = static_cast<int>(plain.size());
      traced = run_phase(traced_cfg, 0.0, n, n, &sink, r);
    }
    Layers sum;
    for (const StormRep& rep : traced) {
      const Layers& l = rep.layers;
      sum.totals.merge(l.totals);
      sum.setup_s += l.setup_s;
      sum.step_s += l.step_s;
      sum.barrier_wait_s += l.barrier_wait_s;
      sum.snapshot_s += l.snapshot_s;
      sum.halo_wall_s += l.halo_wall_s;
      sum.halo_bytes += l.halo_bytes;
      sum.par_messages += l.par_messages;
      sum.par_bytes += l.par_bytes;
      sum.par_wait_s += l.par_wait_s;
      sum.kernel_modeled_ms += l.kernel_modeled_ms;
      sum.launches += l.launches;
      sum.dram_gb += l.dram_gb;
      sum.l2_hit_rate += rep.device.l2_hit_sum;
    }
    sum.l2_hit_rate = sum.launches > 0.0 ? sum.l2_hit_rate / sum.launches : 0.0;
    sum.resident_bytes = traced.back().layers.resident_bytes;
    sum.pool_bytes = traced.back().layers.pool_bytes;
    sum.ledger = build_ledger(
        sink.drain(), [](const obs::TraceEvent& e, std::string* layer) {
          if (std::string(e.cat) == "bench") {
            if (e.name == "rank_step") return Role::kEnvelope;
            if (e.name == "barrier") {
              *layer = "par";
              return Role::kLayer;
            }
            return Role::kIgnore;
          }
          *layer = model_layer(e);
          return layer->empty() ? Role::kIgnore : Role::kLayer;
        });
    sum.kernel_host_ms = static_cast<double>(sum.ledger.kernel_us) * 1e-3;
    sum.trace_overhead =
        median(collect(traced, &StormRep::run_s)) / run_med - 1.0;
    put_layers(r, sum, static_cast<double>(traced.size()));
    r.props["traced_reps"] = static_cast<double>(traced.size());
  }

  // Traffic properties that explain the numbers.
  const grid::Patch p0 =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo)[0];
  const fsbm::FsbmStats& f = last.layers.totals.fsbm;
  const double state_bytes = static_cast<double>(p0.ip.size() + 2 * cfg.halo) *
                             static_cast<double>(p0.jp.size() + 2 * cfg.halo) *
                             static_cast<double>(p0.k.size()) *
                             (fsbm::kNumSpecies * cfg.nkr + 2) * sizeof(float);
  r.props["rank_state_bytes"] = state_bytes;
  r.props["llc_bytes"] = static_cast<double>(llc_bytes());
  r.props["nproc"] = host_cpus();
  r.props["affinity_cpus"] = affinity_cpus();
  r.props["ranks"] = cfg.nranks();
  r.props["steps_per_rep"] = cfg.nsteps;
  r.props["reps"] = static_cast<double>(plain.size());
  r.props["latency_samples"] = static_cast<double>(ops.size());
  r.props["latency_samples_beyond_p90"] =
      static_cast<double>(samples_beyond(ops, 0.90));
  r.notes["run_s_samples"] = join(collect(plain, &StormRep::run_s));
  // Warm-up shape: median rank-step latency per step index.
  std::vector<double> by_step;
  for (int k = 0; k < cfg.nsteps; ++k) {
    std::vector<double> v;
    for (const StormRep& rep : plain) {
      for (std::size_t i = static_cast<std::size_t>(k); i < rep.op_s.size();
           i += static_cast<std::size_t>(cfg.nsteps)) {
        v.push_back(rep.op_s[i]);
      }
    }
    by_step.push_back(median(v));
  }
  r.notes["latency_p50_by_step_s"] = join(by_step);
  r.notes["setup_s_samples"] = join(collect(plain, &StormRep::setup_s));
  r.props["setup_samples"] = static_cast<double>(plain.size());
  // The construct+init part of set-up alone (model.setup_s when traced).
  r.props["construct_init_median_s"] = median(collect(plain, &StormRep::init_s));
  const double census = static_cast<double>(f.cells_bin + f.cells_bulk);
  r.props["bin_census_share"] =
      census > 0.0 ? static_cast<double>(f.cells_bin) / census : 1.0;
  r.props["cells_coal_share"] =
      static_cast<double>(f.cells_coal) /
      (static_cast<double>(cfg.domain().cells()) * cfg.nsteps);
  r.props["h2d_bytes_per_step"] = static_cast<double>(f.h2d_bytes) / steps;
  r.props["d2h_bytes_per_step"] = static_cast<double>(f.d2h_bytes) / steps;
  r.props["transfer_share_of_modeled"] =
      (f.h2d_ms + f.d2h_ms) /
      (last.device.kernel_modeled_ms + modeled_overhead_ms(f));

  if (phys == fsbm::PhysScheme::kBin) {
    verify_storm_against_host(r, cfg, last.snapshots);
  }
  return r;
}

}  // namespace wrfbench
