// Table I reproduction: time contribution (%) of the top hotspots.
//
// Paper (CONUS-12km, 16 ranks):
//   routine            gprof    Nsight Systems (1 rank)
//   fast_sbm           51.39    77.07
//   rk_scalar_tend     28.07    10.15
//   rk_update_scalar    6.361    1.504
//
// We measure both views with the instrumenting profiler: the "gprof"
// view aggregates all ranks of a decomposed run of the v0 baseline; the
// "Nsight" view profiles the single rank owning the squall line (load
// imbalance makes its fast_sbm share larger, as the paper observes).

#include <thread>

#include "bench_common.hpp"

using namespace wrf;

namespace {

struct Shares {
  double fast_sbm = 0, tend = 0, update = 0;
};

Shares shares_of(const prof::Profiler& p) {
  // Percentages of the solver time, inclusive, as gprof reports
  // against total program time (we exclude init/profiling overhead).
  const double t_sbm = p.inclusive_sec("fast_sbm");
  const double t_tend = p.inclusive_sec("rk_scalar_tend");
  const double t_upd = p.inclusive_sec("rk_update_scalar");
  const double t_total = p.inclusive_sec("solve_interval");
  Shares s;
  if (t_total > 0) {
    s.fast_sbm = 100.0 * t_sbm / t_total;
    s.tend = 100.0 * t_tend / t_total;
    s.update = 100.0 * t_upd / t_total;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_config_header("Table I — hotspot time contribution (%)");

  // gprof view: all ranks aggregated.
  model::RunConfig cfg = bench::bench_case(fsbm::Version::kV0Baseline, 3);
  prof::Profiler all_ranks;
  model::run_simulation(cfg, all_ranks);
  const Shares agg = shares_of(all_ranks);

  // Nsight view: one rank that owns the squall line (rank 0 holds the
  // southern band at yc=0.40-0.42).
  prof::Profiler one_rank;
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  model::RankModel rank0(cfg, patches[0], nullptr);
  rank0.init();
  for (int s = 0; s < cfg.nsteps; ++s) rank0.step(one_rank);
  const Shares single = shares_of(one_rank);

  std::printf("%-18s %12s %12s %14s %14s\n", "routine", "gprof(paper)",
              "gprof(ours)", "nsight(paper)", "nsight(ours)");
  std::printf("%-18s %12.2f %12.2f %14.2f %14.2f\n", "fast_sbm", 51.39,
              agg.fast_sbm, 77.07, single.fast_sbm);
  std::printf("%-18s %12.2f %12.2f %14.2f %14.2f\n", "rk_scalar_tend", 28.07,
              agg.tend, 10.15, single.tend);
  std::printf("%-18s %12.2f %12.2f %14.2f %14.2f\n", "rk_update_scalar",
              6.361, agg.update, 1.504, single.update);

  std::printf("\nfull flat profile (gprof view, measured wall time):\n%s\n",
              all_ranks.format_flat_report().c_str());
  std::printf("shape check: fast_sbm dominates (%s), rk_scalar_tend second "
              "(%s)\n",
              agg.fast_sbm > agg.tend ? "yes" : "NO",
              agg.tend > agg.update ? "yes" : "NO");

  // Host-parallelism sweep (exec= knob): the same v0 physics pass, one
  // rank, dispatched serial vs. the requested execution space.  Pass
  // `exec=threads:N` to pick the thread count (default: hardware).
  exec::ExecConfig sweep = exec::exec_from_args(argc, argv);
  if (sweep.kind == exec::ExecKind::kSerial) {
    sweep.kind = exec::ExecKind::kThreads;  // default sweep target
  }
  // Wall columns are min/median/CV aggregates over reps (the tuner's
  // measurement discipline, bench::measure_reps) — speedups compare
  // minima, the least-noise estimate on a shared host.
  const int wall_reps = 3;
  auto host_pass = [&](const exec::ExecConfig& e) {
    return bench::measure_reps(wall_reps, [&]() {
      model::RunConfig c = bench::bench_case(fsbm::Version::kV0Baseline, 3);
      c.npx = c.npy = 1;
      c.exec = e;
      const auto ps = grid::decompose(c.domain(), 1, 1, c.halo);
      model::RankModel rank(c, ps[0], nullptr);
      rank.init();
      prof::Profiler p;
      double sbm_sec = 0.0;
      for (int s = 0; s < c.nsteps; ++s) {
        sbm_sec += rank.step(p).fsbm.wall_total_sec;
      }
      return sbm_sec;
    });
  };
  const bench::RepAggregate t_serial = host_pass(exec::ExecConfig{});
  const bench::RepAggregate t_exec = host_pass(sweep);
  std::printf("\nhost physics pass (fast_sbm, v0, 1 rank): exec sweep "
              "(%u hardware threads, %d reps)\n",
              std::thread::hardware_concurrency(), wall_reps);
  std::printf("  %-16s %10.3f s  (median %.3f, cv %.3f)\n", "serial",
              t_serial.min, t_serial.median, t_serial.cv);
  std::printf("  %-16s %10.3f s  (median %.3f, cv %.3f)  speedup %.2fx\n",
              sweep.describe().c_str(), t_exec.min, t_exec.median, t_exec.cv,
              t_exec.min > 0.0 ? t_serial.min / t_exec.min : 0.0);
  return 0;
}
