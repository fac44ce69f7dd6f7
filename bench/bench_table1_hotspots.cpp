// Table I reproduction: time contribution (%) of the top hotspots.
//
// Paper (CONUS-12km, 16 ranks):
//   routine            gprof    Nsight Systems (1 rank)
//   fast_sbm           51.39    77.07
//   rk_scalar_tend     28.07    10.15
//   rk_update_scalar    6.361    1.504
//
// We measure both views with one flat-profile fold over obs spans
// (obs::flat_profile): the "gprof" view aggregates all ranks of a
// decomposed run of the v0 baseline; the "Nsight" view profiles the
// single rank owning the squall line (load imbalance makes its fast_sbm
// share larger, as the paper observes).  Exit code 1 when either view
// loses the paper's ranking fast_sbm > rk_scalar_tend > rk_update_scalar,
// 2 on a bad knob.

#include <thread>

#include "bench_common.hpp"
#include "model/knobs.hpp"
#include "obs/export.hpp"

using namespace wrf;

namespace {

struct Shares {
  double fast_sbm = 0, tend = 0, update = 0;
  bool ranked() const { return fast_sbm > tend && tend > update; }
};

Shares shares_of(const std::vector<obs::FlatRow>& rows) {
  // Percentages of the solver time, inclusive, as gprof reports
  // against total program time (we exclude init/profiling overhead).
  // Each advection routine is its qv pass plus its `_bins` twin.
  const auto incl = [&](const char* key) {
    return obs::flat_row(rows, key).inclusive_sec;
  };
  const double t_total = incl("step/solve_interval");
  Shares s;
  if (t_total > 0) {
    s.fast_sbm = 100.0 * incl("fsbm/fast_sbm") / t_total;
    s.tend = 100.0 *
             (incl("pass/rk_scalar_tend") + incl("pass/rk_scalar_tend_bins")) /
             t_total;
    s.update =
        100.0 *
        (incl("pass/rk_update_scalar") + incl("pass/rk_update_scalar_bins")) /
        t_total;
  }
  return s;
}

int run(int argc, char** argv) {
  // Only exec= is read (the host-pass sweep at the end), but every knob
  // is checked here, before the long profile runs.
  model::RunConfig args;
  model::apply_knob_args(args, argc, argv);
  bench::print_config_header("Table I — hotspot time contribution (%)");

  // gprof view: all ranks aggregated.
  model::RunConfig cfg = bench::bench_case(fsbm::Version::kV0Baseline, 3);
  obs::TraceSink all_ranks;
  model::RunResult res;
  {
    obs::ScopedActive on(&all_ranks);
    res = model::run_simulation(cfg);
  }
  const std::vector<obs::FlatRow> agg_rows =
      obs::flat_profile(all_ranks.drain());
  const Shares agg = shares_of(agg_rows);

  // Nsight view: one rank that owns the squall line (rank 0 holds the
  // southern band at yc=0.40-0.42).
  obs::TraceSink one_rank;
  {
    const auto patches =
        grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
    model::RankModel rank0(cfg, patches[0], nullptr);
    rank0.init();
    obs::ScopedActive on(&one_rank);
    for (int s = 0; s < cfg.nsteps; ++s) rank0.step();
  }
  const Shares single = shares_of(obs::flat_profile(one_rank.drain()));

  std::printf("%-18s %12s %12s %14s %14s\n", "routine", "gprof(paper)",
              "gprof(ours)", "nsight(paper)", "nsight(ours)");
  std::printf("%-18s %12.2f %12.2f %14.2f %14.2f\n", "fast_sbm", 51.39,
              agg.fast_sbm, 77.07, single.fast_sbm);
  std::printf("%-18s %12.2f %12.2f %14.2f %14.2f\n", "rk_scalar_tend", 28.07,
              agg.tend, 10.15, single.tend);
  std::printf("%-18s %12.2f %12.2f %14.2f %14.2f\n", "rk_update_scalar",
              6.361, agg.update, 1.504, single.update);

  std::printf("\nfull flat profile (gprof view, measured wall time):\n%s",
              obs::format_flat_profile(agg_rows).c_str());
  std::printf("coal_bott_new loop (v0 inline, all ranks): %llu cells, "
              "%.4f s wall\n\n",
              static_cast<unsigned long long>(res.totals.fsbm.cells_coal),
              res.totals.fsbm.wall_coal_sec);
  std::printf("shape check: fast_sbm > rk_scalar_tend > rk_update_scalar "
              "(gprof view %s, nsight view %s)\n",
              agg.ranked() ? "yes" : "NO", single.ranked() ? "yes" : "NO");
  const int exit_code = agg.ranked() && single.ranked() ? 0 : 1;

  // Host-parallelism sweep (exec= knob): the same v0 physics pass, one
  // rank, dispatched serial vs. the requested execution space.  Pass
  // `exec=threads:N` to pick the thread count (default: hardware).
  exec::ExecConfig sweep = args.exec;
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
      double sbm_sec = 0.0;
      for (int s = 0; s < c.nsteps; ++s) {
        sbm_sec += rank.step().fsbm.wall_total_sec;
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
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) { return model::run_main(run, argc, argv); }
