// Table III reproduction: speedups from removing kernals_ks (v0 -> v1).
//
// Paper:                current   cumulative
//   fast_sbm             1.83x      1.83x
//   overall              1.42x      1.42x
//
// Both versions run on the CPU, so this bench reports *real wall time*
// of the functional implementation (per model step), plus the modeled
// Milan-core times from the work counters for cross-checking.

#include "bench_common.hpp"

using namespace wrf;

int main() {
  bench::print_config_header("Table III — kernals_ks removal speedups");

  struct Meas {
    double fast_sbm_sec = 0, overall_sec = 0, coal_flops = 0;
  };
  auto measure = [&](fsbm::Version v) {
    model::RunConfig cfg = bench::bench_case(v, 3);
    const model::RunResult res = model::run_simulation(cfg);
    Meas m;
    m.fast_sbm_sec = res.totals.fsbm.wall_total_sec / cfg.nsteps;
    m.overall_sec = res.wall_sec / cfg.nsteps;
    m.coal_flops = res.totals.fsbm.coal_flops;
    return m;
  };

  const Meas v0 = measure(fsbm::Version::kV0Baseline);
  const Meas v1 = measure(fsbm::Version::kV1LookupOnDemand);

  const double su_sbm = v0.fast_sbm_sec / v1.fast_sbm_sec;
  const double su_all = v0.overall_sec / v1.overall_sec;

  std::printf("measured wall time per step (functional code, 4 simpi "
              "ranks on this host):\n");
  std::printf("  %-12s %12s %12s\n", "", "v0-baseline", "v1-lookup");
  std::printf("  %-12s %12.4f %12.4f  s\n", "fast_sbm", v0.fast_sbm_sec,
              v1.fast_sbm_sec);
  std::printf("  %-12s %12.4f %12.4f  s\n\n", "overall", v0.overall_sec,
              v1.overall_sec);

  const bench::PaperRow rows[] = {
      {"fast_sbm speedup (current)", 1.83, su_sbm},
      {"overall speedup (current)", 1.42, su_all},
  };
  bench::print_rows("Table III (measured):", rows, 2);

  std::printf("mechanism: v0 computes all 20*nkr^2 kernel entries per coal "
              "cell;\nv1 computes only touched entries "
              "(coal FLOPs v0/v1 = %.2fx)\n",
              v0.coal_flops / v1.coal_flops);
  std::printf("\nshape check: fast_sbm speedup > 1.3 (%s), overall > 1.15 "
              "(%s)\n",
              su_sbm > 1.3 ? "yes" : "NO", su_all > 1.15 ? "yes" : "NO");
  return 0;
}
