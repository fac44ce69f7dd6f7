#pragma once
// Shared runner for the offload benches (Tables IV, V, VI; Figure 3):
// executes one CONUS-12km rank patch (425x300x50 / 16 ranks) through a
// chosen fast_sbm version and collects both functional measurements and
// the device-model outputs, plus modeled Milan-core times for the parts
// the paper leaves on the CPU.

#include <optional>

#include "bench_common.hpp"

namespace wrf::bench {

struct OffloadMeasurement {
  fsbm::Version version;
  // Modeled Perlmutter times per step, seconds.
  double coal_loop_sec = 0;   ///< collision section (CPU or kernel+maps)
  double fast_sbm_sec = 0;    ///< nucleation+condensation+sed + coal
  double overall_sec = 0;     ///< + advection + halo comm
  // Raw pieces.
  double kernel_ms = 0, h2d_ms = 0, d2h_ms = 0;
  std::optional<gpu::KernelStats> kernel;
  // Functional wall time on this host, for the record.
  double wall_step_sec = 0;
  fsbm::FsbmStats fsbm_stats;
  double adv_flops = 0;
};

inline OffloadMeasurement run_conus_rank(fsbm::Version v) {
  model::RunConfig cfg = conus_rank_patch(v, /*nsteps=*/1);
  const model::RunResult res = model::run_single(cfg);

  OffloadMeasurement m;
  m.version = v;
  m.fsbm_stats = res.totals.fsbm;
  m.wall_step_sec = res.wall_sec / cfg.nsteps;
  m.adv_flops =
      (res.totals.dyn.tend.flops + res.totals.dyn.update.flops) / cfg.nsteps;

  const perfmodel::CpuSpec cpu = perfmodel::CpuSpec::milan();
  const auto& f = res.totals.fsbm;
  const double host_phys_sec =
      cpu.seconds_for_flops(f.cond_flops + f.nucl_flops + f.sed_flops) /
      cfg.nsteps;

  if (res.last_coal_kernel) {
    m.kernel = res.last_coal_kernel;
    m.kernel_ms = res.last_coal_kernel->modeled_time_ms;
    m.h2d_ms = f.h2d_ms / cfg.nsteps;
    m.d2h_ms = f.d2h_ms / cfg.nsteps;
    // The collision-loop timing is the target-region execution time;
    // the bin-field maps belong to the enclosing per-step data region
    // and are charged to fast_sbm (identical across v2/v3, as in the
    // paper where Table V isolates the kernel change).
    m.coal_loop_sec = m.kernel_ms / 1e3;
    m.fast_sbm_sec =
        host_phys_sec + m.coal_loop_sec + (m.h2d_ms + m.d2h_ms) / 1e3;
  } else {
    m.coal_loop_sec = cpu.seconds_for_flops(f.coal_flops) / cfg.nsteps;
    m.fast_sbm_sec = host_phys_sec + m.coal_loop_sec;
  }

  const perfmodel::NetworkSpec net = perfmodel::NetworkSpec::slingshot();
  const double comm_sec = net.seconds_for(8, 30 << 20, 16);
  m.overall_sec =
      m.fast_sbm_sec + cpu.seconds_for_flops(m.adv_flops) + comm_sec;
  return m;
}

/// Measured v0/v1 cost ratios at bench scale (wall time of the
/// functional code).  The modeled cumulative rows of Tables IV/V derive
/// v0's time as v1's modeled time scaled by these measured ratios — our
/// synthetic spectra are sparser than a real storm's, so deriving v0
/// from flop counts alone would overweight the kernals_ks fill.
struct V0V1Ratio {
  double fast_sbm = 1.0;
  double overall = 1.0;
};

inline V0V1Ratio measure_v0_v1_ratio() {
  auto one = [&](fsbm::Version v, double* fast, double* overall) {
    model::RunConfig cfg = bench_case(v, 2);
    const model::RunResult res = model::run_simulation(cfg);
    *fast = res.totals.fsbm.wall_total_sec;
    *overall = res.wall_sec;
  };
  double f0, o0, f1, o1;
  one(fsbm::Version::kV0Baseline, &f0, &o0);
  one(fsbm::Version::kV1LookupOnDemand, &f1, &o1);
  return V0V1Ratio{f0 / f1, o0 / o1};
}

}  // namespace wrf::bench
