#pragma once
// Knob-configuration prior: price one (exec, halo, res, fuse) knob
// choice from a measured work profile, cheaply enough to rank a whole
// search space without running it.
//
// This is the perfmodel side of the autotuner's prior+corrector split
// (src/tune): the tuner measures ONE probe run of the base config,
// distills it into a KnobWork profile (counted flops and bytes —
// work, not wall time), and prices every candidate configuration with
// the same explicit machine models the Table IV/VII benches use.  The
// prior's job is ordering, not accuracy: it prunes the obviously bad
// corner of the grid, and short measured runs (successive halving)
// correct it on the actual host.  Constants follow the documented
// perfmodel calibration style (see machine.hpp).

#include "dyn/rk3.hpp"
#include "exec/exec.hpp"
#include "exec/passgraph.hpp"
#include "mem/residency.hpp"
#include "perfmodel/machine.hpp"

namespace wrf::perfmodel {

/// Measured work per rank-step, distilled from one probe run of the
/// base configuration (tune::Tuner::probe).
struct KnobWork {
  double cells = 0;             ///< grid cells per rank
  double coal_flops = 0;        ///< collision FLOPs per rank-step
  double cond_nucl_flops = 0;
  double sed_flops = 0;
  double adv_flops = 0;
  double step_h2d_bytes = 0;    ///< per-launch transfer bytes, res=step
  double step_d2h_bytes = 0;
  double halo_bytes = 0;        ///< sent per rank-step
  double halo_messages = 0;
  double kernel_launches = 0;   ///< per rank-step, fuse=off
  /// Fraction of cells inside the coal predicate (the hetero split).
  double coal_active_fraction = 0.15;
  bool offloaded = false;       ///< v2/v3: collision runs on the device
  int nranks = 1;
};

/// Modeled seconds for one rank-step of `work` under the given knobs.
/// Lower is better; only the ORDERING is consumed (tune::Tuner ranks by
/// this, then measures).  `hw_threads` caps the host-thread speedup.
double knob_prior_step_seconds(const KnobWork& work,
                               const exec::ExecConfig& exec,
                               dyn::HaloMode halo,
                               mem::ResidencyMode res, exec::FuseMode fuse,
                               const CpuSpec& cpu, const NetworkSpec& net,
                               const gpu::DeviceSpec& dev, int hw_threads);

}  // namespace wrf::perfmodel
