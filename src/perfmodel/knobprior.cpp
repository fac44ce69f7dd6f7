#include "perfmodel/knobprior.hpp"

#include <algorithm>
#include <cmath>

namespace wrf::perfmodel {
namespace {

// Documented modeling constants.  Like the rest of perfmodel these are
// order-of-magnitude mechanisms, not fitted values — the tuner's
// measured rungs absorb the error; the prior only has to get the
// ordering of the obviously-bad tail right.

// Fraction of DP peak the branchy, lookup-heavy collision kernel
// achieves on the device (Table VI puts the real kernel deep in the
// latency-bound regime).
constexpr double kDeviceKernelEfficiency = 0.10;

// Per-pass dispatch overhead of the host thread pool (wake + join).
constexpr double kThreadDispatchSeconds = 30.0e-6;

// Host passes dispatched per step (advection, cond/nucl, coal, sed) —
// the granularity the thread-pool overhead applies at.
constexpr double kHostPassesPerStep = 4.0;

// Imperfect scaling of the host pool on this code (memory-bound tails,
// serial pack/unpack): speedup = T^alpha.
constexpr double kThreadScalingExponent = 0.85;

// res=persist still moves halo strips and diagnostics each step; model
// it as a small residual fraction of the full res=step traffic.
constexpr double kPersistResidualTraffic = 0.05;

// fuse=auto removes inter-pass d2h+h2d bounces for fused neighbors;
// the analyzer typically fuses cond+coal, saving roughly this fraction
// of the per-step traffic under res=step (under persist there is next
// to nothing left to save).
constexpr double kFuseTrafficSaving = 0.20;

// halo=overlap hides exchange behind interior compute; only part of the
// step is overlappable (the exchange must complete before the next RK3
// substage consumes the halo).
constexpr double kOverlapHideableFraction = 0.5;

double effective_threads(const exec::ExecConfig& e, int hw_threads) {
  int requested = 1;
  switch (e.kind) {
    case exec::ExecKind::kSerial:
    case exec::ExecKind::kDevice:
      return 1.0;
    case exec::ExecKind::kThreads:
    case exec::ExecKind::kHetero:
      requested = e.nthreads > 0 ? e.nthreads : hw_threads;
      break;
  }
  const int t = std::min(std::max(requested, 1), std::max(hw_threads, 1));
  if (t <= 1) return 1.0;
  return std::pow(static_cast<double>(t), kThreadScalingExponent);
}

}  // namespace

double knob_prior_step_seconds(const KnobWork& w, const exec::ExecConfig& e,
                               dyn::HaloMode halo,
                               mem::ResidencyMode res, exec::FuseMode fuse,
                               const CpuSpec& cpu, const NetworkSpec& net,
                               const gpu::DeviceSpec& dev, int hw_threads) {
  const double threads = effective_threads(e, hw_threads);
  const bool on_device = w.offloaded && (e.kind == exec::ExecKind::kDevice ||
                                         e.kind == exec::ExecKind::kHetero);

  // --- Host compute ------------------------------------------------
  double host_flops = w.cond_nucl_flops + w.sed_flops + w.adv_flops;
  if (!on_device) host_flops += w.coal_flops;

  double t_host = cpu.seconds_for_flops(host_flops) / threads;
  if (threads > 1.0 || e.kind == exec::ExecKind::kHetero) {
    t_host += kHostPassesPerStep * kThreadDispatchSeconds;
  }

  // --- Device compute + transfers ----------------------------------
  double t_device = 0.0;
  if (on_device) {
    double t_kernel = w.coal_flops /
                      (dev.peak_dp_gflops * 1.0e9 * kDeviceKernelEfficiency);
    double launches = std::max(w.kernel_launches, 1.0);
    if (fuse == exec::FuseMode::kAuto && launches > 1.0) launches -= 1.0;
    t_kernel += launches * dev.kernel_launch_us * 1e-6;

    double xfer_bytes = w.step_h2d_bytes + w.step_d2h_bytes;
    if (res == mem::ResidencyMode::kPersist) {
      xfer_bytes *= kPersistResidualTraffic;
    } else if (fuse == exec::FuseMode::kAuto) {
      xfer_bytes *= 1.0 - kFuseTrafficSaving;
    }
    if (e.kind == exec::ExecKind::kHetero) {
      // The device shard only stages the coal-active fraction.
      xfer_bytes *= std::min(1.0, w.coal_active_fraction + 0.1);
    }
    t_device = t_kernel + xfer_bytes / (dev.host_link_gbs * 1.0e9);
  }

  // hetero runs the host passes and the device coal shard concurrently:
  // the step ends when the slower side does.  device serializes.
  double t_compute;
  if (on_device && e.kind == exec::ExecKind::kHetero) {
    t_compute = std::max(t_host, t_device);
  } else {
    t_compute = t_host + t_device;
  }

  // --- Halo exchange -----------------------------------------------
  double t_halo = 0.0;
  if (w.nranks > 1 && w.halo_messages > 0) {
    t_halo = net.seconds_for(static_cast<std::uint64_t>(w.halo_messages),
                             static_cast<std::uint64_t>(w.halo_bytes),
                             w.nranks);
    if (halo == dyn::HaloMode::kOverlap) {
      t_halo = std::max(0.0, t_halo - kOverlapHideableFraction * t_compute);
    }
  }

  return t_compute + t_halo;
}

}  // namespace wrf::perfmodel
