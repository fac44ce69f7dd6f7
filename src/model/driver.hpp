#pragma once
// The model driver: a mini-WRF time loop per rank, and run helpers that
// tie decomposition, dynamics, microphysics, devices, and observability
// together the way the paper's experiments are structured.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dyn/rk3.hpp"
#include "fsbm/fast_sbm.hpp"
#include "io/snapshot.hpp"
#include "model/case_conus.hpp"
#include "model/config.hpp"
#include "model/halo.hpp"
#include "obs/registry.hpp"
#include "par/simpi.hpp"

namespace wrf::prof {
/// Empty tag kept for source compatibility with the frozen benchmark
/// harness in wrfbench/, which still passes a Profiler to the three
/// forwarding overloads below.  Timing lives in obs spans (OBS_SPAN);
/// nothing else may use this type (scripts/ci.sh fences it).
struct Profiler {};
}  // namespace wrf::prof

namespace wrf::model {

/// Aggregated result of one rank's (or one run's) stepping.
struct StepStats {
  fsbm::FsbmStats fsbm;
  dyn::Rk3Stats dyn;
  double wall_sec = 0.0;
  double halo_wall_sec = 0.0;
  std::uint64_t halo_bytes = 0;

  void merge(const StepStats& o) {
    fsbm.merge(o.fsbm);
    dyn.tend.cells += o.dyn.tend.cells;
    dyn.tend.flops += o.dyn.tend.flops;
    dyn.update.cells += o.dyn.update.cells;
    dyn.update.flops += o.dyn.update.flops;
    wall_sec += o.wall_sec;
    halo_wall_sec += o.halo_wall_sec;
    halo_bytes += o.halo_bytes;
  }
};

/// One rank's model instance: owns the patch state, RK3 transport, FSBM
/// scheme, and (for offloaded versions) the simulated device.
class RankModel {
 public:
  /// `ctx` may be null for single-rank runs (halo exchange becomes a
  /// pure boundary fill).
  RankModel(const RunConfig& config, const grid::Patch& patch,
            par::RankCtx* ctx);

  /// Initialize the synthetic CONUS case.
  void init();

  /// One model step: halo-exchanged RK3 advection, then fast_sbm,
  /// inside one "step/solve_interval" span (Table I's denominator).
  StepStats step();
  /// Forwards to step(); callable from wrfbench/ only.
  StepStats step(prof::Profiler&);

  fsbm::MicroState& state() noexcept { return state_; }
  const fsbm::MicroState& state() const noexcept { return state_; }
  gpu::Device* device() noexcept { return device_.get(); }
  const fsbm::FastSbm& scheme() const noexcept { return *fsbm_; }
  const grid::Patch& patch() const noexcept { return patch_; }

  /// Snapshot of this rank's computational region (qv, temp, per-species
  /// condensate, precip) for diffstate verification.
  io::Snapshot snapshot() const;

 private:
  friend struct RankHaloPhases;  // the dyn::HaloPhases adapter (driver.cpp)

  /// Phase 1 of the per-stage halo refresh: pack + post the whole field
  /// set through the HaloExchange plan (nothing waited on).
  void halo_begin(fsbm::MicroState& s, StepStats* st);
  /// Phase 2: wait + unpack, then domain-edge boundary fill.
  void halo_finish(fsbm::MicroState& s, StepStats* st);

  /// res=persist: delegate to FastSbm::mark_transport_writes (an RK3
  /// stage update rewrote qv and every bin field; any read-coherence
  /// h2d flush is charged into `st->fsbm`).  Called before each halo
  /// round after the first (so begin() flushes the strips the previous
  /// stage wrote) and once after the final stage.
  void mark_advection_writes(StepStats* st);

  RunConfig config_;
  grid::Patch patch_;
  par::RankCtx* ctx_;
  fsbm::MicroState state_;
  std::unique_ptr<gpu::Device> device_;
  /// The rank's execution space (the `exec=` knob): dispatches every
  /// host loop nest — physics, sedimentation, advection, halo pack.
  std::unique_ptr<exec::ExecSpace> exec_space_;
  std::unique_ptr<fsbm::FastSbm> fsbm_;
  std::unique_ptr<dyn::Rk3> rk3_;
  /// The rank's halo plan: qv + every bin field, one round per RK3
  /// stage, tags a pure function of (round, field, side).
  std::unique_ptr<HaloExchange> halo_;
  dyn::AnalyticWinds winds_;
};

/// Result of a complete multi-rank run.
struct RunResult {
  StepStats totals;                  ///< summed over ranks and steps
  par::RunStats comm;                ///< simpi counters
  double wall_sec = 0.0;             ///< wall time of the whole run
  std::vector<io::Snapshot> snapshots;  ///< per-rank final snapshots
  std::optional<gpu::KernelStats> last_coal_kernel;
  std::uint64_t pool_bytes_per_rank = 0;
  /// Device bytes pinned by res=persist field residency (0 under
  /// res=step); reported next to pool_bytes_per_rank by the benches.
  std::uint64_t resident_bytes_per_rank = 0;

  /// Kernel launches issued across all ranks and steps, and the modeled
  /// fixed launch latency they paid — what cross-pass fusion (`fuse=`)
  /// reduces with the physics bitwise unchanged.  Convenience views of
  /// totals.fsbm so benches need no device introspection.
  std::uint64_t kernel_launches() const noexcept {
    return totals.fsbm.kernel_launches;
  }
  double launch_latency_ms() const noexcept {
    return totals.fsbm.launch_latency_ms;
  }

  /// exec=hetero: fraction of coal-pass cells routed to the device shard
  /// (0 when the run never split — any other exec, or host-only
  /// versions).  Per-shard cell counts and wall seconds live in
  /// totals.fsbm.shard_*; this is the ratio the hetero bench tracks.
  double device_shard_fraction() const noexcept {
    const std::uint64_t total =
        totals.fsbm.shard_cells_device + totals.fsbm.shard_cells_host;
    return total > 0
               ? static_cast<double>(totals.fsbm.shard_cells_device) / total
               : 0.0;
  }

  /// publish() contract (obs/registry.hpp): fold the whole run into
  /// `reg` — totals.fsbm and comm via their own publish() verbs, the
  /// dynamics/halo counters, and run-level gauges (wall seconds, pool
  /// and resident bytes).  Counters accumulate, so metric totals equal
  /// the struct fields exactly (gated in tests/test_obs.cpp).
  void publish(obs::Registry& reg) const;
};

/// Run `config.nsteps` steps on `config.nranks()` simpi ranks and return
/// aggregated statistics plus per-rank final snapshots.
RunResult run_simulation(const RunConfig& config);

/// Single-rank convenience (patch = whole domain, no messaging).
RunResult run_single(const RunConfig& config);

/// Forward to the overloads above; callable from wrfbench/ only.
RunResult run_simulation(const RunConfig& config, prof::Profiler&);
RunResult run_single(const RunConfig& config, prof::Profiler&);

/// FNV-1a fingerprint over every snapshot variable (names + float
/// payload bits) of a run.  Two runs of the same RunConfig hash equal
/// iff their final states are bitwise identical — the determinism gate
/// the forecast service (src/svc) holds every scheduled job to against
/// a standalone run of the same config.
std::uint64_t state_hash(const RunResult& result);

}  // namespace wrf::model
