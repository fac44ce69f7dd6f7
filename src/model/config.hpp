#pragma once
// Run configuration: the namelist of the mini model.

#include <cstdint>
#include <string>

#include "dyn/rk3.hpp"
#include "exec/exec.hpp"
#include "exec/passgraph.hpp"
#include "fsbm/fast_sbm.hpp"
#include "gpu/device.hpp"
#include "grid/decomp.hpp"
#include "mem/residency.hpp"
#include "obs/trace.hpp"
#include "tune/tune.hpp"

namespace wrf::model {

/// Everything needed to reproduce one run.  Defaults describe a
/// scaled-down CONUS-12km thunderstorm case; `conus12km_full()` gives
/// the paper's 425 x 300 x 50 grid (for the performance model — running
/// it functionally is possible but slow).
struct RunConfig {
  // Grid.
  int nx = 64;
  int ny = 48;
  int nz = 24;
  double dx = 12000.0;  ///< 12 km horizontal spacing
  double dz = 400.0;

  // Time.
  double dt = 5.0;     ///< seconds, the paper's CONUS-12km step
  int nsteps = 6;

  // Microphysics.
  int nkr = 33;
  fsbm::Version version = fsbm::Version::kV1LookupOnDemand;
  fsbm::FsbmParams fsbm_params;

  /// How host loop nests are dispatched within a rank (WRF's OpenMP
  /// layer): serial | threads[:N] | device | hetero[:N].  Independent of
  /// `version`, which picks which FSBM passes are *offloaded*; `exec`
  /// parallelizes whatever stays on the host (physics for v0/v1,
  /// sedimentation, advection, halo pack/unpack).  hetero[:N] adds a
  /// predicate split of the offloaded collision pass: coal-active row
  /// tiles go to the device shard, the cheap remainder runs on an
  /// N-thread host shard concurrently, with shard-granular transfers
  /// (bitwise identical to device and threads:N — tests/test_exec.cpp).
  /// Parsed, printed and validated by the knob table (model/knobs.hpp),
  /// as are the knobs below.
  exec::ExecConfig exec;

  /// The `halo=` knob: sync posts and completes each stage's exchange
  /// before any tendency; overlap computes interior tiles between the
  /// HaloExchange begin/finish phases (bitwise-identical results —
  /// asserted in tests/test_halo_overlap.cpp).
  dyn::HaloMode halo_mode = dyn::HaloMode::kSync;

  /// The `phys=` knob: bin runs the full FSBM chain in every cell (the
  /// default); bulk runs the corrected Kessler scheme everywhere;
  /// hybrid adapts per cell — active/precipitating cells run the bin
  /// chain, the calm remainder runs Kessler, with hysteresis so cells
  /// don't flap (fsbm/hybrid.hpp).  phys=hybrid with an all-bin
  /// fidelity override is bitwise identical to phys=bin — asserted in
  /// tests/test_hybrid.cpp.  Tunables live in fsbm_params.hybrid.
  fsbm::PhysScheme phys = fsbm::PhysScheme::kBin;

  /// The `res=` knob: step re-maps every offloaded field h2d/d2h around
  /// each collision launch (the paper's as-ported behavior); persist
  /// keeps the fields resident on the device across steps with per-field
  /// dirty tracking, so steady-state traffic shrinks to dirty strips
  /// (bitwise-identical state and physics stats either way — asserted in
  /// tests/test_exec.cpp).  A no-op for the host-only versions.
  mem::ResidencyMode res = mem::ResidencyMode::kStep;

  /// The `fuse=` knob: cross-pass kernel fusion (exec/passgraph.hpp).
  /// auto fuses adjacent device passes whose legality the analyzer
  /// proves over their embedded kernel sources (cond+coal when
  /// offload_condensation is on); off keeps one launch per pass.
  /// Bitwise-identical state and physics stats either way — asserted in
  /// tests/test_fusion.cpp.
  exec::FuseMode fuse = exec::FuseMode::kOff;

  /// The `obs=` knob: off records nothing (bitwise identical to a build
  /// without the hooks — asserted in tests/test_obs.cpp); metrics
  /// collects the per-step time series + metric registry and writes
  /// metrics JSONL; trace additionally records spans for every pass
  /// dispatch, halo round, transfer, kernel launch, and fidelity flip,
  /// and writes Chrome trace-event JSON (Perfetto-loadable).  Neither
  /// mode changes physics.
  obs::ObsConfig obs;

  /// The `tune=` knob: off runs the knobs exactly as set (the default);
  /// file:<path> loads a tuned.json artifact (src/tune) and overwrites
  /// the performance-neutral knobs (exec/halo/res/fuse) with the
  /// entry matching this config's tune::shape_key, erroring if the file
  /// is missing or malformed; auto does the same from ./tuned.json but
  /// treats a missing file as "not tuned yet" (no-op).  Applying a
  /// tuned entry is bitwise identical to setting the same knobs
  /// explicitly — asserted in tests/test_tune.cpp.
  tune::TuneSpec tune;

  // Decomposition.
  int npx = 2;
  int npy = 2;
  int halo = 3;

  // Device environment (Table II): the paper raises both limits.
  gpu::DeviceSpec device_spec = gpu::DeviceSpec::a100_40gb();
  std::uint64_t stack_bytes = 65536;        ///< NV_ACC_CUDA_STACKSIZE
  std::uint64_t heap_bytes = 64ull << 20;   ///< NV_ACC_CUDA_HEAPSIZE
  int ngpus = 4;                            ///< physical GPUs available

  std::uint64_t seed = 20240911;  ///< case-generator seed (arXiv date)

  int nranks() const noexcept { return npx * npy; }
  grid::Domain domain() const {
    return grid::Domain{Range{1, nx}, Range{1, nz}, Range{1, ny}};
  }
  bool offloaded() const noexcept {
    return version == fsbm::Version::kV2Offload2 ||
           version == fsbm::Version::kV3Offload3 ||
           version == fsbm::Version::kV3NaiveCollapse3;
  }

  /// The paper's full-size test case (Section IV).
  static RunConfig conus12km_full() {
    RunConfig c;
    c.nx = 425;
    c.ny = 300;
    c.nz = 50;
    c.npx = 4;
    c.npy = 4;
    return c;
  }

  /// Validate and throw ConfigError with a precise message on problems.
  void validate() const;

  /// The run header: grid, version, then the knob table's rows (obs=
  /// and tune= only when set).  svc::job_shape_key builds on it.
  std::string describe() const;

  /// The scheme parameters a rank's FastSbm runs with: fsbm_params plus
  /// the run-level knobs (dt, dz, res, fuse, phys) stamped in.
  fsbm::FsbmParams scheme_params() const;
};

}  // namespace wrf::model
