#pragma once
// The fast_sbm driver: FSBM's per-step entry point, in the paper's four
// optimization stages.
//
//   kV0Baseline       — Listing 1 as found: one serial i/k/j loop doing
//                       nucleation, condensation, and collisions per
//                       cell, with `kernals_ks` refilling all 20 global
//                       collision arrays for every cell.
//   kV1LookupOnDemand — Section VI-A: kernals_ks and the global arrays
//                       deleted; collision code calls get_cw on demand.
//   kV2Offload2       — Section VI-B: loop fission isolates the
//                       collision call behind a predicate array
//                       (`call_coal_bott_new`), and the outer 2 loops are
//                       offloaded (`collapse(2)`); coal_bott_new keeps
//                       its automatic arrays (device-heap workspace).
//   kV3Offload3       — Section VI-C: automatic arrays hoisted into
//                       persistent device pools (`temp_arrays` module),
//                       enabling collapse(3).
//
// All versions compute the same physics; v2/v3 run their collision pass
// through a gpu::Device (functional execution + performance model).
// A fifth mode, kV3NaiveCollapse3, offloads collapse(3) while keeping
// automatic arrays — it exists to reproduce the CUDA memory error the
// paper hit before introducing the pools.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "exec/exec.hpp"
#include "exec/passgraph.hpp"
#include "fsbm/coal_bott.hpp"
#include "fsbm/hybrid.hpp"
#include "fsbm/kernels.hpp"
#include "fsbm/nucleation.hpp"
#include "fsbm/onecond.hpp"
#include "fsbm/sedimentation.hpp"
#include "fsbm/state.hpp"
#include "gpu/device.hpp"
#include "mem/residency.hpp"
#include "obs/registry.hpp"

namespace wrf::fsbm {

enum class Version : int {
  kV0Baseline = 0,
  kV1LookupOnDemand = 1,
  kV2Offload2 = 2,
  kV3Offload3 = 3,
  kV3NaiveCollapse3 = 4,  ///< reproduces the §VI-B memory error
};

const char* version_name(Version v);

/// Tunable parameters of the scheme (paper values as defaults).
struct FsbmParams {
  double dt = 5.0;               ///< CONUS-12km time step, s
  double t_active = 193.15;      ///< Listing 1: cells colder than this skip
  double t_coal = 223.15;        ///< Listing 1: collision gate (TT >)
  CoalConfig coal;
  CondConfig cond;
  NuclConfig nucl;
  SedConfig sed;
  /// Registers/thread of the offloaded collision kernel; limits
  /// occupancy at full collapse (Table VI's 35.67%).
  int coal_regs_per_thread = 90;
  /// The Fortran routine declares ~30 automatic bin arrays (Listing 7
  /// shows the first few); this inventory sets the per-thread device
  /// workspace for the heap check.
  int automatic_array_count = 30;

  /// §VIII extension ("the loops calling condensation routines are
  /// currently being offloaded using a similar approach"): when true,
  /// the offloaded versions also run nucleation+condensation as a
  /// second device kernel (fissioned behind its own predicate), leaving
  /// only sedimentation on the host.
  bool offload_condensation = false;
  int cond_regs_per_thread = 72;

  /// The `fuse=` knob (see exec/passgraph.hpp): cross-pass kernel
  /// fusion.  kAuto fuses adjacent device passes the analyzer proves
  /// legal — cond+coal when offload_condensation is on — into one
  /// launch, skipping the inter-pass transfer round-trip; kOff keeps
  /// the paper's one-launch-per-pass layout.  Both modes produce
  /// bitwise-identical state and physics statistics.
  exec::FuseMode fuse = exec::FuseMode::kOff;

  /// The `phys=` knob (fsbm/hybrid.hpp): bin runs the full FSBM chain
  /// everywhere (the default); bulk runs the Kessler scheme everywhere;
  /// hybrid adapts per cell through the fidelity field.  phys=hybrid
  /// with hybrid.override_mode == kAllBin is bitwise identical to
  /// phys=bin — state, physics stats, and transfer traffic (asserted in
  /// tests/test_hybrid.cpp).
  PhysScheme phys = PhysScheme::kBin;
  HybridConfig hybrid;

  /// The `res=` knob (offloaded versions only; a no-op for v0/v1).
  /// kStep opens a per-launch `target data` region around every
  /// collision pass — all fields h2d before, bin fields d2h after, the
  /// paper's as-ported behavior.  kPersist keeps the fields resident on
  /// the device across steps with per-field dirty tracking, so steady-
  /// state transfers shrink to what actually changed hands (see
  /// mem/residency.hpp and the README data-environment section).
  mem::ResidencyMode residency = mem::ResidencyMode::kStep;
};

/// Per-call statistics (work counters drive src/perfmodel).
struct FsbmStats {
  std::uint64_t cells_active = 0;      ///< passed the 193.15 K gate
  std::uint64_t cells_coal = 0;        ///< called coal_bott_new
  std::uint64_t kernel_table_fills = 0;///< v0: kernals_ks invocations
  std::uint64_t kernel_entries = 0;    ///< cw entries computed (any path)
  std::uint64_t coal_interactions = 0;
  double coal_flops = 0.0;
  double cond_flops = 0.0;
  double nucl_flops = 0.0;
  double sed_flops = 0.0;
  /// CFL substeps of the sedimentation solver (SedStats summed over
  /// columns and species).
  std::uint64_t sed_substeps = 0;
  double surface_precip = 0.0;
  /// Host wall seconds of the whole call and of the collision section.
  double wall_total_sec = 0.0;
  double wall_coal_sec = 0.0;
  /// Kernel launches issued during the call (offloaded passes plus any
  /// exec=device nest dispatches) and the modeled fixed launch latency
  /// they paid (launches * DeviceSpec::kernel_launch_us).  Cross-pass
  /// fusion's first win is making these drop with the physics bitwise
  /// unchanged; surfaced here so benches need no device introspection.
  std::uint64_t kernel_launches = 0;
  double launch_latency_ms = 0.0;
  /// Device-side numbers (v2/v3 only).
  std::optional<gpu::KernelStats> coal_kernel;
  std::optional<gpu::KernelStats> cond_kernel;  ///< §VIII extension
  double h2d_ms = 0.0;
  double d2h_ms = 0.0;
  /// Transfer traffic of the microphysics passes in bytes and transfer
  /// counts (gpu::TransferStats deltas) — what the residency sweep
  /// reports; res=persist collapses these while the physics stays
  /// bitwise identical.
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  /// Heterogeneous dispatch (exec=hetero): the coal pass's predicate
  /// split.  Cells routed to the device shard (tiles containing at least
  /// one coal-active cell) vs the predicate-false remainder handled by
  /// the host shard, and each shard's wall seconds (the two overlap, so
  /// the pass wall is ~max, not the sum).  Zero under every other exec.
  std::uint64_t shard_cells_device = 0;
  std::uint64_t shard_cells_host = 0;
  double shard_wall_device_sec = 0.0;
  double shard_wall_host_sec = 0.0;
  /// Hybrid microphysics (phys=bulk|hybrid): the fidelity census after
  /// each step's fidelity pass (cells summed over steps), the fidelity
  /// transitions that fired, and the bulk population's work.  All zero
  /// under phys=bin.  `bulk_precip` is also included in surface_precip
  /// (both populations share the SedStats kg/kg column-equivalent units
  /// contract), so conservation checks read one number.
  std::uint64_t cells_bin = 0;
  std::uint64_t cells_bulk = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  double bulk_flops = 0.0;
  double bulk_precip = 0.0;

  /// Charge the device transfer delta [t0, now) into these counters.
  /// The link rate is direction-independent, so the modeled-ms delta
  /// splits exactly in proportion to the byte deltas (a one-direction
  /// bracket attributes its full ms to that direction, bitwise).
  void charge_transfer_delta(const gpu::TransferStats& t0,
                             const gpu::TransferStats& now);

  void merge(const FsbmStats& o);

  /// publish() contract (obs/registry.hpp): add every counter above
  /// into `reg` under the wrf_fsbm_*/wrf_xfer_*/wrf_shard_*/
  /// wrf_fidelity_* names, byte-exact (e.g. the
  /// wrf_xfer_bytes_total{dir="h2d"} counter receives exactly
  /// h2d_bytes, so registry totals reconcile with this struct and with
  /// gpu::TransferStats — the gate in tests/test_obs.cpp).  Publishing
  /// N partials accumulates like merging them first.
  void publish(obs::Registry& reg) const;
};

/// One rank's FSBM scheme instance.  Owns the kernel tables and the v3
/// device pools.  v0's "global" collision arrays became per-executing-
/// thread blocks when the host passes moved onto the exec layer (the
/// shared Fortran globals are exactly what Codee flagged as blocking
/// parallelization; the per-cell refill cost they imply is preserved).
///
/// Statistics are accumulated into per-tile partials and merged in tile
/// order (FsbmStats::merge), so a threaded pass produces bitwise the
/// same stats as a serial one — no mutex, no atomics on the host path.
class FastSbm {
 public:
  /// `device` is required for the offloaded versions and ignored
  /// otherwise.  The device's heap/stack limits control whether the
  /// naive collapse(3) reproduction throws (as on Perlmutter before
  /// NV_ACC_CUDA_HEAPSIZE was raised).
  ///
  /// `exec` selects how the *host* loop nests (pass_physics for v0/v1,
  /// sedimentation) are dispatched; nullptr means exec::serial().  The
  /// offloaded collision/condensation passes always go through the
  /// device, independent of `exec`.
  FastSbm(const grid::Patch& patch, int nkr, Version version,
          FsbmParams params = {}, gpu::Device* device = nullptr,
          exec::ExecSpace* exec = nullptr);

  /// Advance microphysics one step over the patch's computational range.
  /// Spans: "fsbm/fast_sbm" brackets the whole call (and the
  /// wall_total_sec clock pair), every pass dispatch and device launch
  /// nests inside it — the paper's NVTX annotation points.
  FsbmStats step(MicroState& state);

  Version version() const noexcept { return version_; }
  const KernelTables& tables() const noexcept { return tables_; }
  const FsbmParams& params() const noexcept { return params_; }

  /// Device bytes the v3 pools occupy (0 for host versions); used by the
  /// perfmodel's ranks-per-GPU memory analysis.
  std::uint64_t pool_bytes() const noexcept { return pool_bytes_; }

  /// Field registrations of this scheme's device data environment
  /// (all kInvalidField for host-only versions).
  struct ResidencyFields {
    ResidencyFields() { ff.fill(mem::kInvalidField); }
    mem::FieldId qv = mem::kInvalidField;
    mem::FieldId temp = mem::kInvalidField;
    mem::FieldId pres = mem::kInvalidField;
    mem::FieldId call_coal = mem::kInvalidField;
    std::array<mem::FieldId, kNumSpecies> ff;
  };
  const ResidencyFields& residency_fields() const noexcept { return ids_; }

  /// The device data environment the offloaded passes transfer through
  /// (nullptr for host-only versions).  Under res=persist the model
  /// driver binds this region into the halo exchange so unpacked shell
  /// strips mark sub-field dirty ranges.
  mem::DataRegion* region() noexcept { return region_; }

  /// Bytes pinned resident on the device under res=persist (0 under
  /// res=step, where maps are per-launch transients).
  std::uint64_t resident_bytes() const noexcept {
    return region_ != nullptr ? region_->resident_bytes() : 0;
  }

  /// The per-step pass chain and its fusion schedule (the `fuse=`
  /// knob), built once at construction — field footprints and tile
  /// plans are static per run.  Exposed so tests and benches can
  /// inspect which adjacent pairs fused and the analyzer's reasons.
  const exec::PassGraph& pass_graph() const noexcept { return graph_; }
  const exec::Schedule& schedule() const noexcept { return schedule_; }

  /// The fusion schedule a scheme constructed with these arguments runs
  /// under exec kind `exec` — the same pass-chain declaration and
  /// analyzer verdicts as the constructor's, without building a scheme
  /// or a device.  The tuner asks it whether fuse=auto can fire.
  static exec::Schedule plan_schedule(const grid::Patch& patch, int nkr,
                                      Version version,
                                      const FsbmParams& params,
                                      exec::ExecKind exec);

  /// res=persist: the dynamics transport (an RK3 stage update) rewrote
  /// qv and every bin field — stale the device copies (host exec
  /// spaces) or advance them (exec=device models the tendency/update
  /// nests as device kernels, whose read-coherence flush may move h2d
  /// bytes; they are charged into `st` when given).  The model driver
  /// calls this before each halo round after the first and once after
  /// the final stage.  No-op unless res=persist.
  void mark_transport_writes(FsbmStats* st = nullptr);

 private:
  /// Step prologue under phys=bulk|hybrid: resolve each cell's fidelity
  /// for this step (promote/demote transitions with hysteresis, or the
  /// override), apply the bin<->bulk transforms, and re-collapse cells
  /// that stay bulk (advection smears neighbor bins into them).  Never
  /// runs under phys=bin.
  void pass_fidelity(MicroState& state, FsbmStats& st);

  /// One bulk cell's physics (the Kessler scheme on the carried
  /// moments); shares the t_active inertness gate with the bin body.
  /// Returns the flops run (0 when the gate skipped the cell).
  double physics_bulk_cell(MicroState& state, int i, int k, int j);

  /// True when the whole computational column at (i, j) is bulk
  /// fidelity — the sedimentation passes then run the Kessler column
  /// solver on the rain carrier instead of the liquid bin solver.
  bool column_all_bulk(int i, int j) const;

  /// Kessler sedimentation of one bulk column's rain carrier: updates
  /// the carrier bins and the work counters, returns the surface precip
  /// so each caller can fold it into `state.precip` and
  /// `surface_precip` in its own accumulation order (the blocked path
  /// routes it through the species-0 slot of its precip matrix to keep
  /// the per-column path's (column, species) order).
  double sediment_bulk_column(MicroState& state, int i, int j,
                              FsbmStats& pt);

  /// Pass 1: nucleation + condensation per cell; fills the coal
  /// predicate for v2/v3 or runs collisions inline for v0/v1.
  void pass_physics(MicroState& state, FsbmStats& st);

  /// Per-launch counters of one device lane; relaxed atomics so lanes
  /// may run on any shard or pool thread.  Each lane counts its subset.
  struct LaneCounters {
    std::atomic<std::uint64_t> interactions{0};  ///< coal
    std::atomic<std::uint64_t> lookups{0};       ///< coal
    std::atomic<std::uint64_t> active{0};        ///< cond
    std::atomic<std::uint64_t> coal_cells{0};    ///< cond: predicate set
    /// cond flops * 1000 as an integer so relaxed adds stay exact; the
    /// bulk-fidelity lanes' Kessler flops apart (phys=bulk|hybrid).
    std::atomic<std::uint64_t> flops_milli{0};
    std::atomic<std::uint64_t> bulk_flops_milli{0};
  };

  /// A device pass's lane descriptor, declared next to its PassNode:
  /// what one lane runs and traces per cell, the kernel resources it
  /// needs, its flop model, and how its counters fold into FsbmStats.
  /// run_device_group composes these lane-wise for a fused group;
  /// pass_coal_hetero launches the collision lane over its shard.
  struct Lane {
    const char* stem = "";  ///< fused kernel name part (onecond_coal_fused)
    int regs_per_thread = 0;
    std::uint64_t workspace_bytes_per_thread = 0;
    void (FastSbm::*run)(MicroState&, int, int, int, LaneCounters&) = nullptr;
    void (FastSbm::*trace)(const MicroState&, int, int, int,
                           std::vector<gpu::AccessEvent>&) const = nullptr;
    /// The launch's flop model, and the fold of the counters (and that
    /// flop total) into the step's stats.
    double (*flops)(const LaneCounters&) = nullptr;
    void (*fold)(const LaneCounters&, double flops, FsbmStats&) = nullptr;
    /// The collision lane: its launch reports under coal_kernel (alone
    /// or fused; otherwise cond_kernel), its group charges
    /// wall_coal_sec, and under res=persist it marks its writes at
    /// predicate-masked bin-slice granularity (mark_coal_writes) instead
    /// of whole fields.
    bool collision = false;
  };

  /// How FastSbm runs one PassGraph node: host passes name their pass
  /// function (dispatched as-is); device passes declare a lane.
  struct PassImpl {
    void (FastSbm::*host)(MicroState&, FsbmStats&) = nullptr;
    Lane lane;
  };

  /// The per-step pass chain: one PassNode per pass (footprint, tile
  /// plan, kernel source) and, by node id, how FastSbm runs it.
  struct PassChain {
    exec::PassGraph graph;
    std::vector<PassImpl> impls;
  };
  static PassChain declare_passes(const grid::Patch& patch, int nkr,
                                  Version version, const FsbmParams& params,
                                  bool exec_device, bool split_coal);

  /// Run one device-shard group of the schedule as one launch: a single
  /// pass, or a fused group whose lanes run every member's body back to
  /// back per cell (fused_passes = group size, max regs, max workspace).
  /// Lanes decode once per collapse order (collapse(3): one cell;
  /// collapse(2): one (k, j) row, i inside).  Every DataRegion verb
  /// derives from the group's footprint:
  ///
  ///   res=step    prologue: map_to every field in the union of reads
  ///               and writes.  epilogue: map_from the union of writes,
  ///               then unmap_all.
  ///   res=persist prologue: update_to the external reads — each node's
  ///               reads that no earlier node in the group writes.
  ///               epilogue: mark each node's writes device-dirty (whole
  ///               fields after the read-coherence flush, or the
  ///               collision lane's masked bin slices), then update_from
  ///               the written fields the next pass reads when that pass
  ///               runs on the host.
  ///
  /// The analyzer's fusion proof (analyzer/fusion.hpp) is the pointwise
  /// condition that makes a fused group bitwise identical to its passes
  /// launched one by one.
  void run_device_group(const std::vector<std::size_t>& group,
                        MicroState& state, FsbmStats& st);

  /// Heterogeneous collision pass (exec=hetero): predicate-split the
  /// pass's row-tile plan, launch node `id`'s lane over only the
  /// device-shard tiles (shard-granular h2d/d2h through the data region)
  /// while the host shard walks the predicate-false remainder
  /// concurrently.
  void pass_coal_hetero(std::size_t id, MicroState& state, FsbmStats& st);

  /// Memory rows (sorted ascending, disjoint) covering the device-shard
  /// tiles of `sp`, in CELLS of the shared scalar geometry — one walk;
  /// callers scale offsets and lengths to each field's per-cell bytes.
  void shard_rows(const exec::SplitPlan& sp, const exec::Range3& range,
                  std::vector<mem::ByteRange>* cell_rows) const;

  void pass_sedimentation(MicroState& state, FsbmStats& st);

  /// The collision lane (Listing 6's body): predicate gate, device-FMA
  /// kernel source, pooled (v3) or stack workspace.
  void coal_run_cell(MicroState& state, int i, int k, int j,
                     LaneCounters& c);

  /// The condensation lane (the §VIII body): predicate refill, activity
  /// gate, nucleation + condensation, writeback.
  void cond_run_cell(MicroState& state, int i, int k, int j,
                     LaneCounters& c);

  /// Memory-access trace of one condensation lane (cache model).
  void emit_cond_trace(const MicroState& state, int i, int k, int j,
                       std::vector<gpu::AccessEvent>& out) const;

  /// Run collisions for one cell: v3 uses its pooled workspace slices,
  /// every other version a stack workspace.
  void coal_cell(MicroState& state, int i, int k, int j,
                 const KernelSource& ks, CoalStats& cst);

  /// Copy state bins into a workspace / back.
  static void load_workspace(const MicroState& s, int i, int k, int j,
                             const CoalWorkspace& w);
  static void store_workspace(MicroState& s, int i, int k, int j,
                              const CoalWorkspace& w);

  /// Emit the memory-access trace one collision iteration generates
  /// (for the device cache model).  Pooled (v3) workspace traffic hits
  /// global memory.
  void emit_coal_trace(const MicroState& state, int i, int k, int j,
                       std::vector<gpu::AccessEvent>& out) const;

  /// The execution space host passes dispatch through (never null).
  exec::ExecSpace& exec_space() const noexcept {
    return exec_ != nullptr ? *exec_ : exec::serial();
  }

  bool persist() const noexcept {
    return region_ != nullptr &&
           params_.residency == mem::ResidencyMode::kPersist;
  }

  /// The region fields a PassNode footprint names ("ff" is the
  /// bin-field family), in registration order; empty without a region.
  std::vector<mem::FieldId> fields_of(
      const std::vector<std::string>& names) const;

  /// Mark the fields a pass wrote: host passes stale the device copy
  /// (host-dirty); passes dispatched on the device (exec=device, or the
  /// offloaded kernels themselves) advance the device copy instead
  /// (device-dirty, after a read-coherence h2d flush of pending host
  /// writes — the kernel consumed current operands).  Any flush bytes
  /// are charged into `st` when given.  No-op unless res=persist.
  void mark_written(const std::vector<mem::FieldId>& ids, bool on_device,
                    FsbmStats* st);

  /// Strip-granular device-dirty marks for the collision kernel's
  /// writes: one bin-slice range per predicate-flagged cell, walked in
  /// memory order so adjacent active cells coalesce.
  void mark_coal_writes(const MicroState& state);

  grid::Patch patch_;
  Version version_;
  FsbmParams params_;
  gpu::Device* device_;
  exec::ExecSpace* exec_;
  /// Offload dispatch wrapper around device_ (launch + transfer
  /// accounting); set iff device_ is set.  Under exec=hetero over the
  /// same device this aliases the HeteroSpace's device shard (one data
  /// region, one launch ledger); otherwise it points at
  /// device_space_owned_.
  exec::DeviceSpace* device_space_ = nullptr;
  std::unique_ptr<exec::DeviceSpace> device_space_owned_;
  /// Set when `exec` is a HeteroSpace: the offloaded coal pass then
  /// predicate-splits across the space's two shards.
  exec::HeteroSpace* hetero_ = nullptr;
  BinGrid bins_;
  KernelTables tables_;
  /// v3's temp_arrays module: pooled per-cell workspaces on the device.
  std::unique_ptr<Field4D<float>> pool_fl1_, pool_g2_, pool_g3_, pool_g4_,
      pool_g5_;
  Field3D<std::uint8_t> call_coal_;  ///< the predicate array of Listing 6
  /// Per-cell fidelity (kFidelityBin/kFidelityBulk) and the demotion
  /// patience counters.  Initialized all-bin / zero; only read or
  /// written when params_.phys != kBin.
  Field3D<std::uint8_t> fidelity_;
  Field3D<std::uint8_t> calm_steps_;
  /// False until the first fidelity pass: the cold-start pass applies
  /// the fidelity rule directly (no demotion patience), so a fresh run
  /// does not spend `demote_patience` steps running every calm cell at
  /// bin fidelity.
  bool fidelity_initialized_ = false;
  std::uint64_t pool_bytes_ = 0;
  /// The device data environment (owned by device_space_); null for
  /// host-only versions.
  mem::DataRegion* region_ = nullptr;
  ResidencyFields ids_;
  /// True when `exec` is a DeviceSpace: host passes are then modeled as
  /// device-resident kernels, so their writes advance the device copy.
  bool exec_device_ = false;
  /// The dt-stamped per-cell configs of the cond and coal bodies.
  CondConfig cond_cfg_;
  NuclConfig nucl_cfg_;
  CoalConfig coal_cfg_;
  /// The per-step pass chain (PassNodes with footprints + embedded
  /// kernel sources), how each node runs, and the fusion schedule under
  /// params_.fuse.
  exec::PassGraph graph_;
  std::vector<PassImpl> impls_;
  exec::Schedule schedule_;
};

}  // namespace wrf::fsbm
