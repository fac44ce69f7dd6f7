#pragma once
// Collision-coalescence per grid cell, the paper's `coal_bott_new`, run
// on one cell or on up to kCoalLanes cells in lockstep.
//
// A Bott-style flux method on the mass-doubling bin grid: for every
// active (collected bin i, collector bin j) pair of every
// temperature-gated interaction, a number-based collection rate moves
// mass out of both source bins and deposits the coalesced mass into the
// destination class at mass m_i + m_j, split between the two bracketing
// bins so that both mass and number are conserved exactly.
//
// The routine works on a per-cell workspace of bin arrays (`fl1`, `g2`,
// `g3`, ...), mirroring the Fortran original's automatic arrays
// (Listing 7).  Who owns that workspace is precisely the paper's v2/v3
// distinction:
//   * v0-v2: stack ("automatic") arrays — cheap thread-local storage,
//     but per-resident-thread heap demand on the simulated device;
//   * v3: slices of persistent device pools ("temp_arrays" module,
//     Listing 8) — no per-thread allocation, enabling collapse(3), at
//     the price of global-memory traffic for every workspace access
//     (the DRAM increase in Table VI).
//
// Kernel values come through `KernelSource`, which hides the v0
// (precomputed CollisionArrays) vs v1+ (on-demand get_cw) strategies.
//
// Cells run in lockstep, as the device runs them.  The paper's v3 gives
// each cell its own device thread (collapse(3)), so a warp advances 32
// cells' serial bin-update chains side by side.  `coal_bott_lanes` does
// the same for up to kCoalLanes cells on one host core: it interleaves
// their sweeps per (collector j, collected i) pair, each lane with its
// own row mask for the sweep's early exits, its own kernel source and
// its own statistics.  Every lane therefore executes exactly the
// floating-point operations, in exactly the order, of the cell run on
// its own — only independent chains are interleaved, so results are
// bitwise those of a one-cell call.  The sweeps run as an FMA-target
// clone with contraction off when the CPU has FMA (the device kernel's
// std::fma becomes one instruction; no other expression fuses), and as
// a portable clone otherwise; fmaf is correctly rounded, so both give
// the same bits.

#include <cstdint>
#include <span>

#include "fsbm/bins.hpp"
#include "fsbm/kernels.hpp"

namespace wrf::fsbm {

/// Compile-time upper bound on nkr for stack workspaces (the paper
/// discusses extending 33 bins to "a few hundred").
inline constexpr int kMaxNkr = 264;

/// Most cells one lockstep call advances together.  Four independent
/// chains cover the latency of the divisions in each interaction; more
/// lanes only add register pressure.
inline constexpr int kCoalLanes = 4;

/// Abstraction over where kernel values come from.  The pressure
/// weight is computed once, here, per cell.
class KernelSource {
 public:
  /// An empty source, to be assigned a real one before any lookup.
  KernelSource() = default;

  /// v0: read from arrays precomputed by kernals_ks for this cell.
  explicit KernelSource(const CollisionArrays& pre) : pre_(&pre) {}

  /// v1+: compute entries on demand at cell pressure `pres_pa`.
  /// `device_fma` selects the FMA-contracted device arithmetic used by
  /// the offloaded versions (the source of the paper's 3-6-digit
  /// CPU-vs-GPU differences).
  KernelSource(const KernelTables& tables, double pres_pa,
               bool device_fma = false)
      : tables_(&tables), w_(KernelTables::pressure_weight(pres_pa)),
        device_fma_(device_fma) {}

  /// v0's arrays, or null for an on-demand source.
  const CollisionArrays* precomputed() const noexcept { return pre_; }
  /// The tables an on-demand source reads, or null for v0.
  const KernelTables* tables() const noexcept { return tables_; }
  /// KernelTables::pressure_weight at the cell's pressure.
  float weight() const noexcept { return w_; }
  bool device_fma() const noexcept { return device_fma_; }

 private:
  const CollisionArrays* pre_ = nullptr;
  const KernelTables* tables_ = nullptr;
  float w_ = 0.0f;
  bool device_fma_ = false;
};

/// Per-cell bin workspace, FSBM naming: fl1 = liquid, g2 = ice crystals
/// (nkr x icemax), g3 = snow, g4 = graupel, g5 = hail.  Pointers may
/// target stack buffers (v0-v2) or pooled device arrays (v3).
struct CoalWorkspace {
  float* fl1 = nullptr;
  float* g2 = nullptr;  ///< nkr * kIceMax, habit-major slabs
  float* g3 = nullptr;
  float* g4 = nullptr;
  float* g5 = nullptr;

  /// Bytes of workspace one cell needs (drives the device heap check).
  static constexpr std::uint64_t bytes_per_cell(int nkr) {
    return static_cast<std::uint64_t>(nkr) * (4 + kIceMax) * sizeof(float);
  }
};

/// Work accounting for the performance model and Table III/IV analysis.
struct CoalStats {
  std::uint64_t kernel_lookups = 0;  ///< cw values fetched/computed
  std::uint64_t interactions = 0;    ///< (i,j) pairs that moved mass
  std::uint64_t pairs_active = 0;    ///< of the 20 classes, how many ran
  double flops = 0.0;
};

struct CoalConfig {
  double dt = 5.0;          ///< seconds (CONUS-12km time step)
  double gmin = 1.0e-14;    ///< kg/kg; bins below this are empty
  double max_frac = 0.9;    ///< max fraction of a bin consumed per step
};

/// One cell of a lockstep coal_bott_lanes call.  `stats` accumulates
/// (the call adds to it).
struct CoalLane {
  double temp_k = 0.0;
  KernelSource ks;
  CoalWorkspace w;
  CoalStats stats;
};

/// One lane of a lockstep pairwise sweep: distribution `ga` collected by
/// `gb`, coalesced mass deposited into `gd`.  `ga`, `gb`, `gd` may alias
/// for self-collection (ga == gb).  `stats` accumulates.
struct PairLane {
  const KernelSource* ks = nullptr;
  float* ga = nullptr;
  float* gb = nullptr;
  float* gd = nullptr;
  CoalStats stats;
};

/// Run collision-coalescence on 1..kCoalLanes cells in lockstep, each
/// on its own workspace (workspaces of different lanes must not
/// overlap).  Per cell, interactions are gated exactly as FSBM gates
/// them: liquid-liquid always (the caller guarantees TT > 223.15 per
/// Listing 1), ice-phase interactions only below freezing — so warm and
/// cold cells may share a call.  Every lane's kernel source must be of
/// the same kind (v0 arrays, v1 get_cw, or device FMA).
void coal_bott_lanes(const BinGrid& bins, std::span<CoalLane> lanes,
                     const CoalConfig& cfg);

/// One-cell coal_bott_lanes: the paper's `coal_bott_new` for a cell at
/// temperature `temp_k`.
CoalStats coal_bott_new(const BinGrid& bins, double temp_k,
                        const KernelSource& ks, const CoalWorkspace& w,
                        const CoalConfig& cfg);

/// One pairwise collection sweep of pair `pair` over 1..kCoalLanes
/// lanes in lockstep — the building block of coal_bott_lanes, exposed
/// for unit tests of single-pair laws.  All lanes self-collect
/// (ga == gb) or none does, and their kernel sources share one kind.
void collect_pair_lanes(const BinGrid& bins, CollisionPair pair,
                        std::span<PairLane> lanes, const CoalConfig& cfg);

}  // namespace wrf::fsbm
