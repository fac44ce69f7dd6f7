#pragma once
// Collision-kernel lookup tables and the paper's two access strategies.
//
// FSBM precomputes gravitational-collection kernels K(i,j) for every pair
// of interacting hydrometeor classes at two reference pressure levels
// (750 mb and 500 mb); at run time the kernel for a grid cell is a linear
// interpolation in pressure between the two tables (Listing 3).
//
// The paper's first optimization (Section VI-A, Table III) is entirely
// about *how* these values reach the collision code:
//
//   * v0 (`kernals_ks`): for every grid cell, fill all 20 nkr x nkr
//     "cw**" arrays, then let the collision subroutines read them.  The
//     arrays were global state, which also blocked parallelization.
//   * v1 (`get_cw`): delete the arrays; compute each entry on demand via
//     pure functions.  Wins because (1) not all 20 arrays are used in a
//     given cell, and (2) not every entry of a used array is read.

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fsbm/bins.hpp"

namespace wrf::fsbm {

/// The 20 interacting class pairs whose kernels FSBM tabulates
/// (cwls = liquid collected by snow, cwlg = liquid by graupel, ...).
enum class CollisionPair : int {
  kLL = 0,   ///< liquid - liquid (collision-coalescence / rain formation)
  kLS,       ///< liquid - snow (riming)
  kLG,       ///< liquid - graupel (riming)
  kLH,       ///< liquid - hail (wet growth)
  kLI1,      ///< liquid - columnar ice
  kLI2,      ///< liquid - plate ice
  kLI3,      ///< liquid - dendritic ice
  kSS,       ///< snow - snow (aggregation)
  kSG,       ///< snow - graupel
  kSH,       ///< snow - hail
  kSI1,      ///< snow - columnar ice
  kSI2,      ///< snow - plate ice
  kSI3,      ///< snow - dendritic ice
  kGG,       ///< graupel - graupel
  kGH,       ///< graupel - hail
  kHH,       ///< hail - hail
  kII1,      ///< columnar - columnar
  kII2,      ///< plate - plate
  kII3,      ///< dendrite - dendrite
  kIG,       ///< ice crystals - graupel
};
inline constexpr int kNumPairs = 20;

/// Collected (smaller, "a") species of the pair.
Species pair_a(CollisionPair p);
/// Collecting (larger, "b") species of the pair.
Species pair_b(CollisionPair p);
const char* pair_name(CollisionPair p);

/// v0's global-state block: all 20 interpolated kernel arrays for one
/// grid cell.  Each array is nkr*nkr, row-major in (i, j).
struct CollisionArrays {
  explicit CollisionArrays(int nkr)
      : nkr(nkr) {
    for (auto& a : cw) a.assign(static_cast<std::size_t>(nkr) * nkr, 0.0f);
  }
  int nkr;
  std::array<std::vector<float>, kNumPairs> cw;

  float at(CollisionPair p, int i, int j) const {
    return cw[static_cast<std::size_t>(p)]
             [static_cast<std::size_t>(i) * nkr + j];
  }
};

/// Reference pressure levels of the precomputed tables, Pa.
inline constexpr double kTableP750 = 75000.0;
inline constexpr double kTableP500 = 50000.0;

/// Owner of the per-pressure-level kernel tables (yw**_750mb /
/// yw**_500mb) and the two access strategies built on them.
class KernelTables {
 public:
  explicit KernelTables(const BinGrid& bins);

  int nkr() const noexcept { return nkr_; }

  /// Raw table entry at one of the two reference levels.
  float table(CollisionPair p, int i, int j, bool level_750mb) const {
    const auto& t = level_750mb ? yw750_ : yw500_;
    return t[static_cast<std::size_t>(p)]
            [static_cast<std::size_t>(i) * nkr_ + j];
  }

  /// v0: fill all 20 cw** arrays for cell pressure `pres_pa`.  This is
  /// the O(20 * nkr^2) per-cell cost the paper removes.  Returns the
  /// number of table entries computed (for work counters).
  std::uint64_t kernals_ks(double pres_pa, CollisionArrays& out) const;

  /// v1: one interpolated entry, computed on demand.  Pure; safe to call
  /// concurrently from any thread / simulated device lane.
  float get_cw(CollisionPair p, int i, int j, double pres_pa) const {
    return lerp(table(p, i, j, /*level_750mb=*/true),
                table(p, i, j, /*level_750mb=*/false),
                pressure_weight(pres_pa));
  }

  /// Device-code flavor of get_cw: nvfortran contracts the interpolation
  /// into an FMA, which is why the paper's diffwrf comparison retains
  /// "only" 3-6 digits (Section VII-B).  We reproduce that exact
  /// numerical difference with std::fma.
  float get_cw_device(CollisionPair p, int i, int j, double pres_pa) const {
    return lerp_fma(table(p, i, j, /*level_750mb=*/true),
                    table(p, i, j, /*level_750mb=*/false),
                    pressure_weight(pres_pa));
  }

  /// The interpolation weight of the 750 mb table at cell pressure
  /// `pres_pa`, clamped to [0, 1].  A cell's pressure is fixed for a
  /// step, so callers compute it once per cell (KernelSource, kernals_ks)
  /// and reuse it for every entry.
  static float pressure_weight(double pres_pa) {
    double w = (pres_pa - kTableP500) / (kTableP750 - kTableP500);
    if (w < 0.0) w = 0.0;
    if (w > 1.0) w = 1.0;
    return static_cast<float>(w);
  }

  /// Pressure interpolation shared by both strategies (Listing 3's
  /// `(ckern_2 + (ckern_1 - ckern_2) * ...)` expression), at weight `w`
  /// of pressure_weight.
  static float lerp(float ckern_750, float ckern_500, float w) {
    return ckern_500 + w * (ckern_750 - ckern_500);
  }

  /// The same interpolation as one fused multiply-add (device code).
  static float lerp_fma(float ckern_750, float ckern_500, float w) {
    return std::fma(w, ckern_750 - ckern_500, ckern_500);
  }

  /// Base address of one table's storage; used by the device cache model
  /// to replay table reads at their true host addresses.
  const float* table_ptr(CollisionPair p, bool level_750mb) const {
    return (level_750mb ? yw750_ : yw500_)[static_cast<std::size_t>(p)].data();
  }

  /// Physical hydrodynamic kernel used to build the tables:
  /// K = pi (ri+rj)^2 |vt_i - vt_j| E(ri, rj), m^3/s.
  static double hydrodynamic_kernel(const BinGrid& bins, Species a, int ka,
                                    Species b, int kb, double rho_air);

  /// Collision efficiency E(r_small, r_large) in [0, 1]; Hall-table-like
  /// shape: small collectors are inefficient, rain-sized ones sweep.
  static double collision_efficiency(double r_small, double r_large);

 private:
  int nkr_;
  std::array<std::vector<float>, kNumPairs> yw750_;
  std::array<std::vector<float>, kNumPairs> yw500_;
};

}  // namespace wrf::fsbm
