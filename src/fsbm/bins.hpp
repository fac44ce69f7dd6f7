#pragma once
// Spectral bin discretization for the FSBM scheme.
//
// FSBM (Khain et al. 2004; Shpund et al. 2019) represents each
// hydrometeor class by a discrete size distribution on a mass-doubling
// grid of nkr bins (nkr = 33 in WRF; the paper notes it can be extended
// to hundreds, with cost scaling quadratically).  This module owns the
// bin grid: masses, radii per hydrometeor class (different bulk
// densities), logarithmic bin widths, and terminal velocities including
// the air-density (pressure) correction that makes the collision-kernel
// tables pressure-dependent (the 750 mb / 500 mb tables of Listing 3).

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace wrf::fsbm {

/// Number of ice-crystal habits tracked separately (FSBM's `icemax`).
inline constexpr int kIceMax = 3;

/// Hydrometeor classes carried by the fast scheme.
enum class Species : int {
  kLiquid = 0,    ///< cloud drops + rain (one continuous spectrum)
  kIceColumn = 1, ///< columnar ice crystals
  kIcePlate = 2,  ///< plate ice crystals
  kIceDendrite = 3, ///< dendritic ice crystals
  kSnow = 4,      ///< snowflakes / aggregates
  kGraupel = 5,
  kHail = 6,
};
inline constexpr int kNumSpecies = 7;

const char* species_name(Species s);

/// True for the three ice-crystal habits.
inline bool is_ice_crystal(Species s) {
  return s == Species::kIceColumn || s == Species::kIcePlate ||
         s == Species::kIceDendrite;
}

/// The mass-doubling bin grid shared by all species.
///
/// Bin k holds particles of mass m(k) = m0 * 2^k, k = 0..nkr-1, where m0
/// is the mass of a 2 um-radius water drop.  Radii are derived per
/// species from an effective bulk density (snow is fluffy, hail dense).
class BinGrid {
 public:
  /// nkr >= 4; 33 reproduces WRF's FSBM configuration.
  explicit BinGrid(int nkr = 33);

  int nkr() const noexcept { return nkr_; }

  /// Particle mass of bin k, kg.
  double mass(int k) const { return mass_.at(static_cast<std::size_t>(k)); }
  /// All nkr bin masses, mass(0) first (unchecked reads for hot loops).
  const double* masses() const noexcept { return mass_.data(); }
  /// Radius of bin k for species s, m.
  double radius(Species s, int k) const {
    return radius_[static_cast<std::size_t>(s)][static_cast<std::size_t>(k)];
  }
  /// ln(m_{k+1}/m_k) = ln 2: logarithmic bin width (uniform by design).
  double dln() const noexcept { return dln_; }

  /// Terminal velocity (m/s) of bin k of species s at air density rho
  /// (kg/m^3).  Power-law fits per class with the (rho0/rho)^0.5 density
  /// correction — the pressure dependence behind the two-level kernel
  /// tables.
  ///
  /// Factored as terminal_velocity_base(s, k) * density_correction(rho):
  /// the base power law depends only on (species, bin) and is tabulated
  /// at construction, so a lookup is one table read plus the sqrt of the
  /// correction, which depends only on the level's air density.  The
  /// sedimentation solver hoists both factors — the base per bin, the
  /// correction per level — and forms the product with exactly the
  /// operations of this function, so it stays bitwise identical.
  double terminal_velocity(Species s, int k, double rho_air) const {
    return terminal_velocity_base(s, k) * density_correction(rho_air);
  }

  /// The capped power-law fall speed of bin k of species s at reference
  /// air density (1.225 kg/m^3) — terminal_velocity without the density
  /// correction.  A read of the table filled at construction.
  double terminal_velocity_base(Species s, int k) const {
    return tv_base_[static_cast<std::size_t>(s)]
                   [static_cast<std::size_t>(k)];
  }

  /// The (rho0/rho)^0.5 air-density correction factor (falls faster in
  /// thin air); rho is floored at 0.05 kg/m^3.  rho0 = 1.225.
  static double density_correction(double rho_air) {
    return std::sqrt(1.225 / (rho_air > 0.05 ? rho_air : 0.05));
  }

  /// Index of the largest bin whose mass is <= m (clamped to [0,nkr-1]).
  /// Places condensational growth of arbitrary mass and fills the
  /// coalescence destination table below.
  int bin_floor(double m) const;

  /// Where the coalesced mass of a (bin i, bin j) collision lands: bin
  /// kd = bin_floor(mass(i) + mass(j)) and, when kd < nkr-1, the
  /// fraction f = (m_new - m_kd) / (m_kd+1 - m_kd) of the two-bin split
  /// that goes to bin kd+1 (f is 0 and unused when kd == nkr-1).
  struct CoalDest {
    int kd;
    double f;
  };

  /// Destination of the (i, j) collision, tabulated at construction with
  /// exactly the expressions above — the collision gain term reads it
  /// instead of taking a log2 per interaction.
  const CoalDest& coal_dest(int i, int j) const {
    return coal_dest_[static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(nkr_) +
                      static_cast<std::size_t>(j)];
  }

  /// Effective bulk density of species s, kg/m^3.
  static double bulk_density(Species s);

 private:
  int nkr_;
  double dln_;
  std::vector<double> mass_;
  std::array<std::vector<double>, kNumSpecies> radius_;
  std::array<std::vector<double>, kNumSpecies> tv_base_;
  std::vector<CoalDest> coal_dest_;  ///< nkr x nkr, row i = collected bin
};

}  // namespace wrf::fsbm
