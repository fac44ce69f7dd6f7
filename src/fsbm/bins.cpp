#include "fsbm/bins.hpp"

#include <cmath>

#include "util/constants.hpp"

namespace wrf::fsbm {

namespace c = wrf::constants;

const char* species_name(Species s) {
  switch (s) {
    case Species::kLiquid: return "liquid";
    case Species::kIceColumn: return "ice_column";
    case Species::kIcePlate: return "ice_plate";
    case Species::kIceDendrite: return "ice_dendrite";
    case Species::kSnow: return "snow";
    case Species::kGraupel: return "graupel";
    case Species::kHail: return "hail";
  }
  return "?";
}

double BinGrid::bulk_density(Species s) {
  switch (s) {
    case Species::kLiquid: return c::kRhoWater;
    case Species::kIceColumn: return 700.0;
    case Species::kIcePlate: return 850.0;
    case Species::kIceDendrite: return 500.0;
    case Species::kSnow: return 100.0;   // fluffy aggregates
    case Species::kGraupel: return 400.0;
    case Species::kHail: return 900.0;
  }
  return c::kRhoWater;
}

namespace {

/// Capped power-law fall speed at reference air density of a particle
/// of species s and radius r.  Piecewise power laws v = a * (r / r_ref)^b,
/// capped, per class — Stokes regime for droplets, Best-number-like fits
/// for precipitation.
double power_law_fall_speed(Species s, double r) {
  double v;
  switch (s) {
    case Species::kLiquid:
      if (r < 40e-6) {
        v = 1.19e8 * r * r;               // Stokes: ~1.2e8 r^2
      } else if (r < 0.6e-3) {
        v = 8.0e3 * r;                    // linear regime
      } else {
        v = 2.2e2 * std::sqrt(r);         // large raindrops, ~9 m/s cap
      }
      if (v > 9.2) v = 9.2;
      break;
    case Species::kIceColumn:
    case Species::kIcePlate:
    case Species::kIceDendrite:
      v = 7.0e2 * std::pow(r, 0.8);
      if (v > 1.2) v = 1.2;
      break;
    case Species::kSnow:
      v = 5.0 * std::pow(r, 0.25);
      if (v > 1.8) v = 1.8;
      break;
    case Species::kGraupel:
      v = 1.1e2 * std::pow(r, 0.57);
      if (v > 12.0) v = 12.0;
      break;
    case Species::kHail:
      v = 5.0e2 * std::pow(r, 0.6);
      if (v > 45.0) v = 45.0;
      break;
    default:
      v = 0.0;
  }
  return v;
}

}  // namespace

BinGrid::BinGrid(int nkr) : nkr_(nkr), dln_(std::log(2.0)) {
  if (nkr < 4) throw ConfigError("BinGrid: nkr must be >= 4");
  // m0: 2 um radius water drop.
  const double r0 = 2.0e-6;
  const double m0 = 4.0 / 3.0 * c::kPi * c::kRhoWater * r0 * r0 * r0;
  mass_.resize(static_cast<std::size_t>(nkr));
  for (int k = 0; k < nkr; ++k) {
    mass_[static_cast<std::size_t>(k)] = m0 * std::ldexp(1.0, k);
  }
  for (int s = 0; s < kNumSpecies; ++s) {
    const double rho = bulk_density(static_cast<Species>(s));
    auto& rad = radius_[static_cast<std::size_t>(s)];
    rad.resize(static_cast<std::size_t>(nkr));
    auto& tv = tv_base_[static_cast<std::size_t>(s)];
    tv.resize(static_cast<std::size_t>(nkr));
    for (int k = 0; k < nkr; ++k) {
      rad[static_cast<std::size_t>(k)] =
          std::cbrt(3.0 * mass_[static_cast<std::size_t>(k)] /
                    (4.0 * c::kPi * rho));
      tv[static_cast<std::size_t>(k)] = power_law_fall_speed(
          static_cast<Species>(s), rad[static_cast<std::size_t>(k)]);
    }
  }
  coal_dest_.reserve(static_cast<std::size_t>(nkr) *
                     static_cast<std::size_t>(nkr));
  for (int i = 0; i < nkr; ++i) {
    for (int j = 0; j < nkr; ++j) {
      const double m_new = mass(i) + mass(j);
      const int kd = bin_floor(m_new);
      double f = 0.0;
      if (kd < nkr - 1) {
        const double mk = mass(kd);
        const double mk1 = mass(kd + 1);
        f = (m_new - mk) / (mk1 - mk);
      }
      coal_dest_.push_back(CoalDest{kd, f});
    }
  }
}

int BinGrid::bin_floor(double m) const {
  if (m <= mass_[0]) return 0;
  // Mass-doubling grid: bin index is log2(m/m0), O(1).
  const int k = static_cast<int>(std::floor(std::log2(m / mass_[0])));
  if (k >= nkr_ - 1) return nkr_ - 1;
  return k < 0 ? 0 : k;
}

}  // namespace wrf::fsbm
