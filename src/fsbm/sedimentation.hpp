#pragma once
// Bin sedimentation: gravitational fallout of every bin of every class.
//
// First-order upwind transport in the vertical with per-bin terminal
// velocities and CFL sub-stepping; the flux through the lowest level
// accumulates as surface precipitation.  One column at a time, the
// shape of FSBM's original fall-speed loops, with the loop invariants
// hoisted out of the substep loop:
//
//   * the air-density correction (one sqrt) once per level per call,
//     shared by every bin;
//   * the tabulated base fall speed once per bin;
//   * the courant number once per (bin, level), as soon as the bin's
//     substep length is known.
//
// Each hoisted value is computed with exactly the operations of the
// per-lookup form — terminal_velocity(sp, k, rho) * vel_scale, then
// min(1, v * dts / dz) — so the state is bitwise identical to it
// (asserted against an unhoisted reference in
// tests/test_fsbm_properties.cpp).
//
// Device residency: the solver runs host-side and rewrites every bin
// column, so under res=persist the fast_sbm sedimentation pass marks the
// full bin fields dirty in its epilogue (host-dirty under a host exec
// space, device-dirty under exec=device where the pass is modeled as a
// device kernel) — see FastSbm::mark_written and mem/residency.hpp.

#include <cstdint>

#include "fsbm/bins.hpp"

namespace wrf::fsbm {

struct SedConfig {
  double dt = 5.0;
  double dz = 400.0;       ///< uniform layer thickness, m
  double gmin = 1.0e-14;
  /// Scales every terminal velocity (sensitivity studies and the
  /// zero-velocity fixed-point property test).  The default of 1.0 is
  /// bitwise neutral (multiplication by 1.0 is exact).
  double vel_scale = 1.0;
};

struct SedStats {
  double surface_precip = 0.0;  ///< kg/kg column-equivalent mass removed
  /// CFL substeps, summed over bins.
  std::uint64_t substeps = 0;
  double flops = 0.0;
};

/// Sediment one species' column.  `g_col` holds nz levels of nkr bins,
/// level-major: g_col[iz * nkr + k], iz = 0 at the surface.  `rho` is the
/// per-level air density (nz entries).  Returns mass delivered to the
/// surface (sum over bins of rho-weighted flux, normalized by level 0).
SedStats sediment_column(const BinGrid& bins, Species sp, float* g_col,
                         const double* rho, int nz, const SedConfig& cfg);

}  // namespace wrf::fsbm
