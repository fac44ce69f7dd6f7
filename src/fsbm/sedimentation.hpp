#pragma once
// Bin sedimentation: gravitational fallout of every bin of every class.
//
// First-order upwind transport in the vertical with per-bin terminal
// velocities and CFL sub-stepping; the flux through the lowest level
// accumulates as surface precipitation.  Two solvers share the same
// numerics:
//
//   * sediment_column — one column at a time, the shape of FSBM's
//     original fall-speed loops.  Terminal velocities are looked up per
//     (bin, level, substep): each lookup is a read of the BinGrid's
//     tabulated power law plus one sqrt for the level's density
//     correction.  It stays as the oracle the blocked solver is tested
//     against.
//   * sediment_block — a tile of `ncol` columns at once in SoA layout
//     (see below).  The per-bin base-table read is hoisted out of the
//     column/level/substep loops (one lookup per bin per block) and the
//     per-level density corrections are computed once per block and
//     shared across all bins, so the sqrts are amortized by the number
//     of bins and substeps.  Bitwise identical to sediment_column per
//     column (asserted in tests/test_fsbm_properties.cpp).
//
// SoA block layout (column-minor, so the inner loop vectorizes across
// columns):
//
//   g_blk[(iz * nkr + k) * ncol + c]   bin k, level iz, column c
//   rho_blk[iz * ncol + c]             per-level air density
//
// iz = 0 is the surface.  Lockstep sub-stepping rule: for each bin the
// block marches a worst-case substep count (the max CFL substep count
// over its columns) so every column advances through the substep loop in
// lockstep; a column that needs fewer substeps keeps its own dt/nsub
// substep length and is masked out once its own count is exhausted.
// Each column therefore performs exactly the arithmetic the per-column
// solver would, which is what makes the blocked path bitwise identical
// for any block width and any block composition.
//
// Device residency: both solvers run host-side and rewrite every bin
// column, so under res=persist the fast_sbm sedimentation passes mark
// the full bin fields dirty in their epilogues (host-dirty under a host
// exec space, device-dirty under exec=device where the pass is modeled
// as a device kernel) — see FastSbm::mark_written and mem/residency.hpp.

#include <cstdint>
#include <string>

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
  /// Per-column CFL substeps, summed over bins and columns — identical
  /// between the column and blocked solvers.
  std::uint64_t substeps = 0;
  /// Substeps the solver actually marched: equals `substeps` for the
  /// column path; the per-block worst case summed over bins for the
  /// blocked path (<= substeps, since N columns share each march).
  std::uint64_t lockstep_substeps = 0;
  /// Terminal-velocity base lookups (reads of the BinGrid's tabulated
  /// power law).  The column solver pays one per (bin, level, substep);
  /// the blocked solver one per bin per block — the amortization the
  /// bench sweep reports.
  std::uint64_t tv_lookups = 0;
  /// Air-density correction (sqrt) evaluations.  One per tv lookup in
  /// the column solver; one per (level, column) per block — shared
  /// across all bins and species substeps — in the blocked solver.
  std::uint64_t corr_evals = 0;
  double flops = 0.0;

  void merge(const SedStats& o) {
    surface_precip += o.surface_precip;
    substeps += o.substeps;
    lockstep_substeps += o.lockstep_substeps;
    tv_lookups += o.tv_lookups;
    corr_evals += o.corr_evals;
    flops += o.flops;
  }
};

/// Sediment one species' column.  `g_col` holds nz levels of nkr bins,
/// level-major: g_col[iz * nkr + k], iz = 0 at the surface.  `rho` is the
/// per-level air density (nz entries).  Returns mass delivered to the
/// surface (sum over bins of rho-weighted flux, normalized by level 0).
SedStats sediment_column(const BinGrid& bins, Species sp, float* g_col,
                         const double* rho, int nz, const SedConfig& cfg);

/// Sediment one species over a block of `ncol` columns in the SoA layout
/// documented above.  `precip_col` (ncol entries) receives each column's
/// surface precipitation; SedStats.surface_precip is their sum.  Per
/// column, results are bitwise identical to sediment_column on the same
/// data for any ncol >= 1.
SedStats sediment_block(const BinGrid& bins, Species sp, float* g_blk,
                        const double* rho_blk, int nz, int ncol,
                        const SedConfig& cfg, double* precip_col);

/// The `sed=` knob: how fast_sbm dispatches sedimentation columns.
struct SedDispatch {
  enum class Kind : int { kColumn = 0, kBlock = 1 };
  Kind kind = Kind::kColumn;
  int block = 8;  ///< columns per block when kind == kBlock

  /// Parse "column" | "block" | "block:N" (N >= 1); throws ConfigError
  /// on anything else.
  static SedDispatch parse(const std::string& s);

  /// Render back to the knob syntax ("column", "block:8", ...).
  std::string describe() const;
};

/// Scan argv for a `sed=<mode>` argument (any position); returns the
/// default (column) when absent.  Shared by the examples and benches,
/// like exec::exec_from_args and dyn::halo_mode_from_args.
SedDispatch sed_from_args(int argc, char** argv);

}  // namespace wrf::fsbm
