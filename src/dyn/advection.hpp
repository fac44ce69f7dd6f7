#pragma once
// Scalar advection: WRF's rk_scalar_tend / rk_update_scalar pair.
//
// Flux-form advection with WRF's default stencils — 5th-order upwind in
// the two horizontal dimensions, 3rd-order upwind in the vertical — and
// the 3-stage Runge-Kutta driver of the ARW solver.  These are the #2
// and #3 hotspots of the paper's Table I; in WRF every FSBM bin is an
// advected scalar, which is why rk_scalar_tend is expensive.  The
// stencils need a 3-cell halo, which fixes the patch halo width.
//
// The routines operate on one patch with halos already filled (by
// src/model's exchange for interior edges and by zero-gradient boundary
// fill at domain edges).  The vertical stencil degrades to 1st order at
// the top/bottom boundaries and vertical flux through them is zero.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/exec.hpp"
#include "fsbm/state.hpp"
#include "grid/decomp.hpp"
#include "util/field.hpp"

namespace wrf::dyn {

/// Analytic, divergence-shaped wind field driving the test cases: a
/// uniform zonal flow plus a stationary mesoscale updraft core (a proxy
/// for the squall-line circulation of the CONUS-12km thunderstorm case).
struct AnalyticWinds {
  double u0 = 12.0;     ///< background zonal wind, m/s
  double v0 = 3.0;      ///< background meridional wind, m/s
  double w_max = 8.0;   ///< updraft core strength, m/s
  double xc = 0.5;      ///< updraft center, fraction of domain x
  double yc = 0.5;      ///< updraft center, fraction of domain y
  double radius = 0.18; ///< updraft core radius, fraction of domain x
  grid::Domain domain;
  double dx = 12000.0;
  double dz = 400.0;

  double w(int i, int k, int j) const;
};

/// The stationary AnalyticWinds sampled once on one patch: u and v are
/// uniform, and w is tabulated at every vertical face the stencils of
/// the computational cells read (k = k.lo .. k.hi + 1), so the kernels
/// read a double instead of evaluating exp and sin per cell, species and
/// stage.  The table holds exactly the doubles AnalyticWinds::w returns,
/// so tendencies are bitwise unchanged.
class WindTable {
 public:
  WindTable() = default;
  WindTable(const AnalyticWinds& winds, const grid::Patch& patch);

  double u(int /*i*/, int /*k*/, int /*j*/) const noexcept { return u0_; }
  double v(int /*i*/, int /*k*/, int /*j*/) const noexcept { return v0_; }
  double w(int i, int k, int j) const noexcept { return w_(i, k, j); }

 private:
  double u0_ = 0.0;
  double v0_ = 0.0;
  Field3D<double> w_;
};

struct AdvConfig {
  double dx = 12000.0;
  double dy = 12000.0;
  double dz = 400.0;
};

/// Horizontal half-width of the widest advection stencil (5th-order
/// upwind reads i±3 / j±3).  This fixes both the patch halo width and
/// the shell depth of the comms/compute-overlap split: cells at least
/// this far inside the computational range never read a halo cell.
constexpr int kStencilWidth = 3;

/// Work counters for the perf model.  The bin variants count executed
/// (cell, bin) pairs, so only the live bins a caller dispatches count.
struct AdvStats {
  std::uint64_t cells = 0;
  double flops = 0.0;

  /// Partial-merge hook for ExecSpace::parallel_reduce.
  void merge(const AdvStats& o) {
    cells += o.cells;
    flops += o.flops;
  }
};

/// Advective tendency of one 3-D scalar over a sub-range `r` of the
/// patch computational range: tend = -div(V q), 5th-order horizontal /
/// 3rd-order vertical upwind fluxes.  `q` must have valid halos within
/// `kStencilWidth` of `r` (interior sub-ranges tolerate stale halos).
/// Cells write only their own tendency, so the nest dispatches through
/// any execution space.
AdvStats rk_scalar_tend(exec::ExecSpace& ex, const grid::Patch& patch,
                        const exec::Range3& r, const Field3D<float>& q,
                        const WindTable& winds, const AdvConfig& cfg,
                        Field3D<float>& tend);

/// Serial, full computational range.
inline AdvStats rk_scalar_tend(const grid::Patch& patch,
                               const Field3D<float>& q,
                               const AnalyticWinds& winds,
                               const AdvConfig& cfg, Field3D<float>& tend) {
  return rk_scalar_tend(exec::serial(), patch,
                        exec::Range3{patch.ip, patch.k, patch.jp}, q,
                        WindTable(winds, patch), cfg, tend);
}

/// Same tendency for the bins `bins` (a sub-range of [0, q.n()), empty
/// when bins.lo > bins.hi) of a 4-D distribution (bin-fastest); the
/// inner bin loop amortizes stencil index math as WRF's chem loop does.
/// Bins outside `bins` keep their prior `tend` contents.  `q` and `tend`
/// must be distinct fields.
///
/// Face-once sweep: every interior face flux is computed once and
/// handed to the cell on its other side, instead of once per cell.  The
/// range is cut into slab tiles of a fixed number of j-planes (a pure
/// function of the range).  Within a tile each (k, j) row seeds its
/// i.lo-1/2 face and carries the x face along i; the y faces are
/// carried across the tile's planes in a per-(k, i) buffer seeded at
/// the tile's first plane; the z face is carried up a column only
/// between two 3rd-order levels, while the 1st-order and zero-flux
/// levels compute their own faces.  The carry buffers are per thread
/// and only grow.  Bitwise safety: u and v are uniform and w is read at
/// the shared face, so both neighbours of a face evaluate the same
/// expression on the same doubles; any sub-range (interior, shell
/// pieces, late bin ranges) yields the per-cell tendencies bit for bit.
/// The vertical-flux case is chosen per (cell, level), outside the bin
/// loop, so every bin loop vectorizes (scripts/ci.sh checks the
/// compiler report).  AdvStats counts executed (cell, bin) pairs.
AdvStats rk_scalar_tend_bins(exec::ExecSpace& ex, const grid::Patch& patch,
                             const exec::Range3& r, const Range& bins,
                             const Field4D<float>& q, const WindTable& winds,
                             const AdvConfig& cfg, Field4D<float>& tend);

/// Serial, full computational range, every bin.
inline AdvStats rk_scalar_tend_bins(const grid::Patch& patch,
                                    const Field4D<float>& q,
                                    const AnalyticWinds& winds,
                                    const AdvConfig& cfg,
                                    Field4D<float>& tend) {
  return rk_scalar_tend_bins(
      exec::serial(), patch, exec::Range3{patch.ip, patch.k, patch.jp},
      Range{0, q.n() - 1}, q, WindTable(winds, patch), cfg, tend);
}

/// RK stage update: q = max(0, q0 + dt_stage * tend) over the
/// computational range (positive-definite clip, as WRF's PD limiter
/// guarantees for moisture scalars).
AdvStats rk_update_scalar(exec::ExecSpace& ex, const grid::Patch& patch,
                          const Field3D<float>& q0, const Field3D<float>& tend,
                          double dt_stage, Field3D<float>& q);
inline AdvStats rk_update_scalar(const grid::Patch& patch,
                                 const Field3D<float>& q0,
                                 const Field3D<float>& tend, double dt_stage,
                                 Field3D<float>& q) {
  return rk_update_scalar(exec::serial(), patch, q0, tend, dt_stage, q);
}

/// 4-D variant of the stage update over the bins `bins`; bins outside
/// it keep their prior `q` contents.
AdvStats rk_update_scalar_bins(exec::ExecSpace& ex, const grid::Patch& patch,
                               const Range& bins, const Field4D<float>& q0,
                               const Field4D<float>& tend, double dt_stage,
                               Field4D<float>& q);

/// Per-bin OR of the bit patterns of `n`-bin slices: a bin is live iff
/// it holds a non-zero bit pattern in some slice added (a stored -0.0
/// counts as live).
class LiveBinScan {
 public:
  explicit LiveBinScan(int n) : bits_(static_cast<std::size_t>(n), 0u) {}

  /// Add `count` consecutive slices.  A non-null `copy_to` also receives
  /// a copy of them, in the same pass.
  void add(const float* slices, std::size_t count, float* copy_to = nullptr);

  /// Smallest [lo, hi] covering every live bin; empty when there is none.
  Range hull() const noexcept;

 private:
  std::vector<std::uint32_t> bits_;
};

/// Live-bin hull of `count` consecutive `n`-bin slices.
inline Range live_bin_hull(const float* slices, std::size_t count, int n) {
  LiveBinScan scan(n);
  scan.add(slices, count);
  return scan.hull();
}

/// Smallest range covering both `a` and `b`; an empty range adds nothing.
Range hull_union(const Range& a, const Range& b) noexcept;

/// Zero-gradient fill of halo cells on sides where the patch touches the
/// global domain boundary (interior sides come from halo exchange).
void fill_domain_boundaries(const grid::Patch& patch, Field3D<float>& q);
void fill_domain_boundaries_bins(const grid::Patch& patch, Field4D<float>& q);

}  // namespace wrf::dyn
