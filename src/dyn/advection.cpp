#include "dyn/advection.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "util/constants.hpp"

namespace wrf::dyn {

double AnalyticWinds::w(int i, int k, int j) const {
  // Gaussian updraft core with a half-sine vertical profile: zero at the
  // surface and model top, max mid-troposphere.
  const double nx = domain.i.size();
  const double ny = domain.j.size();
  const double nz = domain.k.size();
  const double x = (i - domain.i.lo + 0.5) / nx;
  const double y = (j - domain.j.lo + 0.5) / ny;
  const double z = (k - domain.k.lo + 0.5) / nz;
  const double r2 = ((x - xc) * (x - xc) + (y - yc) * (y - yc)) /
                    (radius * radius);
  if (r2 > 9.0) return 0.0;
  return w_max * std::exp(-r2) * std::sin(constants::kPi * z);
}

WindTable::WindTable(const AnalyticWinds& winds, const grid::Patch& patch)
    : u0_(winds.u0),
      v0_(winds.v0),
      w_(patch.ip, Range{patch.k.lo, patch.k.hi + 1}, patch.jp) {
  for (int j = patch.jp.lo; j <= patch.jp.hi; ++j) {
    for (int k = patch.k.lo; k <= patch.k.hi + 1; ++k) {
      for (int i = patch.ip.lo; i <= patch.ip.hi; ++i) {
        w_(i, k, j) = winds.w(i, k, j);
      }
    }
  }
}

namespace {

/// WRF 5th-order upwind interface flux given the 6-point stencil
/// q[-2..3] around the interface and the advecting velocity.
inline double flux5(double vel, const double q[6]) {
  const double f_c = (37.0 * (q[2] + q[3]) - 8.0 * (q[1] + q[4]) +
                      (q[0] + q[5])) /
                     60.0;
  const double f_u = ((q[5] - q[0]) - 5.0 * (q[4] - q[1]) +
                      10.0 * (q[3] - q[2])) /
                     60.0;
  return vel * f_c - std::abs(vel) * f_u;
}

/// WRF 3rd-order upwind interface flux from the 4-point stencil
/// q[-1..2].
inline double flux3(double vel, const double q[4]) {
  const double f_c = (7.0 * (q[1] + q[2]) - (q[0] + q[3])) / 12.0;
  const double f_u = ((q[3] - q[0]) - 3.0 * (q[2] - q[1])) / 12.0;
  return vel * f_c - std::abs(vel) * f_u;
}

constexpr double kFlopsPerCell = 66.0;  // 2x flux5 + flux3 + divergence

/// j-planes per rk_scalar_tend_bins tile.  Each tile seeds its own
/// first y faces, so deeper slabs compute fewer faces twice but leave
/// fewer tiles to spread over threads.  The cut is a pure function of
/// the range.
constexpr int kSlabPlanes = 4;

}  // namespace

AdvStats rk_scalar_tend(exec::ExecSpace& ex, const grid::Patch& patch,
                        const exec::Range3& r, const Field3D<float>& q,
                        const WindTable& winds, const AdvConfig& cfg,
                        Field3D<float>& tend) {
  const int klo = patch.k.lo;
  const int khi = patch.k.hi;
  exec::LaunchParams lp;
  lp.name = "rk_scalar_tend";
  lp.collapse = 3;
  lp.flops_per_iter = kFlopsPerCell;
  AdvStats st = ex.parallel_reduce<AdvStats>(
      r, lp,
      [&](AdvStats& pt, int i, int k, int j) {
        // --- x fluxes at i-1/2 and i+1/2 ---
        double s[6];
        for (int m = 0; m < 6; ++m) s[m] = q(i - 3 + m, k, j);
        const double fxm = flux5(winds.u(i, k, j), s);
        for (int m = 0; m < 6; ++m) s[m] = q(i - 2 + m, k, j);
        const double fxp = flux5(winds.u(i, k, j), s);
        // --- y fluxes ---
        for (int m = 0; m < 6; ++m) s[m] = q(i, k, j - 3 + m);
        const double fym = flux5(winds.v(i, k, j), s);
        for (int m = 0; m < 6; ++m) s[m] = q(i, k, j - 2 + m);
        const double fyp = flux5(winds.v(i, k, j), s);
        // --- z fluxes (3rd order, zero through domain top/bottom) ---
        double fzm = 0.0, fzp = 0.0;
        if (k > klo + 1 && k < khi - 1) {
          double t4[4];
          for (int m = 0; m < 4; ++m) t4[m] = q(i, k - 2 + m, j);
          fzm = flux3(winds.w(i, k, j), t4);
          for (int m = 0; m < 4; ++m) t4[m] = q(i, k - 1 + m, j);
          fzp = flux3(winds.w(i, k + 1, j), t4);
        } else if (k > klo && k < khi) {
          // 1st-order upwind near the vertical boundaries.
          const double wm = winds.w(i, k, j);
          fzm = wm > 0 ? wm * q(i, k - 1, j) : wm * q(i, k, j);
          const double wp = winds.w(i, k + 1, j);
          fzp = wp > 0 ? wp * q(i, k, j) : wp * q(i, k + 1, j);
        }
        tend(i, k, j) = static_cast<float>(-(fxp - fxm) / cfg.dx -
                                           (fyp - fym) / cfg.dy -
                                           (fzp - fzm) / cfg.dz);
        ++pt.cells;
      });
  st.flops = static_cast<double>(st.cells) * kFlopsPerCell;
  return st;
}

AdvStats rk_scalar_tend_bins(exec::ExecSpace& ex, const grid::Patch& patch,
                             const exec::Range3& r, const Range& bins,
                             const Field4D<float>& q, const WindTable& winds,
                             const AdvConfig& cfg, Field4D<float>& tend) {
  if (r.empty()) return {};
  const int b0 = bins.lo;
  const int nb = bins.size();
  const int klo = patch.k.lo;
  const int khi = patch.k.hi;
  const int ni = r.i.size();
  const int nk = r.k.size();
  // First level whose k-1/2 face is its lower neighbour's carried k+1/2
  // face: both cells inside the range and both 3rd order.
  const int kcarry = std::max(r.k.lo + 1, klo + 3);
  const std::int64_t plane = r.plane();
  exec::LaunchParams lp;
  lp.name = "rk_scalar_tend_bins";
  lp.collapse = 3;
  lp.grain = plane * kSlabPlanes;
  lp.flops_per_iter = kFlopsPerCell;
  // One slab tile: planes [j0, j1) of the range.
  auto slab = [&](std::int64_t, std::int64_t begin, std::int64_t end) {
    if (nb == 0) return;
    const int j0 = r.j.lo + static_cast<int>(begin / plane);
    const int j1 = r.j.lo + static_cast<int>(end / plane);  // one past
    // u and v are uniform, which is also what makes a carried x or y
    // face equal to the one its far-side cell would compute.
    const double uu = winds.u(r.i.lo, r.k.lo, j0);
    const double vv = winds.v(r.i.lo, r.k.lo, j0);
    const double dx = cfg.dx;
    const double dy = cfg.dy;
    const double dz = cfg.dz;
    // Carried face fluxes, per bin: fy_at(i, k) the tile's j-1/2 faces,
    // fz_at(i) one plane's k-1/2 faces, fx one row's i-1/2 face.  The
    // buffer is per thread and only grows.
    const auto nbz = static_cast<std::size_t>(nb);
    const std::size_t ny_faces = static_cast<std::size_t>(ni) * nk * nbz;
    const std::size_t nz_faces = static_cast<std::size_t>(ni) * nbz;
    thread_local std::vector<double> scratch;
    if (scratch.size() < ny_faces + nz_faces + nbz) {
      scratch.resize(ny_faces + nz_faces + nbz);
    }
    double* const faces = scratch.data();
    double* const fx = faces + ny_faces + nz_faces;
    auto fy_at = [&](int i, int k) {
      return faces +
             (static_cast<std::size_t>(k - r.k.lo) * ni + (i - r.i.lo)) * nbz;
    };
    auto fz_at = [&](int i) {
      return faces + ny_faces + static_cast<std::size_t>(i - r.i.lo) * nbz;
    };
    // Bin b0 of the slice at (i, k, j): the bin loops run over [0, nb).
    auto at = [&](int i, int k, int j) { return q.slice(i, k, j) + b0; };

    // Seed the y faces at j0 - 1/2.
    for (int k = r.k.lo; k <= r.k.hi; ++k) {
      for (int i = r.i.lo; i <= r.i.hi; ++i) {
        const float* const ym3 = at(i, k, j0 - 3);
        const float* const ym2 = at(i, k, j0 - 2);
        const float* const ym1 = at(i, k, j0 - 1);
        const float* const c = at(i, k, j0);
        const float* const yp1 = at(i, k, j0 + 1);
        const float* const yp2 = at(i, k, j0 + 2);
        double* const fy = fy_at(i, k);
#pragma GCC ivdep
        for (int b = 0; b < nb; ++b) {
          const double s[6] = {ym3[b], ym2[b], ym1[b], c[b], yp1[b], yp2[b]};
          fy[b] = flux5(vv, s);
        }
      }
    }

    for (int j = j0; j < j1; ++j) {
      for (int k = r.k.lo; k <= r.k.hi; ++k) {
        // The vertical-flux case depends only on k.
        const bool third = k > klo + 1 && k < khi - 1;
        const bool first = !third && k > klo && k < khi;
        {
          // Seed the row's x face at i.lo - 1/2.
          const int i = r.i.lo;
          const float* const xm3 = at(i - 3, k, j);
          const float* const xm2 = at(i - 2, k, j);
          const float* const xm1 = at(i - 1, k, j);
          const float* const c = at(i, k, j);
          const float* const xp1 = at(i + 1, k, j);
          const float* const xp2 = at(i + 2, k, j);
#pragma GCC ivdep
          for (int b = 0; b < nb; ++b) {
            const double s[6] = {xm3[b], xm2[b], xm1[b],
                                 c[b],   xp1[b], xp2[b]};
            fx[b] = flux5(uu, s);
          }
        }
        if (third && k < kcarry) {
          // Seed the plane's z faces at k - 1/2.
          for (int i = r.i.lo; i <= r.i.hi; ++i) {
            const double wm = winds.w(i, k, j);
            const float* const zm2 = at(i, k - 2, j);
            const float* const zm1 = at(i, k - 1, j);
            const float* const c = at(i, k, j);
            const float* const zp1 = at(i, k + 1, j);
            double* const fz = fz_at(i);
#pragma GCC ivdep
            for (int b = 0; b < nb; ++b) {
              const double t[4] = {zm2[b], zm1[b], c[b], zp1[b]};
              fz[b] = flux3(wm, t);
            }
          }
        }
        for (int i = r.i.lo; i <= r.i.hi; ++i) {
          // The upwind-side slices of the x and y faces at +1/2.
          const float* const xm2 = at(i - 2, k, j);
          const float* const xm1 = at(i - 1, k, j);
          const float* const c = at(i, k, j);
          const float* const xp1 = at(i + 1, k, j);
          const float* const xp2 = at(i + 2, k, j);
          const float* const xp3 = at(i + 3, k, j);
          const float* const ym2 = at(i, k, j - 2);
          const float* const ym1 = at(i, k, j - 1);
          const float* const yp1 = at(i, k, j + 1);
          const float* const yp2 = at(i, k, j + 2);
          const float* const yp3 = at(i, k, j + 3);
          double* const fy = fy_at(i, k);
          float* const out = tend.slice(i, k, j) + b0;
          // Each bin loop reads the -1/2 faces from fx/fy(/fz), writes
          // its +1/2 faces back for the next cell, and evaluates the
          // tendency in rk_scalar_tend's operation order.  `tend` and
          // `q` are always distinct fields.
          if (third) {
            // 3rd-order upwind.
            const double wp = winds.w(i, k + 1, j);
            const float* const zm1 = at(i, k - 1, j);
            const float* const zp1 = at(i, k + 1, j);
            const float* const zp2 = at(i, k + 2, j);
            double* const fz = fz_at(i);
#pragma GCC ivdep
            for (int b = 0; b < nb; ++b) {
              const double sx[6] = {xm2[b], xm1[b], c[b],
                                    xp1[b], xp2[b], xp3[b]};
              const double sy[6] = {ym2[b], ym1[b], c[b],
                                    yp1[b], yp2[b], yp3[b]};
              const double t[4] = {zm1[b], c[b], zp1[b], zp2[b]};
              const double fxp = flux5(uu, sx);
              const double fyp = flux5(vv, sy);
              const double fzp = flux3(wp, t);
              const double ht = -(fxp - fx[b]) / dx - (fyp - fy[b]) / dy;
              out[b] = static_cast<float>(ht - (fzp - fz[b]) / dz);
              fx[b] = fxp;
              fy[b] = fyp;
              fz[b] = fzp;
            }
          } else if (first) {
            // 1st-order upwind near the vertical boundaries: the upwind
            // level of each interface is fixed by the sign of w there.
            const double wm = winds.w(i, k, j);
            const double wp = winds.w(i, k + 1, j);
            const float* const zm = wm > 0 ? at(i, k - 1, j) : c;
            const float* const zp = wp > 0 ? c : at(i, k + 1, j);
#pragma GCC ivdep
            for (int b = 0; b < nb; ++b) {
              const double sx[6] = {xm2[b], xm1[b], c[b],
                                    xp1[b], xp2[b], xp3[b]};
              const double sy[6] = {ym2[b], ym1[b], c[b],
                                    yp1[b], yp2[b], yp3[b]};
              const double fxp = flux5(uu, sx);
              const double fyp = flux5(vv, sy);
              const double fzm = wm * zm[b];
              const double fzp = wp * zp[b];
              const double ht = -(fxp - fx[b]) / dx - (fyp - fy[b]) / dy;
              out[b] = static_cast<float>(ht - (fzp - fzm) / dz);
              fx[b] = fxp;
              fy[b] = fyp;
            }
          } else {
            // Zero flux through the domain top and bottom.
            const double fzm = 0.0;
            const double fzp = 0.0;
#pragma GCC ivdep
            for (int b = 0; b < nb; ++b) {
              const double sx[6] = {xm2[b], xm1[b], c[b],
                                    xp1[b], xp2[b], xp3[b]};
              const double sy[6] = {ym2[b], ym1[b], c[b],
                                    yp1[b], yp2[b], yp3[b]};
              const double fxp = flux5(uu, sx);
              const double fyp = flux5(vv, sy);
              const double ht = -(fxp - fx[b]) / dx - (fyp - fy[b]) / dy;
              out[b] = static_cast<float>(ht - (fzp - fzm) / dz);
              fx[b] = fxp;
              fy[b] = fyp;
            }
          }
        }
      }
    }
  };
  ex.run_tiles(ex.plan_for(r, lp), lp, slab);
  AdvStats st;
  st.cells = static_cast<std::uint64_t>(r.size()) *
             static_cast<std::uint64_t>(nb);
  st.flops = static_cast<double>(st.cells) * kFlopsPerCell;
  return st;
}

AdvStats rk_update_scalar(exec::ExecSpace& ex, const grid::Patch& patch,
                          const Field3D<float>& q0, const Field3D<float>& tend,
                          double dt_stage, Field3D<float>& q) {
  exec::LaunchParams lp;
  lp.name = "rk_update_scalar";
  lp.collapse = 3;
  lp.flops_per_iter = 3.0;
  AdvStats st = ex.parallel_reduce<AdvStats>(
      exec::Range3{patch.ip, patch.k, patch.jp}, lp,
      [&](AdvStats& pt, int i, int k, int j) {
        const double v =
            static_cast<double>(q0(i, k, j)) + dt_stage * tend(i, k, j);
        q(i, k, j) = static_cast<float>(v > 0.0 ? v : 0.0);
        ++pt.cells;
      });
  st.flops = static_cast<double>(st.cells) * 3.0;
  return st;
}

AdvStats rk_update_scalar_bins(exec::ExecSpace& ex, const grid::Patch& patch,
                               const Range& bins, const Field4D<float>& q0,
                               const Field4D<float>& tend, double dt_stage,
                               Field4D<float>& q) {
  const int b0 = bins.lo;
  const int b1 = bins.lo + bins.size();  // one past the last bin
  exec::LaunchParams lp;
  lp.name = "rk_update_scalar_bins";
  lp.collapse = 3;
  lp.flops_per_iter = 3.0;
  AdvStats st = ex.parallel_reduce<AdvStats>(
      exec::Range3{patch.ip, patch.k, patch.jp}, lp,
      [&](AdvStats& pt, int i, int k, int j) {
        const float* s0 = q0.slice(i, k, j);
        const float* tn = tend.slice(i, k, j);
        float* out = q.slice(i, k, j);
        for (int b = b0; b < b1; ++b) {
          const double v = static_cast<double>(s0[b]) + dt_stage * tn[b];
          out[b] = static_cast<float>(v > 0.0 ? v : 0.0);
        }
        pt.cells += static_cast<std::uint64_t>(b1 - b0);
      });
  st.flops = static_cast<double>(st.cells) * 3.0;
  return st;
}

void LiveBinScan::add(const float* slices, std::size_t count,
                      float* copy_to) {
  // OR every value's bits into its bin's word: one vectorizable pass with
  // no per-value branch.
  const int n = static_cast<int>(bits_.size());
  std::uint32_t* const bits = bits_.data();
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t off = c * static_cast<std::size_t>(n);
    const float* s = slices + off;
    if (copy_to != nullptr) {
      float* d = copy_to + off;
      for (int b = 0; b < n; ++b) {
        d[b] = s[b];
        bits[b] |= std::bit_cast<std::uint32_t>(s[b]);
      }
    } else {
      for (int b = 0; b < n; ++b) bits[b] |= std::bit_cast<std::uint32_t>(s[b]);
    }
  }
}

Range LiveBinScan::hull() const noexcept {
  Range h;  // empty
  for (int b = 0; b < static_cast<int>(bits_.size()); ++b) {
    if (bits_[static_cast<std::size_t>(b)] == 0u) continue;
    if (h.hi < h.lo) h.lo = b;
    h.hi = b;
  }
  return h;
}

Range hull_union(const Range& a, const Range& b) noexcept {
  if (b.size() == 0) return a;
  if (a.size() == 0) return b;
  return Range{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

void fill_domain_boundaries(const grid::Patch& patch, Field3D<float>& q) {
  using grid::Side;
  const int h = patch.halo;
  if (patch.at_domain_edge(Side::kWest)) {
    for (int j = patch.jm.lo; j <= patch.jm.hi; ++j)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          q(patch.ip.lo - g, k, j) = q(patch.ip.lo, k, j);
  }
  if (patch.at_domain_edge(Side::kEast)) {
    for (int j = patch.jm.lo; j <= patch.jm.hi; ++j)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          q(patch.ip.hi + g, k, j) = q(patch.ip.hi, k, j);
  }
  if (patch.at_domain_edge(Side::kSouth)) {
    for (int i = patch.im.lo; i <= patch.im.hi; ++i)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          q(i, k, patch.jp.lo - g) = q(i, k, patch.jp.lo);
  }
  if (patch.at_domain_edge(Side::kNorth)) {
    for (int i = patch.im.lo; i <= patch.im.hi; ++i)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          q(i, k, patch.jp.hi + g) = q(i, k, patch.jp.hi);
  }
}

void fill_domain_boundaries_bins(const grid::Patch& patch,
                                 Field4D<float>& q) {
  using grid::Side;
  const int h = patch.halo;
  const int n = q.n();
  auto copy_slice = [&](int di, int dk, int dj, int si, int sk, int sj) {
    float* dst = q.slice(di, dk, dj);
    const float* src = q.slice(si, sk, sj);
    for (int b = 0; b < n; ++b) dst[b] = src[b];
  };
  if (patch.at_domain_edge(Side::kWest)) {
    for (int j = patch.jm.lo; j <= patch.jm.hi; ++j)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          copy_slice(patch.ip.lo - g, k, j, patch.ip.lo, k, j);
  }
  if (patch.at_domain_edge(Side::kEast)) {
    for (int j = patch.jm.lo; j <= patch.jm.hi; ++j)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          copy_slice(patch.ip.hi + g, k, j, patch.ip.hi, k, j);
  }
  if (patch.at_domain_edge(Side::kSouth)) {
    for (int i = patch.im.lo; i <= patch.im.hi; ++i)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          copy_slice(i, k, patch.jp.lo - g, i, k, patch.jp.lo);
  }
  if (patch.at_domain_edge(Side::kNorth)) {
    for (int i = patch.im.lo; i <= patch.im.hi; ++i)
      for (int k = patch.k.lo; k <= patch.k.hi; ++k)
        for (int g = 1; g <= h; ++g)
          copy_slice(i, k, patch.jp.hi + g, i, k, patch.jp.hi);
  }
}

}  // namespace wrf::dyn
