#include "dyn/advection.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

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
  const int b0 = bins.lo;
  const int b1 = bins.lo + bins.size();  // one past the last bin
  const int klo = patch.k.lo;
  const int khi = patch.k.hi;
  exec::LaunchParams lp;
  lp.name = "rk_scalar_tend_bins";
  lp.collapse = 3;
  lp.flops_per_iter = kFlopsPerCell;
  AdvStats st = ex.parallel_reduce<AdvStats>(
      r, lp,
      [&](AdvStats& pt, int i, int k, int j) {
        const double uu = winds.u(i, k, j);
        const double vv = winds.v(i, k, j);
        const double wm = winds.w(i, k, j);
        const double wp = winds.w(i, k + 1, j);
        const double dx = cfg.dx;
        const double dy = cfg.dy;
        const double dz = cfg.dz;
        // The 13 slices of the horizontal stencil (bin-fastest layout):
        // x at i-3..i+3 and y at j-3..j+3, sharing the center c.
        const float* const xm3 = q.slice(i - 3, k, j);
        const float* const xm2 = q.slice(i - 2, k, j);
        const float* const xm1 = q.slice(i - 1, k, j);
        const float* const c = q.slice(i, k, j);
        const float* const xp1 = q.slice(i + 1, k, j);
        const float* const xp2 = q.slice(i + 2, k, j);
        const float* const xp3 = q.slice(i + 3, k, j);
        const float* const ym3 = q.slice(i, k, j - 3);
        const float* const ym2 = q.slice(i, k, j - 2);
        const float* const ym1 = q.slice(i, k, j - 1);
        const float* const yp1 = q.slice(i, k, j + 1);
        const float* const yp2 = q.slice(i, k, j + 2);
        const float* const yp3 = q.slice(i, k, j + 3);
        // -(fxp - fxm)/dx - (fyp - fym)/dy of bin b: the leading terms
        // of the tendency, in the order rk_scalar_tend evaluates them.
        auto horizontal = [&](int b) {
          const double sxm[6] = {xm3[b], xm2[b], xm1[b], c[b], xp1[b], xp2[b]};
          const double sxp[6] = {xm2[b], xm1[b], c[b], xp1[b], xp2[b], xp3[b]};
          const double sym[6] = {ym3[b], ym2[b], ym1[b], c[b], yp1[b], yp2[b]};
          const double syp[6] = {ym2[b], ym1[b], c[b], yp1[b], yp2[b], yp3[b]};
          const double fxm = flux5(uu, sxm);
          const double fxp = flux5(uu, sxp);
          const double fym = flux5(vv, sym);
          const double fyp = flux5(vv, syp);
          return -(fxp - fxm) / dx - (fyp - fym) / dy;
        };
        float* const out = tend.slice(i, k, j);
        // The vertical-flux case depends only on k, so each case is its
        // own bin loop.  `tend` and `q` are always distinct fields.
        if (k > klo + 1 && k < khi - 1) {
          // 3rd-order upwind.
          const float* const zm2 = q.slice(i, k - 2, j);
          const float* const zm1 = q.slice(i, k - 1, j);
          const float* const zp1 = q.slice(i, k + 1, j);
          const float* const zp2 = q.slice(i, k + 2, j);
#pragma GCC ivdep
          for (int b = b0; b < b1; ++b) {
            const double ht = horizontal(b);
            const double tm[4] = {zm2[b], zm1[b], c[b], zp1[b]};
            const double tp[4] = {zm1[b], c[b], zp1[b], zp2[b]};
            const double fzm = flux3(wm, tm);
            const double fzp = flux3(wp, tp);
            out[b] = static_cast<float>(ht - (fzp - fzm) / dz);
          }
        } else if (k > klo && k < khi) {
          // 1st-order upwind near the vertical boundaries: the upwind
          // level of each interface is fixed by the sign of w there.
          const float* const zm = wm > 0 ? q.slice(i, k - 1, j) : c;
          const float* const zp = wp > 0 ? c : q.slice(i, k + 1, j);
#pragma GCC ivdep
          for (int b = b0; b < b1; ++b) {
            const double ht = horizontal(b);
            const double fzm = wm * zm[b];
            const double fzp = wp * zp[b];
            out[b] = static_cast<float>(ht - (fzp - fzm) / dz);
          }
        } else {
          // Zero flux through the domain top and bottom.
          const double fzm = 0.0;
          const double fzp = 0.0;
#pragma GCC ivdep
          for (int b = b0; b < b1; ++b) {
            const double ht = horizontal(b);
            out[b] = static_cast<float>(ht - (fzp - fzm) / dz);
          }
        }
        pt.cells += static_cast<std::uint64_t>(b1 - b0);
      });
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
