// Unit + property tests: rk_scalar_tend / rk_update_scalar / RK3.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dyn/advection.hpp"
#include "dyn/rk3.hpp"
#include "model/case_conus.hpp"
#include "model/halo.hpp"
#include "model/knobs.hpp"
#include "obs/export.hpp"
#include "par/simpi.hpp"
#include "util/rng.hpp"

namespace wrf::dyn {
namespace {

grid::Patch make_patch(int nx, int nz, int ny) {
  grid::Domain d{Range{1, nx}, Range{1, nz}, Range{1, ny}};
  return grid::decompose(d, 1, 1, 3)[0];
}

AnalyticWinds uniform_winds(const grid::Patch& p, double u, double v,
                            double wmax) {
  AnalyticWinds w;
  w.u0 = u;
  w.v0 = v;
  w.w_max = wmax;
  w.domain = p.domain;
  return w;
}

TEST(Advection, ConstantFieldHasZeroTendency) {
  const grid::Patch p = make_patch(20, 10, 16);
  Field3D<float> q(p.im, p.k, p.jm, 3.0f);
  Field3D<float> tend(p.im, p.k, p.jm);
  const AnalyticWinds winds = uniform_winds(p, 10.0, -5.0, 0.0);
  AdvConfig cfg;
  rk_scalar_tend(p, q, winds, cfg, tend);
  for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
        EXPECT_NEAR(tend(i, k, j), 0.0f, 1e-9f);
      }
    }
  }
}

TEST(Advection, GaussianMovesDownwind) {
  const grid::Patch p = make_patch(40, 6, 12);
  Field3D<float> q(p.im, p.k, p.jm, 0.0f);
  Field3D<float> q0(p.im, p.k, p.jm, 0.0f);
  Field3D<float> tend(p.im, p.k, p.jm);
  // Blob centered at i=15.
  for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.im.lo; i <= p.im.hi; ++i) {
        const double x = (i - 15.0) / 4.0;
        q(i, k, j) = static_cast<float>(std::exp(-x * x));
      }
    }
  }
  q0 = q;
  const AnalyticWinds winds = uniform_winds(p, 24.0, 0.0, 0.0);  // +x
  AdvConfig cfg;
  cfg.dx = 1000.0;
  auto center = [&](const Field3D<float>& f) {
    double num = 0.0, den = 0.0;
    for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
      num += i * f(i, 3, 6);
      den += f(i, 3, 6);
    }
    return num / den;
  };
  const double c_before = center(q);
  // A few forward-Euler steps with halo refresh.
  for (int step = 0; step < 10; ++step) {
    fill_domain_boundaries(p, q);
    rk_scalar_tend(p, q, winds, cfg, tend);
    rk_update_scalar(p, q, tend, 5.0, q);
  }
  const double c_after = center(q);
  // Expected displacement: u*t/dx = 24*50/1000 = 1.2 cells.
  EXPECT_NEAR(c_after - c_before, 1.2, 0.25);
  (void)q0;
}

TEST(Advection, UpdateIsPositiveDefinite) {
  const grid::Patch p = make_patch(12, 6, 10);
  Field3D<float> q0(p.im, p.k, p.jm, 1.0e-6f);
  Field3D<float> tend(p.im, p.k, p.jm, -1.0f);  // strong sink
  Field3D<float> q(p.im, p.k, p.jm);
  rk_update_scalar(p, q0, tend, 5.0, q);
  for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
        EXPECT_GE(q(i, k, j), 0.0f);
      }
    }
  }
}

TEST(Advection, UpdateArithmetic) {
  const grid::Patch p = make_patch(10, 5, 8);
  Field3D<float> q0(p.im, p.k, p.jm, 2.0f);
  Field3D<float> tend(p.im, p.k, p.jm, 0.5f);
  Field3D<float> q(p.im, p.k, p.jm);
  const AdvStats st = rk_update_scalar(p, q0, tend, 4.0, q);
  EXPECT_FLOAT_EQ(q(p.ip.lo, p.k.lo, p.jp.lo), 4.0f);
  EXPECT_EQ(st.cells, static_cast<std::uint64_t>(10) * 5 * 8);
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// A value no kernel computes, so an overwritten slot always shows.
constexpr float kSentinel = -7.25e30f;

/// The bin sub-ranges every bin-kernel gate covers: all bins, a single
/// bin, an interior [lo, hi] and an empty range (lo > hi).
std::vector<Range> bin_sub_ranges(int nb) {
  std::vector<Range> out = {Range{0, nb - 1}, Range{nb / 2, nb / 2},
                            Range{nb / 2, nb / 2 - 1}};
  if (nb >= 3) out.push_back(Range{1, nb - 2});
  return out;
}

// Bitwise gate for the bin-vectorized tendency: every bin of
// rk_scalar_tend_bins must reproduce rk_scalar_tend on that bin's 3-D
// field bit for bit, and bins outside the requested sub-range must keep
// their prior tendency contents.  nz = 6 puts every vertical-flux case
// in the column (zero flux at k = 1, 6; 1st-order upwind at k = 2, 5;
// 3rd order at k = 3, 4), both signs of w run both arms of the
// 1st-order edge flux, and the bin counts cover a single bin, a vector
// tail and WRF's 33.  The split variant computes the tendency the way
// halo=overlap dispatches it: the interior range, then the four shell
// pieces.
void expect_bins_match_scalar(int nb, double w_max, bool split,
                              const Range& bins) {
  const grid::Patch p = make_patch(16, 6, 12);
  Field4D<float> q4(nb, p.im, p.k, p.jm);
  Field4D<float> tend4(nb, p.im, p.k, p.jm, kSentinel);
  Field3D<float> q3(p.im, p.k, p.jm);
  Field3D<float> tend3(p.im, p.k, p.jm);
  // Bin b carries a shifted pattern that varies along all three axes.
  for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.im.lo; i <= p.im.hi; ++i) {
        for (int b = 0; b < nb; ++b) {
          q4(b, i, k, j) = static_cast<float>(
              std::sin(0.3 * i + 0.2 * j + 0.5 * k + b) + 2.0);
        }
      }
    }
  }
  const AnalyticWinds winds = uniform_winds(p, 7.0, 3.0, w_max);
  const WindTable table(winds, p);
  AdvConfig cfg;
  const exec::Range3 comp{p.ip, p.k, p.jp};
  AdvStats st;
  if (split) {
    st.merge(rk_scalar_tend_bins(exec::serial(), p,
                                 comp.interior(kStencilWidth), bins, q4,
                                 table, cfg, tend4));
    for (const auto& piece : comp.shell(kStencilWidth)) {
      st.merge(rk_scalar_tend_bins(exec::serial(), p, piece, bins, q4, table,
                                   cfg, tend4));
    }
  } else {
    st = rk_scalar_tend_bins(exec::serial(), p, comp, bins, q4, table, cfg,
                             tend4);
  }
  EXPECT_EQ(st.cells, static_cast<std::uint64_t>(comp.size()) * bins.size());
  for (int b = 0; b < nb; ++b) {
    for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.im.lo; i <= p.im.hi; ++i) {
          q3(i, k, j) = q4(b, i, k, j);
        }
      }
    }
    rk_scalar_tend(p, q3, winds, cfg, tend3);
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          const float want = bins.contains(b) ? tend3(i, k, j) : kSentinel;
          ASSERT_EQ(bits(tend4(b, i, k, j)), bits(want))
              << "nb=" << nb << " w_max=" << w_max << " split=" << split
              << " bins=[" << bins.lo << "," << bins.hi << "] at b=" << b
              << " i=" << i << " k=" << k << " j=" << j << ": "
              << tend4(b, i, k, j) << " vs " << want;
        }
      }
    }
  }
}

TEST(Advection, BinsVariantMatchesScalarPerBin) {
  for (const int nb : {1, 5, 33}) {
    for (const Range& bins : bin_sub_ranges(nb)) {
      for (const double w_max : {2.0, -2.0}) {
        for (const bool split : {false, true}) {
          expect_bins_match_scalar(nb, w_max, split, bins);
        }
      }
    }
  }
}

// Per-cell reference for rk_scalar_tend_bins: each cell evaluates all
// six of its face fluxes from its own stencil (the kernel computes each
// face once and hands it to the neighbour), with WRF's formulas and the
// kernel's operation order.
double oracle_flux5(double vel, const double q[6]) {
  const double f_c = (37.0 * (q[2] + q[3]) - 8.0 * (q[1] + q[4]) +
                      (q[0] + q[5])) /
                     60.0;
  const double f_u = ((q[5] - q[0]) - 5.0 * (q[4] - q[1]) +
                      10.0 * (q[3] - q[2])) /
                     60.0;
  return vel * f_c - std::abs(vel) * f_u;
}

double oracle_flux3(double vel, const double q[4]) {
  const double f_c = (7.0 * (q[1] + q[2]) - (q[0] + q[3])) / 12.0;
  const double f_u = ((q[3] - q[0]) - 3.0 * (q[2] - q[1])) / 12.0;
  return vel * f_c - std::abs(vel) * f_u;
}

void oracle_tend_bins(const grid::Patch& p, const exec::Range3& r,
                      const Range& bins, const Field4D<float>& q,
                      const WindTable& winds, const AdvConfig& cfg,
                      Field4D<float>& tend) {
  const int klo = p.k.lo;
  const int khi = p.k.hi;
  for (int j = r.j.lo; j <= r.j.hi; ++j) {
    for (int k = r.k.lo; k <= r.k.hi; ++k) {
      for (int i = r.i.lo; i <= r.i.hi; ++i) {
        for (int b = bins.lo; b <= bins.hi; ++b) {
          const auto at = [&](int ii, int kk, int jj) -> double {
            return q(b, ii, kk, jj);
          };
          double s[6];
          for (int m = 0; m < 6; ++m) s[m] = at(i - 3 + m, k, j);
          const double fxm = oracle_flux5(winds.u(i, k, j), s);
          for (int m = 0; m < 6; ++m) s[m] = at(i - 2 + m, k, j);
          const double fxp = oracle_flux5(winds.u(i, k, j), s);
          for (int m = 0; m < 6; ++m) s[m] = at(i, k, j - 3 + m);
          const double fym = oracle_flux5(winds.v(i, k, j), s);
          for (int m = 0; m < 6; ++m) s[m] = at(i, k, j - 2 + m);
          const double fyp = oracle_flux5(winds.v(i, k, j), s);
          const double wm = winds.w(i, k, j);
          const double wp = winds.w(i, k + 1, j);
          double fzm = 0.0, fzp = 0.0;
          if (k > klo + 1 && k < khi - 1) {
            double t[4];
            for (int m = 0; m < 4; ++m) t[m] = at(i, k - 2 + m, j);
            fzm = oracle_flux3(wm, t);
            for (int m = 0; m < 4; ++m) t[m] = at(i, k - 1 + m, j);
            fzp = oracle_flux3(wp, t);
          } else if (k > klo && k < khi) {
            fzm = wm > 0 ? wm * at(i, k - 1, j) : wm * at(i, k, j);
            fzp = wp > 0 ? wp * at(i, k, j) : wp * at(i, k + 1, j);
          }
          const double ht = -(fxp - fxm) / cfg.dx - (fyp - fym) / cfg.dy;
          tend(b, i, k, j) = static_cast<float>(ht - (fzp - fzm) / cfg.dz);
        }
      }
    }
  }
}

/// Describes a range for a failure message.
std::string range_text(const exec::Range3& r) {
  return "i=[" + std::to_string(r.i.lo) + "," + std::to_string(r.i.hi) +
         "] k=[" + std::to_string(r.k.lo) + "," + std::to_string(r.k.hi) +
         "] j=[" + std::to_string(r.j.lo) + "," + std::to_string(r.j.hi) +
         "]";
}

// The face-once kernel against the per-cell oracle, by memcmp of the
// whole tendency field (halo and bins outside the sub-range must keep
// the sentinel), on a seeded random field holding +0.0, -0.0 and both
// signs.  nz = 7 puts every vertical-flux case in the column (zero flux
// at k = 1, 7; 1st order at 2, 6; 3rd order at 3..5, two of them
// carried), and ny = 13 leaves a short last slab tile.  The ranges
// cover the full range, interior(3) and each shell(3) piece, 1-cell
// i and j ranges, and k ranges starting, ending and consisting at each
// level.  w takes both signs and is zero outside the updraft core.
TEST(Advection, FaceOnceTendMatchesPerCellOracleBitwise) {
  const grid::Patch p = make_patch(11, 7, 13);
  const int nb = 9;
  Field4D<float> q(nb, p.im, p.k, p.jm);
  Rng rng(20241119);
  for (std::size_t n = 0; n < q.size(); ++n) {
    const std::uint64_t pick = rng.bounded(8);
    float v = static_cast<float>(rng.uniform(-1.0e-3, 4.0e-3));
    if (pick == 0) v = 0.0f;
    if (pick == 1) v = -0.0f;
    q.data()[n] = v;
  }
  const exec::Range3 comp{p.ip, p.k, p.jp};
  std::vector<exec::Range3> ranges = {comp, comp.interior(kStencilWidth)};
  for (const auto& piece : comp.shell(kStencilWidth)) ranges.push_back(piece);
  for (const int i : {p.ip.lo, p.ip.lo + 4, p.ip.hi}) {
    ranges.push_back(exec::Range3{Range{i, i}, p.k, p.jp});
  }
  for (const int j : {p.jp.lo, p.jp.lo + 5, p.jp.hi}) {
    ranges.push_back(exec::Range3{p.ip, p.k, Range{j, j}});
  }
  ranges.push_back(exec::Range3{Range{5, 5}, p.k, Range{6, 6}});
  for (int k = p.k.lo; k <= p.k.hi; ++k) {
    ranges.push_back(exec::Range3{p.ip, Range{k, k}, p.jp});
    ranges.push_back(exec::Range3{p.ip, Range{k, p.k.hi}, p.jp});
    ranges.push_back(exec::Range3{p.ip, Range{p.k.lo, k}, p.jp});
  }
  exec::ThreadedSpace threads(3);
  const std::vector<Range> bin_ranges = {Range{0, nb - 1}, Range{2, 6}};
  AdvConfig cfg;
  for (const double w_max : {5.0, -5.0}) {
    AnalyticWinds winds = uniform_winds(p, 7.0, -3.0, w_max);
    winds.radius = 0.3;
    const WindTable table(winds, p);
    for (exec::ExecSpace* ex : {&exec::serial(),
                                static_cast<exec::ExecSpace*>(&threads)}) {
      for (const Range& bins : bin_ranges) {
        for (const exec::Range3& r : ranges) {
          SCOPED_TRACE(std::string(ex->name()) + " w_max=" +
                       std::to_string(w_max) + " bins=[" +
                       std::to_string(bins.lo) + "," +
                       std::to_string(bins.hi) + "] " + range_text(r));
          Field4D<float> got(nb, p.im, p.k, p.jm, kSentinel);
          Field4D<float> want(nb, p.im, p.k, p.jm, kSentinel);
          const AdvStats st =
              rk_scalar_tend_bins(*ex, p, r, bins, q, table, cfg, got);
          oracle_tend_bins(p, r, bins, q, table, cfg, want);
          EXPECT_EQ(st.cells,
                    static_cast<std::uint64_t>(r.size()) * bins.size());
          EXPECT_EQ(st.flops, static_cast<double>(st.cells) * 66.0);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0);
        }
      }
    }
  }
}

TEST(Advection, UpdateBinsOverSubRangesBitwise) {
  // rk_update_scalar_bins over a bin sub-range must compute every bin in
  // it bitwise as the 3-D update does, leave every other bin of q
  // untouched, and count only the bins it ran.
  const grid::Patch p = make_patch(10, 5, 8);
  const int nb = 9;
  Field4D<float> q0(nb, p.im, p.k, p.jm);
  Field4D<float> tend(nb, p.im, p.k, p.jm);
  for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.im.lo; i <= p.im.hi; ++i) {
        for (int b = 0; b < nb; ++b) {
          q0(b, i, k, j) = static_cast<float>(
              1.0e-3 * (1.0 + std::sin(0.7 * i + 0.3 * j + k + b)));
          tend(b, i, k, j) = static_cast<float>(
              -2.0e-4 * std::cos(0.4 * i - 0.9 * j + 0.2 * k + b));
        }
      }
    }
  }
  const double dt = 5.0;
  const exec::Range3 comp{p.ip, p.k, p.jp};
  for (const Range& bins : bin_sub_ranges(nb)) {
    Field4D<float> q(nb, p.im, p.k, p.jm, kSentinel);
    const AdvStats st =
        rk_update_scalar_bins(exec::serial(), p, bins, q0, tend, dt, q);
    EXPECT_EQ(st.cells,
              static_cast<std::uint64_t>(comp.size()) * bins.size());
    for (int b = 0; b < nb; ++b) {
      Field3D<float> q03(p.im, p.k, p.jm), tend3(p.im, p.k, p.jm);
      Field3D<float> q3(p.im, p.k, p.jm, kSentinel);
      for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
        for (int k = p.k.lo; k <= p.k.hi; ++k) {
          for (int i = p.im.lo; i <= p.im.hi; ++i) {
            q03(i, k, j) = q0(b, i, k, j);
            tend3(i, k, j) = tend(b, i, k, j);
          }
        }
      }
      if (bins.contains(b)) rk_update_scalar(p, q03, tend3, dt, q3);
      for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
        for (int k = p.k.lo; k <= p.k.hi; ++k) {
          for (int i = p.im.lo; i <= p.im.hi; ++i) {
            ASSERT_EQ(bits(q(b, i, k, j)), bits(q3(i, k, j)))
                << "bins=[" << bins.lo << "," << bins.hi << "] at b=" << b
                << " i=" << i << " k=" << k << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(Advection, LiveBinHullReadsBitPatterns) {
  const int n = 6;
  std::vector<float> v(3 * n, 0.0f);
  EXPECT_EQ(live_bin_hull(v.data(), 3, n).size(), 0);
  v[1 * n + 4] = -0.0f;  // a stored -0.0 is live
  EXPECT_EQ(live_bin_hull(v.data(), 3, n), (Range{4, 4}));
  v[2 * n + 1] = 1.0e-30f;
  EXPECT_EQ(live_bin_hull(v.data(), 3, n), (Range{1, 4}));
  // Accumulated over several adds, copying only the middle slice.
  std::vector<float> copy(v.size(), kSentinel);
  LiveBinScan scan(n);
  scan.add(v.data(), 1);
  scan.add(v.data() + n, 1, copy.data() + n);
  EXPECT_EQ(scan.hull(), (Range{4, 4}));
  scan.add(v.data() + 2 * n, 1);
  EXPECT_EQ(scan.hull(), (Range{1, 4}));
  for (std::size_t m = 0; m < v.size(); ++m) {
    const bool copied = m >= static_cast<std::size_t>(n) &&
                        m < static_cast<std::size_t>(2 * n);
    EXPECT_EQ(bits(copy[m]), bits(copied ? v[m] : kSentinel)) << "slot " << m;
  }
  EXPECT_EQ(hull_union(Range{}, Range{2, 3}), (Range{2, 3}));
  EXPECT_EQ(hull_union(Range{2, 3}, Range{5, 1}), (Range{2, 3}));
  EXPECT_EQ(hull_union(Range{2, 3}, Range{0, 0}), (Range{0, 3}));
}

TEST(Advection, BoundaryFillZeroGradient) {
  const grid::Patch p = make_patch(10, 5, 8);
  Field3D<float> q(p.im, p.k, p.jm, 0.0f);
  for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
        q(i, k, j) = static_cast<float>(i + 10 * j);
      }
    }
  }
  fill_domain_boundaries(p, q);
  for (int k = p.k.lo; k <= p.k.hi; ++k) {
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int g = 1; g <= p.halo; ++g) {
        EXPECT_FLOAT_EQ(q(p.ip.lo - g, k, j), q(p.ip.lo, k, j));
        EXPECT_FLOAT_EQ(q(p.ip.hi + g, k, j), q(p.ip.hi, k, j));
      }
    }
  }
}

TEST(Winds, UpdraftShapedLikeAStorm) {
  const grid::Patch p = make_patch(40, 20, 40);
  AnalyticWinds w;
  w.domain = p.domain;
  // Max near the core center mid-level; ~0 far away and at the surface.
  const int ic = 20, jc = 20;
  EXPECT_GT(w.w(ic, 10, jc), 0.5 * w.w_max);
  EXPECT_NEAR(w.w(2, 10, 2), 0.0, 1e-6);
  EXPECT_LT(w.w(ic, 1, jc), w.w(ic, 10, jc));
}

TEST(Winds, TableHoldsAnalyticWBitwise) {
  // The tabulated w must be the very doubles AnalyticWinds::w returns at
  // every face the stencils read, the top face k.hi + 1 included, on a
  // decomposed patch whose core straddles the rank edge.
  grid::Domain d{Range{1, 24}, Range{1, 10}, Range{1, 18}};
  for (const grid::Patch& p : grid::decompose(d, 2, 2, 3)) {
    AnalyticWinds w;
    w.domain = p.domain;
    w.yc = 0.42;
    const WindTable table(w, p);
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi + 1; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(table.w(i, k, j)),
                    std::bit_cast<std::uint64_t>(w.w(i, k, j)))
              << "i=" << i << " k=" << k << " j=" << j;
        }
      }
    }
    EXPECT_EQ(table.u(p.ip.lo, p.k.lo, p.jp.lo), w.u0);
    EXPECT_EQ(table.v(p.ip.lo, p.k.lo, p.jp.lo), w.v0);
  }
}

TEST(Rk3, ConservesTracerWithPeriodicLikeInterior) {
  // RK3 over a case state: total qv changes only through boundaries;
  // with zero winds it must be exactly conserved.
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 10;
  cfg.npx = cfg.npy = 1;
  const grid::Patch p = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  fsbm::MicroState state(p, cfg.nkr);
  model::init_case_conus(cfg, state);
  const WindTable winds(uniform_winds(p, 0.0, 0.0, 0.0), p);
  Rk3 rk3(p, cfg.nkr, AdvConfig{}, cfg.dt);
  double qv0 = 0.0;
  for (int j = p.jp.lo; j <= p.jp.hi; ++j)
    for (int k = p.k.lo; k <= p.k.hi; ++k)
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) qv0 += state.qv(i, k, j);
  HaloFillFn halo([&](fsbm::MicroState& s) {
    fill_domain_boundaries(p, s.qv);
    for (auto& f : s.ff) fill_domain_boundaries_bins(p, f);
  });
  obs::TraceSink sink;
  {
    obs::ScopedActive on(&sink);
    rk3.step(state, winds, halo);
  }
  double qv1 = 0.0;
  for (int j = p.jp.lo; j <= p.jp.hi; ++j)
    for (int k = p.k.lo; k <= p.k.hi; ++k)
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) qv1 += state.qv(i, k, j);
  EXPECT_NEAR(qv1, qv0, qv0 * 1e-6);
  const std::vector<obs::FlatRow> rows = obs::flat_profile(sink.drain());
  EXPECT_EQ(obs::flat_row(rows, "pass/rk_scalar_tend").calls, 3u);
  EXPECT_EQ(obs::flat_row(rows, "pass/rk_update_scalar").calls, 3u);
}

// ------------------------------------------- live-bin hull in Rk3::step
//
// Each gate steps dyn::Rk3 (which advects only the live-bin hull) and an
// in-test reference RK3 that advects every bin, from the same state, and
// requires the results to match bit for bit.

constexpr int kNb = 12;
constexpr double kDt = 5.0;

float pattern(int s, int b, int i, int k, int j) {
  return static_cast<float>(
      1.0e-3 * (1.1 + std::sin(0.37 * i + 0.23 * j + 0.5 * k + 0.7 * b + s)));
}

/// Species s holds a positive pattern in bins [s, s + 4] over the cells
/// (ir x all k x jr); species 3 stays dead.  qv gets a pattern too.
void seed_state(fsbm::MicroState& st, const Range& ir, const Range& jr) {
  for (int j = jr.lo; j <= jr.hi; ++j) {
    for (int k = st.patch.k.lo; k <= st.patch.k.hi; ++k) {
      for (int i = ir.lo; i <= ir.hi; ++i) {
        st.qv(i, k, j) = 10.0f * pattern(-1, 0, i, k, j);
        for (int s = 0; s < fsbm::kNumSpecies; ++s) {
          if (s == 3) continue;
          for (int b = s; b <= s + 4; ++b) {
            st.ff[static_cast<std::size_t>(s)](b, i, k, j) =
                pattern(s, b, i, k, j);
          }
        }
      }
    }
  }
}

/// Zero bin b of species s over the whole memory extent.
void clear_bin(fsbm::MicroState& st, int s, int b) {
  Field4D<float>& f = st.ff[static_cast<std::size_t>(s)];
  const grid::Patch& p = st.patch;
  for (int j = p.jm.lo; j <= p.jm.hi; ++j)
    for (int k = p.k.lo; k <= p.k.hi; ++k)
      for (int i = p.im.lo; i <= p.im.hi; ++i) f(b, i, k, j) = 0.0f;
}

std::function<void(fsbm::MicroState&)> boundary_fill(const grid::Patch& p) {
  return [p](fsbm::MicroState& s) {
    fill_domain_boundaries(p, s.qv);
    for (auto& f : s.ff) fill_domain_boundaries_bins(p, f);
  };
}

/// The all-bins RK3 step: every bin of every species is advected and
/// updated, whatever it holds.
void reference_rk3(fsbm::MicroState& st, const WindTable& winds,
                   const std::function<void(fsbm::MicroState&)>& refresh) {
  const grid::Patch& p = st.patch;
  const exec::Range3 comp{p.ip, p.k, p.jp};
  const AdvConfig cfg;
  const Range all{0, kNb - 1};
  const Field3D<float> qv0 = st.qv;
  const std::array<Field4D<float>, fsbm::kNumSpecies> ff0 = st.ff;
  Field3D<float> qv_tend(p.im, p.k, p.jm);
  std::array<Field4D<float>, fsbm::kNumSpecies> tends;
  for (auto& t : tends) t = Field4D<float>(kNb, p.im, p.k, p.jm);
  const double stage_dt[3] = {kDt / 3.0, kDt / 2.0, kDt};
  for (const double dt : stage_dt) {
    refresh(st);
    rk_scalar_tend(exec::serial(), p, comp, st.qv, winds, cfg, qv_tend);
    for (std::size_t s = 0; s < tends.size(); ++s) {
      rk_scalar_tend_bins(exec::serial(), p, comp, all, st.ff[s], winds, cfg,
                          tends[s]);
    }
    rk_update_scalar(exec::serial(), p, qv0, qv_tend, dt, st.qv);
    for (std::size_t s = 0; s < tends.size(); ++s) {
      rk_update_scalar_bins(exec::serial(), p, all, ff0[s], tends[s], dt,
                            st.ff[s]);
    }
  }
}

/// `got`'s computational cells (qv and every bin) equal `want`'s, bit for
/// bit; `want` may cover a larger patch with the same global indexing.
void expect_comp_bitwise(const fsbm::MicroState& got,
                         const fsbm::MicroState& want,
                         const std::string& what) {
  const grid::Patch& p = got.patch;
  for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
        ASSERT_EQ(bits(got.qv(i, k, j)), bits(want.qv(i, k, j)))
            << what << ": qv at i=" << i << " k=" << k << " j=" << j;
        for (int s = 0; s < fsbm::kNumSpecies; ++s) {
          const auto f = static_cast<std::size_t>(s);
          for (int b = 0; b < kNb; ++b) {
            ASSERT_EQ(bits(got.ff[f](b, i, k, j)),
                      bits(want.ff[f](b, i, k, j)))
                << what << ": species " << s << " bin " << b << " at i=" << i
                << " k=" << k << " j=" << j << ": " << got.ff[f](b, i, k, j)
                << " vs " << want.ff[f](b, i, k, j);
          }
        }
      }
    }
  }
}

/// One single-patch step of both Rk3 (`rk3`, state `hull`) and the
/// reference (state `ref`), then the bitwise comparison.
Rk3Stats step_both(Rk3& rk3, fsbm::MicroState& hull, fsbm::MicroState& ref,
                   const WindTable& winds, const std::string& what) {
  HaloFillFn fill(boundary_fill(hull.patch));
  const Rk3Stats st = rk3.step(hull, winds, fill);
  reference_rk3(ref, winds, boundary_fill(ref.patch));
  expect_comp_bitwise(hull, ref, what);
  return st;
}

TEST(Rk3Hull, StoredNegativeZeroIsLive) {
  // A -0.0 is a non-zero bit pattern: its bin is live, and the update
  // turns it into +0.0 as the all-bins step does.
  const grid::Patch p = make_patch(16, 8, 12);
  fsbm::MicroState hull(p, kNb);
  seed_state(hull, p.im, p.jm);
  hull.ff[3](5, 8, 4, 6) = -0.0f;  // species 3 is otherwise dead
  fsbm::MicroState ref = hull;
  const WindTable winds(uniform_winds(p, 9.0, -4.0, 3.0), p);
  Rk3 rk3(p, kNb, AdvConfig{}, kDt);
  step_both(rk3, hull, ref, winds, "-0.0");
  EXPECT_EQ(rk3.live_bins()[3], (Range{5, 5}));
  EXPECT_EQ(bits(hull.ff[3](5, 8, 4, 6)), 0u);
}

TEST(Rk3Hull, SingleLiveCellAndExecutedWorkCounts) {
  const grid::Patch p = make_patch(16, 8, 12);
  fsbm::MicroState hull(p, kNb);
  seed_state(hull, p.im, p.jm);
  for (int b = 0; b < kNb; ++b) clear_bin(hull, 2, b);
  hull.ff[2](7, 9, 5, 4) = 2.5e-3f;
  fsbm::MicroState ref = hull;
  const WindTable winds(uniform_winds(p, -6.0, 5.0, -2.0), p);
  Rk3 rk3(p, kNb, AdvConfig{}, kDt);
  const Rk3Stats st = step_both(rk3, hull, ref, winds, "single live cell");
  EXPECT_EQ(rk3.live_bins()[2], (Range{7, 7}));
  EXPECT_EQ(rk3.live_bins()[3].size(), 0);
  // dyn.cells counts executed work: qv plus the live bins, per stage.
  std::uint64_t per_cell = 1;
  for (const Range& h : rk3.live_bins()) per_cell += h.size();
  const auto comp = static_cast<std::uint64_t>(
      exec::Range3{p.ip, p.k, p.jp}.size());
  EXPECT_EQ(per_cell, 1u + 5u * 5u + 1u);
  EXPECT_EQ(st.tend.cells, 3 * comp * per_cell);
  EXPECT_EQ(st.update.cells, 3 * comp * per_cell);
}

TEST(Rk3Hull, ShrinkingHullNeverReadsDepartedBins) {
  // Step 1 fills ff_tend_ for bins [s, s + 4]; bins s + 2.. then die, so
  // step 2's hull is [s, s + 1] and the stale tendencies of the departed
  // bins must not be read.  Step 3 regrows a bin past the old hull.
  const grid::Patch p = make_patch(16, 8, 12);
  fsbm::MicroState hull(p, kNb);
  seed_state(hull, p.im, p.jm);
  fsbm::MicroState ref = hull;
  const WindTable winds(uniform_winds(p, 11.0, 3.0, 4.0), p);
  Rk3 rk3(p, kNb, AdvConfig{}, kDt);
  step_both(rk3, hull, ref, winds, "step 1");
  EXPECT_EQ(rk3.live_bins()[0], (Range{0, 4}));
  for (fsbm::MicroState* st : {&hull, &ref}) {
    for (int s = 0; s < fsbm::kNumSpecies; ++s) {
      for (int b = s + 2; b <= s + 4; ++b) clear_bin(*st, s, b);
    }
  }
  step_both(rk3, hull, ref, winds, "step 2 (shrunk)");
  EXPECT_EQ(rk3.live_bins()[0], (Range{0, 1}));
  for (fsbm::MicroState* st : {&hull, &ref}) st->ff[0](9, 6, 3, 5) = 1.0e-3f;
  step_both(rk3, hull, ref, winds, "step 3 (regrown)");
  EXPECT_EQ(rk3.live_bins()[0], (Range{0, 9}));
}

/// The driver's phased refresh restated over a HaloExchange plan:
/// exchange, widen the hulls by what the unpack brought in, then fill
/// the domain edges.
class ExchangePhases final : public HaloPhases {
 public:
  ExchangePhases(par::RankCtx& ctx, model::HaloExchange& ex)
      : ctx_(ctx), ex_(ex) {}
  void begin(fsbm::MicroState&) override { ex_.begin(ctx_); }
  void finish(fsbm::MicroState& s, LiveBins& live) override {
    ex_.finish(ctx_);
    for (std::size_t f = 0; f < live.size(); ++f) {
      live[f] = hull_union(live[f], ex_.unpacked_bins(static_cast<int>(f) + 1));
    }
    boundary_fill(s.patch)(s);
  }

 private:
  par::RankCtx& ctx_;
  model::HaloExchange& ex_;
};

TEST(Rk3Hull, BinJoinsThroughHaloStrip) {
  // Two ranks split x at i = 8.  After step A, three (species, bin)
  // planes are cleared everywhere except global columns i = 9, 10, rank
  // 1's cells next to the cut: the bottom and top bins of species 1 and
  // the one bin species 3 holds.  At step B rank 0's hulls lack them
  // (species 1 shrinks to [2, 4], species 3 is dead) until the stage-0
  // halo strip brings them in, joining below, above and into an empty
  // hull.  Under halo=overlap rank 0's interior tiles ran before that,
  // over stale step-A tendencies.  Both modes must equal the
  // single-patch reference.
  struct Plane {
    int species, bin;
  };
  constexpr Plane kPlanes[] = {{1, 1}, {1, 5}, {3, 6}};
  const grid::Domain d{Range{1, 16}, Range{1, 8}, Range{1, 10}};
  const auto patches = grid::decompose(d, 2, 1, 3);
  const auto rewrite = [&](fsbm::MicroState& st) {
    const grid::Patch& p = st.patch;
    for (const Plane& pl : kPlanes) {
      clear_bin(st, pl.species, pl.bin);
      for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
        for (int k = p.k.lo; k <= p.k.hi; ++k) {
          for (int i = std::max(p.ip.lo, 9); i <= std::min(p.ip.hi, 10);
               ++i) {
            st.ff[static_cast<std::size_t>(pl.species)](pl.bin, i, k, j) =
                pattern(pl.species + 1, pl.bin, i, k, j);
          }
        }
      }
    }
  };
  // Species 3 (dead in seed_state) holds bin 6 only.
  const auto seed = [](fsbm::MicroState& st, const Range& ir,
                       const Range& jr) {
    seed_state(st, ir, jr);
    for (int j = jr.lo; j <= jr.hi; ++j)
      for (int k = st.patch.k.lo; k <= st.patch.k.hi; ++k)
        for (int i = ir.lo; i <= ir.hi; ++i)
          st.ff[3](6, i, k, j) = pattern(3, 6, i, k, j);
  };
  const auto winds_on = [](const grid::Patch& p) {
    return WindTable(uniform_winds(p, -9.0, 2.0, 3.0), p);
  };

  const grid::Patch whole = grid::decompose(d, 1, 1, 3)[0];
  fsbm::MicroState ref(whole, kNb);
  seed(ref, whole.im, whole.jm);
  const WindTable ref_winds = winds_on(whole);
  reference_rk3(ref, ref_winds, boundary_fill(whole));
  rewrite(ref);
  reference_rk3(ref, ref_winds, boundary_fill(whole));
  // The planes did reach rank 0's cells next to the cut.
  for (const Plane& pl : kPlanes) {
    EXPECT_NE(bits(ref.ff[static_cast<std::size_t>(pl.species)](pl.bin, 8,
                                                                4, 5)),
              0u);
  }

  for (const HaloMode mode : {HaloMode::kSync, HaloMode::kOverlap}) {
    std::vector<std::optional<fsbm::MicroState>> out(patches.size());
    std::vector<LiveBins> joined(patches.size());
    par::run(2, [&](par::RankCtx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      const grid::Patch& p = patches[r];
      fsbm::MicroState st(p, kNb);
      seed(st, p.ip, p.jp);
      model::HaloExchange ex(p);
      ex.add(&st.qv);
      for (auto& f : st.ff) ex.add_bins(&f);
      ExchangePhases phases(ctx, ex);
      const WindTable winds = winds_on(p);
      Rk3 rk3(p, kNb, AdvConfig{}, kDt, nullptr, mode);
      rk3.step(st, winds, phases);
      rewrite(st);
      rk3.step(st, winds, phases);
      joined[r] = rk3.live_bins();
      out[r] = std::move(st);
    });
    for (std::size_t r = 0; r < out.size(); ++r) {
      expect_comp_bitwise(*out[r], ref,
                          "halo=" + model::knob_name("halo", mode) +
                              " rank " + std::to_string(r));
    }
    EXPECT_EQ(joined[0][1], (Range{1, 5})) << model::knob_name("halo", mode);
    EXPECT_EQ(joined[0][3], (Range{6, 6})) << model::knob_name("halo", mode);
  }
}

}  // namespace
}  // namespace wrf::dyn
