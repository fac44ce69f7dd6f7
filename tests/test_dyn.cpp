// Unit + property tests: rk_scalar_tend / rk_update_scalar / RK3.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "dyn/advection.hpp"
#include "dyn/rk3.hpp"
#include "model/case_conus.hpp"
#include "obs/export.hpp"

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

// Bitwise gate for the bin-vectorized tendency: every bin of
// rk_scalar_tend_bins must reproduce rk_scalar_tend on that bin's 3-D
// field bit for bit.  nz = 6 puts every vertical-flux case in the column
// (zero flux at k = 1, 6; 1st-order upwind at k = 2, 5; 3rd order at
// k = 3, 4), both signs of w run both arms of the 1st-order edge flux,
// and the bin counts cover a single bin, a vector tail and WRF's 33.
// The split variant computes the tendency the way halo=overlap
// dispatches it: the interior range, then the four shell pieces.
void expect_bins_match_scalar(int nb, double w_max, bool split) {
  const grid::Patch p = make_patch(16, 6, 12);
  Field4D<float> q4(nb, p.im, p.k, p.jm);
  Field4D<float> tend4(nb, p.im, p.k, p.jm);
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
  AdvConfig cfg;
  const exec::Range3 comp{p.ip, p.k, p.jp};
  if (split) {
    rk_scalar_tend_bins(exec::serial(), p, comp.interior(kStencilWidth), q4,
                        winds, cfg, tend4);
    for (const auto& piece : comp.shell(kStencilWidth)) {
      rk_scalar_tend_bins(exec::serial(), p, piece, q4, winds, cfg, tend4);
    }
  } else {
    rk_scalar_tend_bins(p, q4, winds, cfg, tend4);
  }
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
          ASSERT_EQ(std::bit_cast<std::uint32_t>(tend4(b, i, k, j)),
                    std::bit_cast<std::uint32_t>(tend3(i, k, j)))
              << "nb=" << nb << " w_max=" << w_max << " split=" << split
              << " at b=" << b << " i=" << i << " k=" << k << " j=" << j
              << ": " << tend4(b, i, k, j) << " vs " << tend3(i, k, j);
        }
      }
    }
  }
}

TEST(Advection, BinsVariantMatchesScalarPerBin) {
  for (const int nb : {1, 5, 33}) {
    for (const double w_max : {2.0, -2.0}) {
      for (const bool split : {false, true}) {
        expect_bins_match_scalar(nb, w_max, split);
      }
    }
  }
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
  AnalyticWinds winds = uniform_winds(p, 0.0, 0.0, 0.0);
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

}  // namespace
}  // namespace wrf::dyn
