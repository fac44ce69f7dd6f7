// Unit + property tests: bin sedimentation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fsbm/sedimentation.hpp"

namespace wrf::fsbm {
namespace {

class SedTest : public ::testing::Test {
 protected:
  BinGrid bins_{33};
  SedConfig cfg_{};

  static double column_total(const std::vector<float>& col,
                             const std::vector<double>& rho, int nkr) {
    // rho-weighted mass (what the scheme conserves).
    double q = 0.0;
    const int nz = static_cast<int>(rho.size());
    for (int iz = 0; iz < nz; ++iz) {
      for (int k = 0; k < nkr; ++k) {
        q += rho[static_cast<std::size_t>(iz)] *
             col[static_cast<std::size_t>(iz) * nkr + k];
      }
    }
    return q;
  }
};

TEST_F(SedTest, ColumnMassConservedUpToPrecip) {
  const int nz = 20;
  std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
  std::vector<double> rho(static_cast<std::size_t>(nz), 1.0);
  // Seed from the surface upward so the lowest level exports mass
  // within one call (upwind transport moves one level per substep).
  for (int iz = 0; iz < 15; ++iz) {
    for (int k = 10; k < 25; ++k) {
      col[static_cast<std::size_t>(iz) * 33 + k] = 1.0e-4f;
    }
  }
  const double before = column_total(col, rho, 33);
  const SedStats st =
      sediment_column(bins_, Species::kLiquid, col.data(), rho.data(), nz,
                      cfg_);
  const double after = column_total(col, rho, 33);
  EXPECT_NEAR(after + st.surface_precip * rho[0], before, before * 1e-5);
  EXPECT_GT(st.surface_precip, 0.0);
}

TEST_F(SedTest, NoNegativeValues) {
  const int nz = 12;
  std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
  std::vector<double> rho(static_cast<std::size_t>(nz), 0.8);
  col[static_cast<std::size_t>(11) * 33 + 32] = 1.0e-3f;  // fast hail bin
  SedConfig cfg = cfg_;
  cfg.dt = 60.0;
  sediment_column(bins_, Species::kHail, col.data(), rho.data(), nz, cfg);
  for (const float v : col) EXPECT_GE(v, 0.0f);
}

TEST_F(SedTest, EmptyColumnIsNoop) {
  const int nz = 10;
  std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
  std::vector<double> rho(static_cast<std::size_t>(nz), 1.0);
  const SedStats st =
      sediment_column(bins_, Species::kSnow, col.data(), rho.data(), nz,
                      cfg_);
  EXPECT_DOUBLE_EQ(st.surface_precip, 0.0);
  for (const float v : col) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST_F(SedTest, MassMovesDownward) {
  const int nz = 16;
  std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
  std::vector<double> rho(static_cast<std::size_t>(nz), 1.0);
  const int src = 12;
  col[static_cast<std::size_t>(src) * 33 + 28] = 1.0e-3f;  // big raindrop
  sediment_column(bins_, Species::kLiquid, col.data(), rho.data(), nz, cfg_);
  // Nothing above the source level; something below.
  for (int iz = src + 1; iz < nz; ++iz) {
    EXPECT_FLOAT_EQ(col[static_cast<std::size_t>(iz) * 33 + 28], 0.0f);
  }
  double below = 0.0;
  for (int iz = 0; iz < src; ++iz) {
    below += col[static_cast<std::size_t>(iz) * 33 + 28];
  }
  EXPECT_GT(below, 0.0);
}

TEST_F(SedTest, BigBinsReachSurfaceFirst) {
  const int nz = 25;
  std::vector<double> rho(static_cast<std::size_t>(nz), 1.0);
  auto precip_for_bin = [&](int k) {
    std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
    col[static_cast<std::size_t>(0) * 33 + k] = 1.0e-3f;
    SedConfig cfg = cfg_;
    cfg.dt = 300.0;
    const SedStats st = sediment_column(bins_, Species::kLiquid, col.data(),
                                        rho.data(), nz, cfg);
    return st.surface_precip;
  };
  // Raindrop bins deliver more precip in fixed time than cloud bins.
  EXPECT_GT(precip_for_bin(30), precip_for_bin(10));
}

TEST_F(SedTest, CflSubstepping) {
  // A fall speed of ~9 m/s with dz=100 m and dt=60 s needs >= 6 substeps.
  const int nz = 10;
  std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
  std::vector<double> rho(static_cast<std::size_t>(nz), 1.0);
  col[static_cast<std::size_t>(9) * 33 + 32] = 1.0e-4f;
  SedConfig cfg = cfg_;
  cfg.dt = 60.0;
  cfg.dz = 100.0;
  const SedStats st = sediment_column(bins_, Species::kLiquid, col.data(),
                                      rho.data(), nz, cfg);
  EXPECT_GE(st.substeps, 6u);
}

TEST_F(SedTest, VaryingDensityColumnStillConserves) {
  const int nz = 30;
  std::vector<float> col(static_cast<std::size_t>(nz) * 33, 0.0f);
  std::vector<double> rho(static_cast<std::size_t>(nz));
  for (int iz = 0; iz < nz; ++iz) {
    rho[static_cast<std::size_t>(iz)] = 1.2 * std::exp(-iz * 0.07);
  }
  for (int iz = 10; iz < 25; ++iz) {
    for (int k = 15; k < 30; k += 3) {
      col[static_cast<std::size_t>(iz) * 33 + k] = 5.0e-5f;
    }
  }
  const double before = column_total(col, rho, 33);
  const SedStats st = sediment_column(bins_, Species::kGraupel, col.data(),
                                      rho.data(), nz, cfg_);
  const double after = column_total(col, rho, 33);
  EXPECT_NEAR(after + st.surface_precip * rho[0], before, before * 1e-5);
}

}  // namespace
}  // namespace wrf::fsbm
