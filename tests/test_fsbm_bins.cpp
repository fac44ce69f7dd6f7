// Unit + property tests: the mass-doubling bin grid.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include <cmath>

#include "fsbm/bins.hpp"
#include "util/constants.hpp"

namespace wrf::fsbm {
namespace {

TEST(BinGrid, MassDoubling) {
  const BinGrid bins(33);
  for (int k = 1; k < 33; ++k) {
    EXPECT_DOUBLE_EQ(bins.mass(k), 2.0 * bins.mass(k - 1));
  }
  EXPECT_DOUBLE_EQ(bins.dln(), std::log(2.0));
}

TEST(BinGrid, SmallestBinIsTwoMicronDrop) {
  const BinGrid bins(33);
  EXPECT_NEAR(bins.radius(Species::kLiquid, 0), 2.0e-6, 1.0e-8);
}

TEST(BinGrid, RadiiIncreaseWithBin) {
  const BinGrid bins(33);
  for (int s = 0; s < kNumSpecies; ++s) {
    for (int k = 1; k < 33; ++k) {
      EXPECT_GT(bins.radius(static_cast<Species>(s), k),
                bins.radius(static_cast<Species>(s), k - 1));
    }
  }
}

TEST(BinGrid, FluffySnowLargerThanHailAtSameMass) {
  const BinGrid bins(33);
  // Lower bulk density => larger radius for the same mass.
  for (int k = 0; k < 33; k += 8) {
    EXPECT_GT(bins.radius(Species::kSnow, k), bins.radius(Species::kHail, k));
  }
}

TEST(BinGrid, RejectsTinyGrids) {
  EXPECT_THROW(BinGrid(3), ConfigError);
  EXPECT_NO_THROW(BinGrid(4));
}

TEST(BinGrid, ConfigurableBinCount) {
  // The paper: "can be extended from 33 to a few hundred bins".
  const BinGrid big(200);
  EXPECT_EQ(big.nkr(), 200);
  EXPECT_DOUBLE_EQ(big.mass(199), big.mass(0) * std::ldexp(1.0, 199));
}

TEST(BinFloor, InverseOfMass) {
  const BinGrid bins(33);
  for (int k = 0; k < 33; ++k) {
    EXPECT_EQ(bins.bin_floor(bins.mass(k)), k == 32 ? 32 : k);
  }
}

TEST(BinFloor, BetweenBinsRoundsDown) {
  const BinGrid bins(33);
  const double m = 1.5 * bins.mass(10);  // between bins 10 and 11
  EXPECT_EQ(bins.bin_floor(m), 10);
}

TEST(BinFloor, ClampsAtEnds) {
  const BinGrid bins(33);
  EXPECT_EQ(bins.bin_floor(0.0), 0);
  EXPECT_EQ(bins.bin_floor(bins.mass(32) * 100.0), 32);
}

TEST(CoalDest, TableMatchesBinFloorAndSplitFormula) {
  // The collision gain term reads coal_dest(i, j) instead of calling
  // bin_floor per interaction; the table must be exactly what the
  // per-interaction computation would give, for every (i, j).
  for (const int nkr : {4, 33, 64}) {
    const BinGrid bins(nkr);
    for (int i = 0; i < nkr; ++i) {
      for (int j = 0; j < nkr; ++j) {
        const double m_new = bins.mass(i) + bins.mass(j);
        const int kd = bins.bin_floor(m_new);
        const BinGrid::CoalDest& d = bins.coal_dest(i, j);
        ASSERT_EQ(d.kd, kd) << "nkr " << nkr << " (" << i << "," << j << ")";
        if (kd >= nkr - 1) continue;  // top bin: f is unused
        const double mk = bins.mass(kd);
        const double mk1 = bins.mass(kd + 1);
        const double f = (m_new - mk) / (mk1 - mk);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(d.f),
                  std::bit_cast<std::uint64_t>(f))
            << "nkr " << nkr << " (" << i << "," << j << ")";
      }
    }
  }
}

class TerminalVelocitySweep : public ::testing::TestWithParam<int> {};

TEST_P(TerminalVelocitySweep, PositiveAndBounded) {
  const BinGrid bins(33);
  const auto s = static_cast<Species>(GetParam());
  for (int k = 0; k < 33; ++k) {
    const double v = bins.terminal_velocity(s, k, 1.0);
    EXPECT_GT(v, 0.0) << species_name(s) << " bin " << k;
    EXPECT_LT(v, 60.0) << species_name(s) << " bin " << k;
  }
}

TEST_P(TerminalVelocitySweep, FasterInThinAir) {
  // The density correction behind the 750/500 mb kernel tables.
  const BinGrid bins(33);
  const auto s = static_cast<Species>(GetParam());
  for (int k = 0; k < 33; k += 6) {
    EXPECT_GT(bins.terminal_velocity(s, k, 0.6),
              bins.terminal_velocity(s, k, 1.2));
  }
}

TEST_P(TerminalVelocitySweep, NonDecreasingWithSize) {
  const BinGrid bins(33);
  const auto s = static_cast<Species>(GetParam());
  for (int k = 1; k < 33; ++k) {
    EXPECT_GE(bins.terminal_velocity(s, k, 1.0),
              bins.terminal_velocity(s, k - 1, 1.0) * 0.999);
  }
}

TEST_P(TerminalVelocitySweep, FactoredProductIsBitwise) {
  // The blocked sedimentation solver multiplies the base table by a
  // shared correction; the column solver calls terminal_velocity.  Both
  // must round identically for every bin and density, including
  // densities below the 0.05 kg/m^3 floor.
  const BinGrid bins(33);
  const auto s = static_cast<Species>(GetParam());
  for (int k = 0; k < bins.nkr(); ++k) {
    for (double rho = 0.01; rho < 1.5; rho += 0.0173) {
      const double v = bins.terminal_velocity(s, k, rho);
      const double split = bins.terminal_velocity_base(s, k) *
                           BinGrid::density_correction(rho);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                std::bit_cast<std::uint64_t>(split))
          << species_name(s) << " bin " << k << " rho " << rho;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecies, TerminalVelocitySweep,
                         ::testing::Range(0, kNumSpecies));

TEST(TerminalVelocity, RaindropsCappedNearNineMs) {
  const BinGrid bins(33);
  const double v = bins.terminal_velocity(Species::kLiquid, 32, 1.225);
  EXPECT_LE(v, 9.3);
  EXPECT_GE(v, 8.0);
}

TEST(TerminalVelocity, HailFastestLargeHydrometeor) {
  const BinGrid bins(33);
  EXPECT_GT(bins.terminal_velocity(Species::kHail, 32, 1.0),
            bins.terminal_velocity(Species::kSnow, 32, 1.0));
  EXPECT_GT(bins.terminal_velocity(Species::kHail, 32, 1.0),
            bins.terminal_velocity(Species::kLiquid, 32, 1.0));
}

TEST(SpeciesNames, AllDistinct) {
  std::set<std::string> names;
  for (int s = 0; s < kNumSpecies; ++s) {
    names.insert(species_name(static_cast<Species>(s)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumSpecies));
}

TEST(SpeciesNames, IceCrystalClassifier) {
  EXPECT_TRUE(is_ice_crystal(Species::kIceColumn));
  EXPECT_TRUE(is_ice_crystal(Species::kIceDendrite));
  EXPECT_FALSE(is_ice_crystal(Species::kLiquid));
  EXPECT_FALSE(is_ice_crystal(Species::kSnow));
}

}  // namespace
}  // namespace wrf::fsbm
