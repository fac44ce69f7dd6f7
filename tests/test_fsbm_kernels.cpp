// Unit tests: collision-kernel tables, kernals_ks (v0) vs get_cw (v1).

#include <gtest/gtest.h>

#include <set>

#include "fsbm/kernels.hpp"

namespace wrf::fsbm {
namespace {

class KernelTablesTest : public ::testing::Test {
 protected:
  BinGrid bins_{33};
  KernelTables tables_{bins_};
};

TEST_F(KernelTablesTest, PairMappingMatchesFsbmNaming) {
  EXPECT_EQ(pair_a(CollisionPair::kLS), Species::kLiquid);
  EXPECT_EQ(pair_b(CollisionPair::kLS), Species::kSnow);
  EXPECT_STREQ(pair_name(CollisionPair::kLS), "cwls");
  EXPECT_STREQ(pair_name(CollisionPair::kLG), "cwlg");
  EXPECT_EQ(pair_b(CollisionPair::kLG), Species::kGraupel);
}

TEST_F(KernelTablesTest, TwentyDistinctPairNames) {
  std::set<std::string> names;
  for (int p = 0; p < kNumPairs; ++p) {
    names.insert(pair_name(static_cast<CollisionPair>(p)));
  }
  EXPECT_EQ(names.size(), 20u);
}

TEST_F(KernelTablesTest, KernelsNonNegativeEverywhere) {
  for (int p = 0; p < kNumPairs; ++p) {
    for (int i = 0; i < 33; ++i) {
      for (int j = 0; j < 33; ++j) {
        EXPECT_GE(tables_.table(static_cast<CollisionPair>(p), i, j, true),
                  0.0f);
        EXPECT_GE(tables_.table(static_cast<CollisionPair>(p), i, j, false),
                  0.0f);
      }
    }
  }
}

TEST_F(KernelTablesTest, ThinnerAirStrongerKernel) {
  // Fall speeds grow at 500 mb, so most large-collector entries should
  // exceed the 750 mb values.
  int larger = 0, total = 0;
  for (int i = 0; i < 33; i += 4) {
    for (int j = 20; j < 33; ++j) {
      if (tables_.table(CollisionPair::kLL, i, j, false) >
          tables_.table(CollisionPair::kLL, i, j, true)) {
        ++larger;
      }
      ++total;
    }
  }
  EXPECT_GT(larger, total * 3 / 4);
}

TEST_F(KernelTablesTest, InterpEndpointsAndClamp) {
  // The pressure weight of the 750 mb table, clamped to [0, 1] ...
  EXPECT_EQ(KernelTables::pressure_weight(kTableP750), 1.0f);
  EXPECT_EQ(KernelTables::pressure_weight(kTableP500), 0.0f);
  EXPECT_EQ(KernelTables::pressure_weight(101325.0), 1.0f);
  EXPECT_EQ(KernelTables::pressure_weight(20000.0), 0.0f);
  // ... and the interpolation at it.
  const auto interp = [](float c750, float c500, double pres_pa) {
    return KernelTables::lerp(c750, c500,
                              KernelTables::pressure_weight(pres_pa));
  };
  EXPECT_FLOAT_EQ(interp(2.0f, 1.0f, kTableP750), 2.0f);
  EXPECT_FLOAT_EQ(interp(2.0f, 1.0f, kTableP500), 1.0f);
  EXPECT_FLOAT_EQ(interp(2.0f, 1.0f, 62500.0), 1.5f);
  // Out-of-range pressures clamp to the nearest table.
  EXPECT_FLOAT_EQ(interp(2.0f, 1.0f, 101325.0), 2.0f);
  EXPECT_FLOAT_EQ(interp(2.0f, 1.0f, 20000.0), 1.0f);
}

TEST_F(KernelTablesTest, GetCwMatchesKernalsKsEntrywise) {
  // The v1 on-demand function must reproduce the v0 table fill exactly
  // (same arithmetic): the optimization changes cost, not values.
  CollisionArrays arrays(33);
  const double p = 68000.0;
  tables_.kernals_ks(p, arrays);
  for (int pr = 0; pr < kNumPairs; ++pr) {
    for (int i = 0; i < 33; i += 3) {
      for (int j = 0; j < 33; j += 3) {
        const auto pair = static_cast<CollisionPair>(pr);
        EXPECT_EQ(arrays.at(pair, i, j), tables_.get_cw(pair, i, j, p));
      }
    }
  }
}

TEST_F(KernelTablesTest, DeviceFmaPathAgreesToFloatPrecision) {
  // get_cw_device (FMA-contracted) differs at most in the last ulps —
  // the §VII-B "3-6 digits" mechanism, not a physics change.
  const double p = 68000.0;
  for (int pr = 0; pr < kNumPairs; ++pr) {
    for (int i = 0; i < 33; i += 5) {
      for (int j = 0; j < 33; j += 5) {
        const auto pair = static_cast<CollisionPair>(pr);
        const float a = tables_.get_cw(pair, i, j, p);
        const float b = tables_.get_cw_device(pair, i, j, p);
        if (a != 0.0f) {
          EXPECT_NEAR(b / a, 1.0, 1e-5);
        }
      }
    }
  }
}

TEST_F(KernelTablesTest, KernalsKsCountsEntries) {
  CollisionArrays arrays(33);
  EXPECT_EQ(tables_.kernals_ks(75000.0, arrays),
            static_cast<std::uint64_t>(20) * 33 * 33);
}

TEST_F(KernelTablesTest, LargeCollectorsCollectMore) {
  // For a fixed small collected drop, kernel grows with collector size.
  const double p = 70000.0;
  float prev = 0.0f;
  for (int j = 8; j < 33; j += 4) {
    const float k = tables_.get_cw(CollisionPair::kLL, 2, j, p);
    EXPECT_GE(k, prev);
    prev = k;
  }
  EXPECT_GT(prev, 0.0f);
}

TEST_F(KernelTablesTest, EfficiencyBounds) {
  for (double rs : {1e-6, 1e-5, 1e-4}) {
    for (double rl : {2e-6, 5e-5, 1e-3}) {
      if (rs > rl) continue;
      const double e = KernelTables::collision_efficiency(rs, rl);
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
  }
  // Tiny collectors are very inefficient.
  EXPECT_LT(KernelTables::collision_efficiency(1e-6, 4e-6), 0.01);
}

TEST_F(KernelTablesTest, TablePtrStableAndDistinct) {
  const float* a = tables_.table_ptr(CollisionPair::kLL, true);
  const float* b = tables_.table_ptr(CollisionPair::kLL, false);
  const float* c = tables_.table_ptr(CollisionPair::kLS, true);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, tables_.table_ptr(CollisionPair::kLL, true));
}

TEST(KernelTablesSmall, WorksWithNonDefaultBinCount) {
  const BinGrid bins(16);
  const KernelTables tables(bins);
  EXPECT_EQ(tables.nkr(), 16);
  CollisionArrays arrays(16);
  EXPECT_EQ(tables.kernals_ks(60000.0, arrays),
            static_cast<std::uint64_t>(20) * 16 * 16);
}

}  // namespace
}  // namespace wrf::fsbm
