// Tests for the model layer: case generator, halo exchange, and the
// decomposition invariant (decomposed run == single-patch run bitwise).

#include <gtest/gtest.h>

#include <cmath>

#include "model/driver.hpp"
#include "model/halo.hpp"

namespace wrf::model {
namespace {

RunConfig tiny_config() {
  RunConfig cfg;
  cfg.nx = 24;
  cfg.ny = 18;
  cfg.nz = 12;
  cfg.nsteps = 2;
  cfg.npx = 2;
  cfg.npy = 2;
  return cfg;
}

TEST(Config, ValidateCatchesBadInput) {
  RunConfig cfg = tiny_config();
  cfg.nx = 4;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = tiny_config();
  cfg.nkr = 2;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = tiny_config();
  cfg.npx = 16;  // patches narrower than the halo
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = tiny_config();
  cfg.dt = -1;
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(Config, Conus12kmFullMatchesPaper) {
  const RunConfig cfg = RunConfig::conus12km_full();
  EXPECT_EQ(cfg.nx, 425);
  EXPECT_EQ(cfg.ny, 300);
  EXPECT_EQ(cfg.nz, 50);
  EXPECT_DOUBLE_EQ(cfg.dt, 5.0);
  EXPECT_EQ(cfg.domain().cells(), 425LL * 300 * 50);
}

TEST(Config, DescribeContainsVersion) {
  EXPECT_NE(tiny_config().describe().find("v1-lookup-on-demand"),
            std::string::npos);
}

TEST(CaseConus, PhysicallyPlausibleFields) {
  const RunConfig cfg = tiny_config();
  const grid::Patch p = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  fsbm::MicroState state(p, cfg.nkr);
  init_case_conus(cfg, state);
  for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
        EXPECT_GT(state.temp(i, k, j), 190.0f);
        EXPECT_LT(state.temp(i, k, j), 320.0f);
        EXPECT_GT(state.pres(i, k, j), 1000.0f);
        EXPECT_LE(state.pres(i, k, j), 102000.0f);
        EXPECT_GE(state.qv(i, k, j), 0.0f);
        EXPECT_LT(state.qv(i, k, j), 0.04f);
        EXPECT_GT(state.rho(i, k, j), 0.05f);
      }
    }
  }
}

TEST(CaseConus, TemperatureDecreasesWithHeight) {
  const RunConfig cfg = tiny_config();
  const grid::Patch p = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  fsbm::MicroState state(p, cfg.nkr);
  init_case_conus(cfg, state);
  const int i = p.ip.lo + 2, j = p.jp.lo + 2;
  for (int k = p.k.lo + 1; k <= p.k.hi; ++k) {
    EXPECT_LE(state.temp(i, k, j), state.temp(i, k - 1, j) + 2.5f);
  }
}

TEST(CaseConus, SquallLineHasCloudAndClearAir) {
  // The load-imbalance premise: some cells cloudy, most not.
  const RunConfig cfg = tiny_config();
  const grid::Patch p = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  fsbm::MicroState state(p, cfg.nkr);
  init_case_conus(cfg, state);
  const double frac = cloudy_fraction(state);
  EXPECT_GT(frac, 0.02);
  EXPECT_LT(frac, 0.6);
}

TEST(CaseConus, DeterministicAcrossDecompositions) {
  // The same global cell must be initialized identically regardless of
  // which rank owns it.
  const RunConfig cfg = tiny_config();
  const grid::Patch whole = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  fsbm::MicroState ref(whole, cfg.nkr);
  init_case_conus(cfg, ref);
  for (const auto& p : grid::decompose(cfg.domain(), 2, 2, cfg.halo)) {
    fsbm::MicroState part(p, cfg.nkr);
    init_case_conus(cfg, part);
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          ASSERT_EQ(part.qv(i, k, j), ref.qv(i, k, j));
          ASSERT_EQ(part.temp(i, k, j), ref.temp(i, k, j));
          for (int n = 0; n < cfg.nkr; ++n) {
            ASSERT_EQ(part.ff[0](n, i, k, j), ref.ff[0](n, i, k, j));
          }
        }
      }
    }
  }
}

TEST(Halo, ExchangeDeliversNeighborInterior) {
  const RunConfig cfg = tiny_config();
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    const grid::Patch& p = patches[static_cast<std::size_t>(ctx.rank())];
    Field3D<float> q(p.im, p.k, p.jm, -1.0f);
    // Global identity field on the computational region.
    for (int j = p.jp.lo; j <= p.jp.hi; ++j)
      for (int k = p.k.lo; k <= p.k.hi; ++k)
        for (int i = p.ip.lo; i <= p.ip.hi; ++i)
          q(i, k, j) = static_cast<float>(1000 * j + 10 * k + i);
    exchange_halo(ctx, p, q, /*seq=*/0);
    // Every interior ghost cell must now hold the global identity value.
    for (int s = 0; s < 4; ++s) {
      if (p.neighbor[s] < 0) continue;
      const auto rect = p.recv_rect(static_cast<grid::Side>(s));
      for (int j = rect.j.lo; j <= rect.j.hi; ++j) {
        for (int k = p.k.lo; k <= p.k.hi; ++k) {
          for (int i = rect.i.lo; i <= rect.i.hi; ++i) {
            ASSERT_FLOAT_EQ(q(i, k, j),
                            static_cast<float>(1000 * j + 10 * k + i));
          }
        }
      }
    }
  });
}

TEST(Halo, BytesEstimateMatchesActualTraffic) {
  const RunConfig cfg = tiny_config();
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  const auto stats = par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    const grid::Patch& p = patches[static_cast<std::size_t>(ctx.rank())];
    Field3D<float> q(p.im, p.k, p.jm, 0.0f);
    exchange_halo(ctx, p, q, 0);
  });
  std::uint64_t expected = 0;
  for (const auto& p : patches) {
    expected += halo_bytes_per_exchange(p, p.k.size(), 1, 0, cfg.nkr);
  }
  EXPECT_EQ(stats.total_bytes(), expected);
}

TEST(Driver, DecomposedEqualsSinglePatchBitwise) {
  // The headline decomposition invariant: a 2x2-rank run produces the
  // same snapshot, cell for cell, as the single-patch run.
  RunConfig cfg = tiny_config();
  cfg.nsteps = 2;
  const RunResult single = run_single(cfg);
  const RunResult multi = run_simulation(cfg);
  ASSERT_EQ(multi.snapshots.size(), 4u);

  // Reassemble the decomposed QVAPOR and compare against the whole.
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  const io::Variable* whole = single.snapshots[0].find("QVAPOR");
  ASSERT_NE(whole, nullptr);
  for (int r = 0; r < cfg.nranks(); ++r) {
    const grid::Patch& p = patches[static_cast<std::size_t>(r)];
    const io::Variable* part =
        multi.snapshots[static_cast<std::size_t>(r)].find("QVAPOR");
    ASSERT_NE(part, nullptr);
    std::size_t n = 0;
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          const std::size_t w =
              static_cast<std::size_t>(
                  (j - 1) * cfg.nz + (k - 1)) *
                  static_cast<std::size_t>(cfg.nx) +
              static_cast<std::size_t>(i - 1);
          ASSERT_EQ(part->data[n], whole->data[w])
              << "rank " << r << " cell (" << i << "," << k << "," << j << ")";
          ++n;
        }
      }
    }
  }
}

TEST(Driver, AllVersionsRunUnderDecomposition) {
  for (const auto v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3}) {
    RunConfig cfg = tiny_config();
    cfg.nsteps = 1;
    cfg.version = v;
    const RunResult res = run_simulation(cfg);
    EXPECT_GT(res.totals.fsbm.cells_active, 0u) << fsbm::version_name(v);
    EXPECT_GT(res.totals.dyn.tend.cells, 0u);
  }
}

TEST(Driver, CommTrafficScalesWithExchanges) {
  RunConfig cfg = tiny_config();
  cfg.nsteps = 1;
  const RunResult res = run_simulation(cfg);
  // 3 RK stages x (1 qv + 7 bin fields) x 4 ranks, interior edges only.
  EXPECT_GT(res.comm.total_messages(), 0u);
  EXPECT_EQ(res.totals.halo_bytes,
            res.comm.total_bytes());
}

TEST(Driver, SnapshotContainsExpectedVariables) {
  RunConfig cfg = tiny_config();
  cfg.nsteps = 1;
  const RunResult res = run_single(cfg);
  const io::Snapshot& snap = res.snapshots[0];
  EXPECT_NE(snap.find("QVAPOR"), nullptr);
  EXPECT_NE(snap.find("T"), nullptr);
  EXPECT_NE(snap.find("Q_liquid"), nullptr);
  EXPECT_NE(snap.find("Q_hail"), nullptr);
  EXPECT_NE(snap.find("RAINNC"), nullptr);
}

}  // namespace
}  // namespace wrf::model
