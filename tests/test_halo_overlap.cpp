// The phased halo-exchange API and RK3 comms/compute overlap:
// HaloExchange posts one round (every field, every side) in begin() and
// drains it in finish(); tags are bounded functions of (round, field,
// side); and halo=overlap multi-rank runs are bitwise identical to
// halo=sync across all five FSBM versions.

#include <gtest/gtest.h>

#include <cstring>

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

float ident(int i, int k, int j) {
  return static_cast<float>(1000 * j + 10 * k + i);
}

TEST(HaloExchange, TagsAreBoundedAndRoundPure) {
  // Pure function of (round, field, side) — same round, same tag — and
  // bounded: consecutive rounds alternate between two disjoint tag sets
  // instead of growing a per-step sequence counter forever.
  using grid::Side;
  EXPECT_EQ(HaloExchange::tag(0, 2, Side::kNorth),
            HaloExchange::tag(0, 2, Side::kNorth));
  EXPECT_EQ(HaloExchange::tag(0, 2, Side::kNorth),
            HaloExchange::tag(2, 2, Side::kNorth));
  EXPECT_EQ(HaloExchange::tag(1, 2, Side::kNorth),
            HaloExchange::tag(4001, 2, Side::kNorth));
  EXPECT_NE(HaloExchange::tag(0, 2, Side::kNorth),
            HaloExchange::tag(1, 2, Side::kNorth));
  EXPECT_NE(HaloExchange::tag(0, 0, Side::kWest),
            HaloExchange::tag(0, 1, Side::kWest));
  EXPECT_LT(HaloExchange::tag(7, HaloExchange::kMaxFields - 1,
                              Side::kNorth),
            8 * HaloExchange::kMaxFields);
}

TEST(HaloExchange, WholeRoundPostedBeforeAnyUnpack) {
  // The acceptance criterion of the overlap design: after begin(), every
  // send of the round (each registered field, each interior side) has
  // been posted and *no* receive consumed; finish() then drains them.
  const RunConfig cfg = tiny_config();
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    const grid::Patch& p = patches[static_cast<std::size_t>(ctx.rank())];
    Field3D<float> a(p.im, p.k, p.jm, -1.0f);
    Field4D<float> b(4, p.im, p.k, p.jm);
    for (int j = p.jp.lo; j <= p.jp.hi; ++j)
      for (int k = p.k.lo; k <= p.k.hi; ++k)
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          a(i, k, j) = ident(i, k, j);
          for (int n = 0; n < 4; ++n) b(n, i, k, j) = ident(i, k, j) + n;
        }
    int sides = 0;
    for (int s = 0; s < 4; ++s) sides += p.neighbor[s] >= 0 ? 1 : 0;

    HaloExchange hx(p);
    hx.add(&a);
    hx.add_bins(&b);
    EXPECT_EQ(hx.fields(), 2);

    hx.begin(ctx);
    EXPECT_TRUE(hx.in_flight());
    EXPECT_EQ(ctx.stats().messages_sent, static_cast<std::uint64_t>(2 * sides));
    EXPECT_EQ(ctx.stats().messages_recvd, 0u);  // nothing consumed yet
    hx.finish(ctx);
    EXPECT_FALSE(hx.in_flight());
    EXPECT_EQ(ctx.stats().messages_recvd,
              static_cast<std::uint64_t>(2 * sides));
    EXPECT_EQ(ctx.stats().bytes_sent, hx.bytes_per_round());

    // Ghost cells now hold the neighbor's identity values for both
    // field shapes.
    for (int s = 0; s < 4; ++s) {
      if (p.neighbor[s] < 0) continue;
      const auto rect = p.recv_rect(static_cast<grid::Side>(s));
      for (int j = rect.j.lo; j <= rect.j.hi; ++j)
        for (int k = p.k.lo; k <= p.k.hi; ++k)
          for (int i = rect.i.lo; i <= rect.i.hi; ++i) {
            ASSERT_FLOAT_EQ(a(i, k, j), ident(i, k, j));
            ASSERT_FLOAT_EQ(b(2, i, k, j), ident(i, k, j) + 2.0f);
          }
    }
  });
}

TEST(HaloExchange, RepeatedRoundsWithoutBarrier) {
  // Rounds proceed back to back with no inter-round barrier: bounded
  // tags plus FIFO matching must keep them from mixing, across enough
  // rounds to wrap the tag parity many times.
  const RunConfig cfg = tiny_config();
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    const grid::Patch& p = patches[static_cast<std::size_t>(ctx.rank())];
    Field3D<float> q(p.im, p.k, p.jm, 0.0f);
    HaloExchange hx(p);
    hx.add(&q);
    for (int round = 0; round < 6; ++round) {
      for (int j = p.jp.lo; j <= p.jp.hi; ++j)
        for (int k = p.k.lo; k <= p.k.hi; ++k)
          for (int i = p.ip.lo; i <= p.ip.hi; ++i)
            q(i, k, j) = ident(i, k, j) + 10000.0f * round;
      hx.begin(ctx);
      hx.finish(ctx);
      for (int s = 0; s < 4; ++s) {
        if (p.neighbor[s] < 0) continue;
        const auto rect = p.recv_rect(static_cast<grid::Side>(s));
        for (int j = rect.j.lo; j <= rect.j.hi; ++j)
          for (int k = p.k.lo; k <= p.k.hi; ++k)
            for (int i = rect.i.lo; i <= rect.i.hi; ++i)
              ASSERT_FLOAT_EQ(q(i, k, j), ident(i, k, j) + 10000.0f * round)
                  << "round " << round;
      }
    }
    EXPECT_EQ(hx.rounds(), 6);
  });
}

TEST(HaloExchange, PhaseMisuseThrows) {
  const RunConfig cfg = tiny_config();
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  EXPECT_THROW(
      par::run(cfg.nranks(),
               [&](par::RankCtx& ctx) {
                 const grid::Patch& p =
                     patches[static_cast<std::size_t>(ctx.rank())];
                 Field3D<float> q(p.im, p.k, p.jm, 0.0f);
                 HaloExchange hx(p);
                 hx.add(&q);
                 hx.finish(ctx);  // no round in flight
               }),
      Error);
}

TEST(HaloOverlap, BitwiseIdenticalToSyncAcrossVersions) {
  // The headline determinism contract of the phased API: with
  // halo=overlap, interior tendencies run on stale halos between
  // begin/finish, yet every snapshot variable of every rank is bitwise
  // identical to the halo=sync run — for all five FSBM versions.
  for (const auto v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    RunConfig cfg = tiny_config();
    cfg.version = v;
    cfg.halo_mode = dyn::HaloMode::kSync;
    const RunResult sync = run_simulation(cfg);
    cfg.halo_mode = dyn::HaloMode::kOverlap;
    const RunResult overlap = run_simulation(cfg);

    ASSERT_EQ(sync.snapshots.size(), overlap.snapshots.size());
    for (std::size_t r = 0; r < sync.snapshots.size(); ++r) {
      for (const auto& var : sync.snapshots[r].variables()) {
        const io::Variable* other = overlap.snapshots[r].find(var.name);
        ASSERT_NE(other, nullptr) << var.name;
        ASSERT_EQ(var.data.size(), other->data.size()) << var.name;
        EXPECT_EQ(std::memcmp(var.data.data(), other->data.data(),
                              var.data.size() * sizeof(float)),
                  0)
            << fsbm::version_name(v) << " rank " << r << " variable "
            << var.name << " differs between halo=sync and halo=overlap";
      }
    }
    // Same traffic either way; overlap changes when, not what.
    EXPECT_EQ(sync.comm.total_bytes(), overlap.comm.total_bytes());
    EXPECT_EQ(sync.comm.total_messages(), overlap.comm.total_messages());
  }
}

TEST(HaloOverlap, SingleRankRunsWorkInBothModes) {
  // No neighbors: begin posts nothing, finish is just the boundary
  // fill.  Overlap must degrade gracefully to that.
  RunConfig cfg = tiny_config();
  cfg.npx = cfg.npy = 1;
  cfg.halo_mode = dyn::HaloMode::kOverlap;
  const RunResult res = run_simulation(cfg);
  EXPECT_GT(res.totals.dyn.tend.cells, 0u);
  EXPECT_EQ(res.comm.total_messages(), 0u);
}

}  // namespace
}  // namespace wrf::model
