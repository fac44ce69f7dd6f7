// End-to-end integration tests: full model runs across versions,
// verification via diffstate (the §VII-B methodology), and Table I's
// hotspot ordering.

#include <gtest/gtest.h>

#include "io/snapshot.hpp"
#include "model/driver.hpp"
#include "obs/export.hpp"

namespace wrf::model {
namespace {

RunConfig itest_config() {
  RunConfig cfg;
  cfg.nx = 32;
  cfg.ny = 24;
  cfg.nz = 16;
  cfg.nsteps = 3;
  cfg.npx = 2;
  cfg.npy = 2;
  return cfg;
}

io::Snapshot run_and_merge(RunConfig cfg) {
  const RunResult res = run_simulation(cfg);
  // Concatenate rank snapshots into one comparable container.
  io::Snapshot merged;
  for (std::size_t r = 0; r < res.snapshots.size(); ++r) {
    for (const auto& v : res.snapshots[r].variables()) {
      // Built up with += (not operator+ chains): GCC 12's -Wrestrict
      // false-positives on `const char* + std::string&&` (PR105651).
      std::string name = "r";
      name += std::to_string(r);
      name += ".";
      name += v.name;
      merged.add(std::move(name), v.dims, v.data);
    }
  }
  return merged;
}

TEST(Integration, V0AndV1IdenticalThroughFullModel) {
  RunConfig cfg = itest_config();
  cfg.version = fsbm::Version::kV0Baseline;
  const io::Snapshot a = run_and_merge(cfg);
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  const io::Snapshot b = run_and_merge(cfg);
  const io::DiffReport rep = io::diffstate(a, b);
  EXPECT_TRUE(rep.identical) << rep.format();
}

TEST(Integration, GpuVersionRetainsSeveralDigits) {
  // The §VII-B result: the offloaded code agrees with the CPU code to
  // 3-6 digits (FMA contraction), not bitwise.
  RunConfig cfg = itest_config();
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  const io::Snapshot cpu = run_and_merge(cfg);
  cfg.version = fsbm::Version::kV3Offload3;
  const io::Snapshot gpu = run_and_merge(cfg);
  const io::DiffReport rep = io::diffstate(cpu, gpu, /*ignore_below=*/1e-10);
  EXPECT_GE(rep.worst_digits, 3.0) << rep.format();
}

TEST(Integration, PrecipitationFallsInTheStorm) {
  RunConfig cfg = itest_config();
  cfg.nsteps = 6;
  const RunResult res = run_simulation(cfg);
  EXPECT_GT(res.totals.fsbm.surface_precip, 0.0);
}

TEST(Integration, HotspotOrderingMatchesTableOne) {
  // fast_sbm must dominate, rk_scalar_tend second, rk_update_scalar
  // far behind — the profile that motivated the paper's target choice.
  RunConfig cfg = itest_config();
  cfg.version = fsbm::Version::kV0Baseline;
  cfg.npx = cfg.npy = 1;
  obs::TraceSink sink;
  {
    obs::ScopedActive on(&sink);
    run_single(cfg);
  }
  const std::vector<obs::FlatRow> rows = obs::flat_profile(sink.drain());
  const auto incl = [&](const char* key) {
    return obs::flat_row(rows, key).inclusive_sec;
  };
  const double t_sbm = incl("fsbm/fast_sbm");
  const double t_tend =
      incl("pass/rk_scalar_tend") + incl("pass/rk_scalar_tend_bins");
  const double t_upd =
      incl("pass/rk_update_scalar") + incl("pass/rk_update_scalar_bins");
  EXPECT_GT(t_sbm, t_tend);
  EXPECT_GT(t_tend, t_upd);
}

TEST(Integration, LookupOptimizationActuallyFaster) {
  // Table III is a wall-clock claim; verify the direction on real
  // hardware with a comfortably large margin requirement.
  RunConfig cfg = itest_config();
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.version = fsbm::Version::kV0Baseline;
  const double t0 = run_single(cfg).wall_sec;
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  const double t1 = run_single(cfg).wall_sec;
  EXPECT_LT(t1, t0);
}

TEST(Integration, PoolBytesReportedForV3) {
  RunConfig cfg = itest_config();
  cfg.version = fsbm::Version::kV3Offload3;
  cfg.nsteps = 1;
  const RunResult res = run_simulation(cfg);
  EXPECT_GT(res.pool_bytes_per_rank, 0u);
  ASSERT_TRUE(res.last_coal_kernel.has_value());
  EXPECT_EQ(res.last_coal_kernel->name, "coal_bott_new_loop");
}

TEST(Integration, CloudFractionEvolvesSensibly) {
  RunConfig cfg = itest_config();
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 4;
  const grid::Patch p = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  RankModel m(cfg, p, nullptr);
  m.init();
  const double frac0 = cloudy_fraction(m.state());
  for (int s = 0; s < cfg.nsteps; ++s) m.step();
  const double frac1 = cloudy_fraction(m.state());
  EXPECT_GT(frac0, 0.0);
  EXPECT_GT(frac1, 0.0);
  EXPECT_LT(std::abs(frac1 - frac0), 0.5);  // no collapse/explosion
}

}  // namespace
}  // namespace wrf::model
