// End-to-end integration tests: full model runs across versions,
// verification via diffstate (the §VII-B methodology), and Table I's
// hotspot ordering.

#include <gtest/gtest.h>

#include "io/snapshot.hpp"
#include "model/driver.hpp"
#include "model/knobs.hpp"
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

/// SplitMix64 of (seed, stream): the benchmark storm's case-seed
/// derivation (wrfbench/workloads.hpp derive_seed), restated here so the
/// pinned hashes below name the states the benchmark actually runs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(Integration, StormStateHashesArePinned) {
  // The benchmark storm (32x24x16, nkr 33, v3 offload collapse(3), 2x1
  // ranks, 16 steps) must keep its final state bit for bit: performance
  // work on advection, halos or microphysics may not move physics.
  struct Case {
    fsbm::PhysScheme phys;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {fsbm::PhysScheme::kBin, 1, 0xf7aed226420ee00aull},
      {fsbm::PhysScheme::kBin, 20240911, 0xeece69b91084aa5aull},
      {fsbm::PhysScheme::kHybrid, 1, 0xdfdf0c5b2cb40cf9ull},
      {fsbm::PhysScheme::kHybrid, 20240911, 0x26f0ead1929861f3ull},
  };
  for (const Case& c : cases) {
    RunConfig cfg;
    cfg.nx = 32;
    cfg.ny = 24;
    cfg.nz = 16;
    cfg.version = fsbm::Version::kV3Offload3;
    cfg.phys = c.phys;
    cfg.npx = 2;
    cfg.npy = 1;
    cfg.nsteps = 16;
    cfg.seed = derive_seed(c.seed, 0);
    EXPECT_EQ(state_hash(run_simulation(cfg)), c.hash)
        << "phys=" << model::knob_name("phys", c.phys) << " seed=" << c.seed;
  }
}

TEST(Integration, CoalPathStateHashesArePinned) {
  // Every other route into the collision code keeps its final state bit
  // for bit too: v2's collapse(2) rows, the exec=hetero device shard,
  // the fused cond+coal launch (fuse=auto with offloaded condensation)
  // and the v1 host pass.  A smaller storm than the benchmark's keeps
  // this fast; the seed is the benchmark's seed-1 case seed.  The three
  // offloaded paths run the same device arithmetic, so they share a hash;
  // the host pass interpolates kernels without the device FMA.
  struct Case {
    const char* label;
    fsbm::Version version;
    exec::ExecKind exec;
    bool fuse;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"v2 collapse(2)", fsbm::Version::kV2Offload2, exec::ExecKind::kSerial,
       false, 0x40ae41f290d7ea43ull},
      {"v3 exec=hetero:2", fsbm::Version::kV3Offload3,
       exec::ExecKind::kHetero, false, 0x40ae41f290d7ea43ull},
      {"v3 fuse=auto cond+coal", fsbm::Version::kV3Offload3,
       exec::ExecKind::kSerial, true, 0x40ae41f290d7ea43ull},
      {"v1 host", fsbm::Version::kV1LookupOnDemand, exec::ExecKind::kSerial,
       false, 0x20c61dcaa62f81ebull},
  };
  for (const Case& c : cases) {
    RunConfig cfg;
    cfg.nx = 24;
    cfg.ny = 16;
    cfg.nz = 16;
    cfg.version = c.version;
    cfg.exec.kind = c.exec;
    cfg.exec.nthreads = c.exec == exec::ExecKind::kHetero ? 2 : 0;
    if (c.fuse) {
      cfg.fsbm_params.offload_condensation = true;
      cfg.fuse = exec::FuseMode::kAuto;
    }
    cfg.npx = 2;
    cfg.npy = 1;
    cfg.nsteps = 8;
    cfg.seed = derive_seed(1, 0);
    const RunResult res = run_simulation(cfg);
    // The run took the path it names, and collided.
    EXPECT_GT(res.totals.fsbm.coal_interactions, 0u) << c.label;
    if (c.fuse) {
      ASSERT_TRUE(res.last_coal_kernel.has_value()) << c.label;
      EXPECT_EQ(res.last_coal_kernel->fused_passes, 2) << c.label;
    }
    if (c.exec == exec::ExecKind::kHetero) {
      EXPECT_GT(res.totals.fsbm.shard_cells_device, 0u) << c.label;
    }
    EXPECT_EQ(state_hash(res), c.hash) << c.label;
  }
}

}  // namespace
}  // namespace wrf::model
