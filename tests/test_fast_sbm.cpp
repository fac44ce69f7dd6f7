// Integration-level tests of the fast_sbm driver: the four optimization
// versions must compute the same physics (v0 == v1 bitwise; offloaded
// versions agree to FP-contraction precision), the predicate/fission
// machinery must fire, and the §VI-B failure reproduction must throw.

#include <gtest/gtest.h>

#include <cmath>

#include "fsbm/fast_sbm.hpp"
#include "model/case_conus.hpp"
#include "model/config.hpp"
#include "obs/export.hpp"
#include "util/constants.hpp"

namespace wrf::fsbm {
namespace {

model::RunConfig small_config() {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 14;
  cfg.npx = 1;
  cfg.npy = 1;
  cfg.nsteps = 2;
  return cfg;
}

grid::Patch whole_patch(const model::RunConfig& cfg) {
  return grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
}

/// Run `nsteps` of pure microphysics (no advection) for one version.
MicroState run_version(Version v, int nsteps, FsbmStats* stats_out = nullptr,
                       gpu::Device* device = nullptr) {
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);

  std::unique_ptr<gpu::Device> owned;
  const bool offloaded = v == Version::kV2Offload2 ||
                         v == Version::kV3Offload3 ||
                         v == Version::kV3NaiveCollapse3;
  if (offloaded && device == nullptr) {
    owned = std::make_unique<gpu::Device>(gpu::DeviceSpec::a100_40gb());
    owned->set_stack_limit(65536);
    owned->set_heap_limit(64ull << 20);
    device = owned.get();
  }
  FastSbm scheme(patch, cfg.nkr, v, FsbmParams{}, device);
  FsbmStats total;
  for (int s = 0; s < nsteps; ++s) total.merge(scheme.step(state));
  if (stats_out != nullptr) *stats_out = total;
  return state;
}

double max_rel_diff(const MicroState& a, const MicroState& b) {
  double worst = 0.0;
  const auto& p = a.patch;
  for (int s = 0; s < kNumSpecies; ++s) {
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          for (int n = 0; n < a.bins.nkr(); ++n) {
            const double x = a.ff[static_cast<std::size_t>(s)](n, i, k, j);
            const double y = b.ff[static_cast<std::size_t>(s)](n, i, k, j);
            if (x == y) continue;
            const double mag = std::max(std::abs(x), std::abs(y));
            if (mag < 1e-12) continue;
            worst = std::max(worst, std::abs(x - y) / mag);
          }
        }
      }
    }
  }
  return worst;
}

TEST(FastSbm, V0AndV1BitwiseIdentical) {
  // The lookup optimization must not change a single bit (Table III is a
  // pure-performance change).
  const MicroState a = run_version(Version::kV0Baseline, 2);
  const MicroState b = run_version(Version::kV1LookupOnDemand, 2);
  EXPECT_EQ(max_rel_diff(a, b), 0.0);
}

TEST(FastSbm, OffloadedVersionsAgreeToFpContraction) {
  // v2/v3 use FMA-contracted device arithmetic: several digits of
  // agreement, not bitwise (the paper's §VII-B observation).
  const MicroState cpu = run_version(Version::kV1LookupOnDemand, 2);
  const MicroState gpu2 = run_version(Version::kV2Offload2, 2);
  const MicroState gpu3 = run_version(Version::kV3Offload3, 2);
  const double d2 = max_rel_diff(cpu, gpu2);
  const double d3 = max_rel_diff(cpu, gpu3);
  EXPECT_LT(d2, 1e-3);  // >= 3 digits
  EXPECT_LT(d3, 1e-3);
  // v2 and v3 run identical device arithmetic -> bitwise equal.
  EXPECT_EQ(max_rel_diff(gpu2, gpu3), 0.0);
}

TEST(FastSbm, V0FillsTablesPerCellV1DoesNot) {
  FsbmStats s0, s1;
  run_version(Version::kV0Baseline, 1, &s0);
  run_version(Version::kV1LookupOnDemand, 1, &s1);
  EXPECT_EQ(s0.kernel_table_fills, s0.cells_coal);
  EXPECT_EQ(s1.kernel_table_fills, 0u);
  // v0 computes all 20*nkr^2 entries per coal cell; v1 computes only
  // what the collision sweeps touch — the Table III mechanism.
  EXPECT_EQ(s0.kernel_entries,
            s0.cells_coal * static_cast<std::uint64_t>(20 * 33 * 33));
  EXPECT_LT(s1.kernel_entries, s0.kernel_entries / 4);
}

TEST(FastSbm, PredicateCountsMatchInlineCounts) {
  FsbmStats s1, s3;
  run_version(Version::kV1LookupOnDemand, 1, &s1);
  run_version(Version::kV3Offload3, 1, &s3);
  EXPECT_EQ(s1.cells_active, s3.cells_active);
  EXPECT_EQ(s1.cells_coal, s3.cells_coal);
}

TEST(FastSbm, OffloadRecordsKernelAndTransfers) {
  FsbmStats st;
  run_version(Version::kV3Offload3, 1, &st);
  ASSERT_TRUE(st.coal_kernel.has_value());
  EXPECT_EQ(st.coal_kernel->name, "coal_bott_new_loop");
  EXPECT_GT(st.coal_kernel->modeled_time_ms, 0.0);
  EXPECT_GT(st.h2d_ms, 0.0);
  EXPECT_GT(st.d2h_ms, 0.0);
}

TEST(FastSbm, Collapse2VsCollapse3GridShapes) {
  FsbmStats s2, s3;
  run_version(Version::kV2Offload2, 1, &s2);
  run_version(Version::kV3Offload3, 1, &s3);
  ASSERT_TRUE(s2.coal_kernel && s3.coal_kernel);
  // collapse(2) iterates (k,j); collapse(3) iterates (i,k,j).
  EXPECT_EQ(s2.coal_kernel->iterations * 16, s3.coal_kernel->iterations);
  EXPECT_GE(s3.coal_kernel->occupancy.achieved,
            s2.coal_kernel->occupancy.achieved);
}

TEST(FastSbm, NaiveCollapse3OverflowsDeviceHeap) {
  // §VI-B: automatic arrays + full collapse + default-ish heap = crash.
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);
  gpu::Device dev(gpu::DeviceSpec::a100_40gb());
  dev.set_stack_limit(65536);
  dev.set_heap_limit(8ull << 20);  // default heap, not raised
  FastSbm scheme(patch, cfg.nkr, Version::kV3NaiveCollapse3, FsbmParams{},
                 &dev);
  EXPECT_THROW(scheme.step(state), gpu::DeviceError);
}

TEST(FastSbm, PoolingFixesTheOverflow) {
  // §VI-C: hoisting the automatic arrays into pools removes the
  // per-thread heap demand entirely.
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);
  gpu::Device dev(gpu::DeviceSpec::a100_40gb());
  dev.set_stack_limit(65536);
  dev.set_heap_limit(8ull << 20);  // same small heap
  FastSbm scheme(patch, cfg.nkr, Version::kV3Offload3, FsbmParams{}, &dev);
  EXPECT_NO_THROW(scheme.step(state));
  EXPECT_GT(scheme.pool_bytes(), 0u);
  EXPECT_EQ(dev.allocated_bytes(), scheme.pool_bytes());
}

TEST(FastSbm, OffloadedVersionRequiresDevice) {
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  EXPECT_THROW(FastSbm(patch, 33, Version::kV2Offload2, FsbmParams{}, nullptr),
               ConfigError);
}

TEST(FastSbm, WaterBudgetClosedOverMicrophysics) {
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);
  const double water0 = state.total_water();
  FastSbm scheme(patch, cfg.nkr, Version::kV1LookupOnDemand);
  for (int s = 0; s < 3; ++s) scheme.step(state);
  // Vapor + condensate + accumulated precip is conserved (float state,
  // hence the loose-ish tolerance).
  EXPECT_NEAR(state.total_water(), water0, water0 * 5e-4);
}

TEST(FastSbm, ColdCellGateRespected) {
  // Cells at or below 193.15 K are skipped entirely (Listing 1).
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);
  state.temp.fill(180.0f);
  FastSbm scheme(patch, cfg.nkr, Version::kV1LookupOnDemand);
  const FsbmStats st = scheme.step(state);
  EXPECT_EQ(st.cells_active, 0u);
  EXPECT_EQ(st.cells_coal, 0u);
}

TEST(FastSbm, StepSpansEmitted) {
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);
  FastSbm scheme(patch, cfg.nkr, Version::kV1LookupOnDemand);
  obs::TraceSink sink;
  FsbmStats st;
  {
    obs::ScopedActive on(&sink);
    st = scheme.step(state);
  }
  const std::vector<obs::FlatRow> rows = obs::flat_profile(sink.drain());
  const obs::FlatRow sbm = obs::flat_row(rows, "fsbm/fast_sbm");
  const obs::FlatRow sed = obs::flat_row(rows, "pass/sedimentation");
  EXPECT_EQ(sbm.calls, 1u);
  EXPECT_EQ(sed.calls, 1u);
  EXPECT_GE(sbm.inclusive_sec, sed.inclusive_sec);
  // v1 runs the collision loop inline in pass_physics and times it into
  // the stats' coal fields.
  EXPECT_GT(st.cells_coal, 0u);
  EXPECT_GT(st.wall_coal_sec, 0.0);
}

TEST(FastSbm, VersionNamesStable) {
  EXPECT_STREQ(version_name(Version::kV0Baseline), "v0-baseline");
  EXPECT_STREQ(version_name(Version::kV3Offload3), "v3-offload-collapse3");
}

TEST(FastSbm, RejectsOversizedNkr) {
  const model::RunConfig cfg = small_config();
  const grid::Patch patch = whole_patch(cfg);
  EXPECT_THROW(FastSbm(patch, kMaxNkr + 1, Version::kV1LookupOnDemand),
               ConfigError);
}

}  // namespace
}  // namespace wrf::fsbm
