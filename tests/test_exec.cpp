// Unit tests for the execution-space layer (src/exec): Range3 tiling
// edge cases, exception propagation out of ThreadedSpace, the
// determinism contract (bitwise-identical reductions across executors),
// DeviceSpace dispatch accounting, the exec= knob parser, and
// serial-vs-threaded FSBM step() equivalence across all five
// fsbm::Version modes.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "gpu/device.hpp"
#include "mem/residency.hpp"
#include "model/driver.hpp"
#include "model/knobs.hpp"

namespace wrf {
namespace {

using exec::ExecConfig;
using exec::ExecKind;
using exec::LaunchParams;
using exec::Range3;
using exec::TilePlan;

// ----------------------------------------------------------- Range3

TEST(Range3, SizeAndDecodeOrder) {
  Range3 r{Range{1, 3}, Range{10, 11}, Range{5, 6}};
  EXPECT_EQ(r.size(), 3 * 2 * 2);
  // i fastest, then k, then j (the paper's collapse order).
  EXPECT_EQ(r.cell(0).i, 1);
  EXPECT_EQ(r.cell(1).i, 2);
  EXPECT_EQ(r.cell(3).i, 1);
  EXPECT_EQ(r.cell(3).k, 11);
  EXPECT_EQ(r.cell(3).j, 5);
  EXPECT_EQ(r.cell(6).j, 6);
  const auto last = r.cell(r.size() - 1);
  EXPECT_EQ(last.i, 3);
  EXPECT_EQ(last.k, 11);
  EXPECT_EQ(last.j, 6);
}

TEST(Range3, EmptyRangesAreEmpty) {
  EXPECT_TRUE((Range3{Range{}, Range{1, 5}, Range{1, 5}}).empty());
  EXPECT_TRUE((Range3{Range{1, 5}, Range{3, 2}, Range{1, 5}}).empty());
  EXPECT_EQ((Range3{Range{}, Range{}, Range{}}).size(), 0);

  // No body invocations for an empty range, on any space.
  exec::SerialSpace ser;
  exec::ThreadedSpace thr(2);
  int calls = 0;
  LaunchParams lp;
  ser.parallel_for(Range3{Range{}, Range{1, 4}, Range{1, 4}}, lp,
                   [&](int, int, int) { ++calls; });
  thr.parallel_for(Range3{Range{1, 4}, Range{}, Range{1, 4}}, lp,
                   [&](int, int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Range3, HaloInclusiveNegativeBounds) {
  // Memory ranges include halos and may start below zero (ims:ime).
  Range3 r{Range{-2, 2}, Range{0, 1}, Range{-1, 1}};
  EXPECT_EQ(r.size(), 5 * 2 * 3);
  std::vector<int> seen(static_cast<std::size_t>(r.size()), 0);
  exec::SerialSpace ser;
  LaunchParams lp;
  lp.grain = 4;  // force tiles that straddle row boundaries
  ser.parallel_for(r, lp, [&](int i, int k, int j) {
    EXPECT_GE(i, -2);
    EXPECT_LE(i, 2);
    const std::int64_t flat =
        (static_cast<std::int64_t>(j + 1) * 2 + k) * 5 + (i + 2);
    ++seen[static_cast<std::size_t>(flat)];
  });
  for (const int v : seen) EXPECT_EQ(v, 1);
}

TEST(Range3, InteriorShrinksIAndJOnly) {
  Range3 r{Range{1, 10}, Range{1, 4}, Range{1, 8}};
  const Range3 in = r.interior(3);
  EXPECT_EQ(in.i.lo, 4);
  EXPECT_EQ(in.i.hi, 7);
  EXPECT_EQ(in.j.lo, 4);
  EXPECT_EQ(in.j.hi, 5);
  EXPECT_EQ(in.k.lo, 1);  // k never decomposed
  EXPECT_EQ(in.k.hi, 4);
  // Too thin: interior empty.
  EXPECT_TRUE((Range3{Range{1, 6}, Range{1, 4}, Range{1, 8}})
                  .interior(3)
                  .empty());
}

TEST(Range3, ShellPlusInteriorPartitionsTheRange) {
  // Every cell lands in exactly one of {interior, 4 shell pieces}, for
  // comfortable, thin, and empty shapes.
  const Range3 shapes[] = {
      Range3{Range{1, 12}, Range{1, 3}, Range{1, 9}},
      Range3{Range{1, 6}, Range{1, 2}, Range{1, 9}},   // thin in i
      Range3{Range{1, 12}, Range{1, 2}, Range{1, 5}},  // thin in j
      Range3{Range{1, 4}, Range{1, 2}, Range{1, 4}},   // thin in both
      Range3{Range{1, 12}, Range{1, 2}, Range{}},      // empty
  };
  for (const auto& r : shapes) {
    std::vector<int> hits(static_cast<std::size_t>(r.size()), 0);
    auto mark = [&](const exec::Range3& piece) {
      for (int j = piece.j.lo; j <= piece.j.hi; ++j)
        for (int k = piece.k.lo; k <= piece.k.hi; ++k)
          for (int i = piece.i.lo; i <= piece.i.hi; ++i) {
            const std::int64_t flat =
                (static_cast<std::int64_t>(j - r.j.lo) * r.k.size() +
                 (k - r.k.lo)) *
                    r.i.size() +
                (i - r.i.lo);
            ++hits[static_cast<std::size_t>(flat)];
          }
    };
    mark(r.interior(3));
    std::int64_t shell_cells = 0;
    for (const auto& piece : r.shell(3)) {
      mark(piece);
      shell_cells += piece.size();
    }
    for (const int h : hits) EXPECT_EQ(h, 1);
    EXPECT_EQ(r.interior(3).size() + shell_cells, r.size());
  }
}

// ---------------------------------------------------------- TilePlan

TEST(TilePlan, EdgeCases) {
  // Empty plan.
  EXPECT_EQ(TilePlan(0, 8).tiles(), 0);
  // Grain larger than total: one tile covering everything.
  TilePlan big(5, 100);
  EXPECT_EQ(big.tiles(), 1);
  EXPECT_EQ(big.tile_begin(0), 0);
  EXPECT_EQ(big.tile_end(0), 5);
  // Remainder tile is short.
  TilePlan rem(10, 4);
  EXPECT_EQ(rem.tiles(), 3);
  EXPECT_EQ(rem.tile_end(2), 10);
  EXPECT_EQ(rem.tile_end(2) - rem.tile_begin(2), 2);
  // Degenerate grain is clamped to 1.
  EXPECT_EQ(TilePlan(3, 0).tiles(), 3);
}

TEST(TilePlan, LayoutIndependentOfConcurrency) {
  // The cut depends only on (total, grain) — this is the determinism
  // contract's foundation, so pin it.
  const Range3 r{Range{1, 7}, Range{1, 5}, Range{1, 3}};
  LaunchParams lp;
  const TilePlan a = exec::ExecSpace::plan_for(r, lp);
  EXPECT_EQ(a.grain(), 7 * 5);  // one (i,k) plane per tile by default
  EXPECT_EQ(a.tiles(), 3);
}

// --------------------------------------------------- parallel_for/reduce

TEST(ExecSpace, ThreadedVisitsEveryCellOnce) {
  Range3 r{Range{1, 17}, Range{1, 6}, Range{1, 5}};
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(r.size()));
  exec::ThreadedSpace thr(4);
  LaunchParams lp;
  lp.grain = 7;  // ragged tiles
  thr.parallel_for(r, lp, [&](int i, int k, int j) {
    const std::int64_t flat =
        (static_cast<std::int64_t>(j - 1) * 6 + (k - 1)) * 17 + (i - 1);
    seen[static_cast<std::size_t>(flat)].fetch_add(1);
  });
  for (const auto& v : seen) EXPECT_EQ(v.load(), 1);
}

TEST(ExecSpace, ThreadedExceptionPropagatesOutOfParallelFor) {
  exec::ThreadedSpace thr(4);
  Range3 r{Range{1, 32}, Range{1, 8}, Range{1, 8}};
  LaunchParams lp;
  lp.grain = 8;
  EXPECT_THROW(
      thr.parallel_for(r, lp,
                       [&](int i, int, int) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The space stays usable after a failed dispatch.
  std::atomic<int> n{0};
  thr.parallel_for(r, lp, [&](int, int, int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), r.size());
}

struct DoubleSum {
  double v = 0.0;
  std::uint64_t n = 0;
  void merge(const DoubleSum& o) {
    v += o.v;
    n += o.n;
  }
};

TEST(ExecSpace, ReductionBitwiseIdenticalAcrossExecutors) {
  // Floating-point sums are association-sensitive; the exec layer pins
  // the association (per-tile, merged in tile order), so every executor
  // must produce bitwise-identical doubles.
  Range3 r{Range{1, 40}, Range{1, 12}, Range{1, 9}};
  LaunchParams lp;
  auto body = [](DoubleSum& s, int i, int k, int j) {
    s.v += std::sin(0.1 * i) * std::cos(0.2 * k) + 1e-7 * j;
    ++s.n;
  };
  exec::SerialSpace ser;
  exec::ThreadedSpace t2(2), t5(5);
  const DoubleSum a = ser.parallel_reduce<DoubleSum>(r, lp, body);
  const DoubleSum b = t2.parallel_reduce<DoubleSum>(r, lp, body);
  const DoubleSum c = t5.parallel_reduce<DoubleSum>(r, lp, body);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.n, c.n);
  // Bitwise, not approximate.
  EXPECT_EQ(std::memcmp(&a.v, &b.v, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.v, &c.v, sizeof(double)), 0);
}

TEST(ExecSpace, FlatDispatchCoversRange) {
  exec::ThreadedSpace thr(3);
  LaunchParams lp;
  std::vector<std::atomic<int>> seen(1000);
  thr.parallel_for_flat(1000, lp,
                        [&](std::int64_t f) { seen[static_cast<std::size_t>(f)].fetch_add(1); });
  for (const auto& v : seen) EXPECT_EQ(v.load(), 1);
  int calls = 0;
  thr.parallel_for_flat(0, lp, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// --------------------------------------------------------- DeviceSpace

TEST(DeviceSpace, FunctionalExecutionPlusModeledLaunch) {
  gpu::Device dev(gpu::DeviceSpec::test_device());
  exec::DeviceSpace space(dev);
  Range3 r{Range{1, 16}, Range{1, 4}, Range{1, 4}};
  LaunchParams lp;
  lp.name = "exec_test_kernel";
  lp.flops_per_iter = 10.0;
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(r.size()));
  space.parallel_for(r, lp, [&](int i, int k, int j) {
    const std::int64_t flat =
        (static_cast<std::int64_t>(j - 1) * 4 + (k - 1)) * 16 + (i - 1);
    seen[static_cast<std::size_t>(flat)].fetch_add(1);
  });
  for (const auto& v : seen) EXPECT_EQ(v.load(), 1);
  // The dispatch was recorded as a kernel launch with the right geometry.
  ASSERT_EQ(dev.launches().size(), 1u);
  EXPECT_EQ(dev.launches()[0].name, "exec_test_kernel");
  EXPECT_EQ(dev.launches()[0].iterations, r.size());
  EXPECT_GT(space.kernel_ms(), 0.0);
  EXPECT_EQ(space.dispatches(), 1u);
  // The space exposes a device data environment; a named map(to:)
  // charges capacity and prices the transfer.
  mem::DataRegion& region = space.region();
  const mem::FieldId f = region.add_field("exec_test_field", 1 << 20);
  region.map_to(f);
  EXPECT_EQ(dev.transfers().h2d_bytes, 1u << 20);
  EXPECT_EQ(dev.allocated_bytes(), 1u << 20);
  EXPECT_GT(dev.transfers().modeled_time_ms, 0.0);
}

// ------------------------------------------------------- split planner

TEST(SplitPlan, EveryTileLandsInExactlyOneShard) {
  const Range3 r{Range{1, 10}, Range{1, 6}, Range{1, 4}};
  const TilePlan plan(r.size(), r.i.size());  // one i-row per tile
  // Rows with k <= 3 are "active" — the altitude-shaped coal gate.
  const auto sp = exec::split_plan(
      r, plan, [](int, int k, int) { return k <= 3; });
  EXPECT_EQ(sp.device_cells + sp.host_cells, r.size());
  EXPECT_EQ(static_cast<std::int64_t>(sp.device_tiles.size() +
                                      sp.host_tiles.size()),
            plan.tiles());
  EXPECT_EQ(sp.device_cells, 10 * 3 * 4);
  // Lists are ascending and disjoint.
  std::vector<int> seen(static_cast<std::size_t>(plan.tiles()), 0);
  for (const auto* list : {&sp.device_tiles, &sp.host_tiles}) {
    for (std::size_t n = 0; n < list->size(); ++n) {
      if (n > 0) {
        EXPECT_LT((*list)[n - 1], (*list)[n]);
      }
      ++seen[static_cast<std::size_t>((*list)[n])];
    }
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
  // device_flat enumerates exactly the device tiles' cells, ascending.
  for (std::int64_t lane = 0; lane < sp.device_cells; ++lane) {
    const Range3::Cell c = r.cell(sp.device_flat(lane));
    EXPECT_LE(c.k, 3);
    if (lane > 0) {
      EXPECT_LT(sp.device_flat(lane - 1), sp.device_flat(lane));
    }
  }
}

TEST(SplitPlan, AllTrueAndAllFalseEdges) {
  const Range3 r{Range{1, 7}, Range{1, 3}, Range{1, 5}};
  const TilePlan plan(r.size(), 10);  // ragged last tile
  const auto all = exec::split_plan(
      r, plan, [](int, int, int) { return true; });
  EXPECT_TRUE(all.host_tiles.empty());
  EXPECT_EQ(all.device_cells, r.size());
  // Ragged tail: the last lane decodes to the range's last cell.
  const Range3::Cell last = r.cell(all.device_flat(all.device_cells - 1));
  EXPECT_EQ(last.i, 7);
  EXPECT_EQ(last.k, 3);
  EXPECT_EQ(last.j, 5);
  const auto none = exec::split_plan(
      r, plan, [](int, int, int) { return false; });
  EXPECT_TRUE(none.device_tiles.empty());
  EXPECT_EQ(none.host_cells, r.size());
}

TEST(HeteroSpace, GenericDispatchMatchesThreadsAndSplitRunsBothShards) {
  gpu::Device dev(gpu::DeviceSpec::test_device());
  exec::HeteroSpace het(dev, 3);
  EXPECT_STREQ(het.name(), "hetero");
  EXPECT_EQ(het.concurrency(), 3);

  // Generic reduction: bitwise identical to serial/threads (host shard).
  Range3 r{Range{1, 24}, Range{1, 8}, Range{1, 6}};
  LaunchParams lp;
  auto body = [](DoubleSum& s, int i, int k, int j) {
    s.v += std::sin(0.3 * i) + 1e-6 * k * j;
    ++s.n;
  };
  exec::SerialSpace ser;
  const DoubleSum a = ser.parallel_reduce<DoubleSum>(r, lp, body);
  const DoubleSum b = het.parallel_reduce<DoubleSum>(r, lp, body);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(std::memcmp(&a.v, &b.v, sizeof(double)), 0);
  // Generic dispatches never touch the device shard.
  EXPECT_EQ(het.device_shard().dispatches(), 0u);

  // A split run executes every cell exactly once, device tiles through
  // the device shard (one modeled launch of exactly the shard's lanes).
  lp.grain = r.i.size();
  const TilePlan plan = exec::ExecSpace::plan_for(r, lp);
  const auto sp = exec::split_plan(
      r, plan, [](int, int k, int) { return k >= 7; });
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(r.size()));
  auto count = [&](std::int64_t, std::int64_t b0, std::int64_t e0) {
    for (std::int64_t f = b0; f < e0; ++f) {
      hits[static_cast<std::size_t>(f)].fetch_add(1);
    }
  };
  het.run_split(sp, lp, count, count);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(het.device_shard().dispatches(), 1u);
  ASSERT_EQ(dev.launches().size(), 1u);
  EXPECT_EQ(dev.launches()[0].iterations, sp.device_cells);
}

// ------------------------------------------------------------- knob
// (parse/print/validate of exec= and fuse= live in tests/test_knobs.cpp)

TEST(ExecConfig, MakeSpace) {
  EXPECT_STREQ(exec::make_space(ExecConfig{})->name(), "serial");
  ExecConfig t;
  t.kind = ExecKind::kThreads;
  t.nthreads = 3;
  auto thr = exec::make_space(t);
  EXPECT_STREQ(thr->name(), "threads");
  EXPECT_EQ(thr->concurrency(), 3);
  ExecConfig d;
  d.kind = ExecKind::kDevice;
  EXPECT_THROW(exec::make_space(d), ConfigError);
  gpu::Device dev(gpu::DeviceSpec::test_device());
  EXPECT_STREQ(exec::make_space(d, &dev)->name(), "device");
  // hetero needs a device too (its device shard wraps it).
  ExecConfig h;
  h.kind = ExecKind::kHetero;
  h.nthreads = 2;
  EXPECT_THROW(exec::make_space(h), ConfigError);
  auto het = exec::make_space(h, &dev);
  EXPECT_STREQ(het->name(), "hetero");
  EXPECT_EQ(het->concurrency(), 2);
}

// ------------------------------------- FSBM serial vs threaded step()

model::RunConfig exec_case(fsbm::Version v, const ExecConfig& e) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.nkr = 33;
  cfg.nsteps = 2;
  cfg.version = v;
  cfg.exec = e;
  return cfg;
}

void expect_same_physics(const model::RunResult& a, const model::RunResult& b,
                         const char* label) {
  SCOPED_TRACE(label);
  const fsbm::FsbmStats& fa = a.totals.fsbm;
  const fsbm::FsbmStats& fb = b.totals.fsbm;
  // Integer physics counters: identical.
  EXPECT_EQ(fa.cells_active, fb.cells_active);
  EXPECT_EQ(fa.cells_coal, fb.cells_coal);
  EXPECT_EQ(fa.kernel_table_fills, fb.kernel_table_fills);
  EXPECT_EQ(fa.kernel_entries, fb.kernel_entries);
  EXPECT_EQ(fa.coal_interactions, fb.coal_interactions);
  // Floating-point work counters and precip: bitwise (the exec layer
  // pins the reduction association).
  EXPECT_EQ(fa.coal_flops, fb.coal_flops);
  EXPECT_EQ(fa.cond_flops, fb.cond_flops);
  EXPECT_EQ(fa.nucl_flops, fb.nucl_flops);
  EXPECT_EQ(fa.sed_flops, fb.sed_flops);
  EXPECT_EQ(fa.sed_substeps, fb.sed_substeps);
  EXPECT_EQ(fa.surface_precip, fb.surface_precip);
  // Full state snapshots: bitwise identical.
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& va = a.snapshots[s].variables();
    const auto& vb = b.snapshots[s].variables();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t v = 0; v < va.size(); ++v) {
      EXPECT_EQ(va[v].name, vb[v].name);
      ASSERT_EQ(va[v].data.size(), vb[v].data.size());
      EXPECT_EQ(std::memcmp(va[v].data.data(), vb[v].data.data(),
                            va[v].data.size() * sizeof(float)),
                0)
          << va[v].name << " differs";
    }
  }
}

TEST(ExecFsbm, SerialVsThreadedBitwiseAcrossAllVersions) {
  ExecConfig threads;
  threads.kind = ExecKind::kThreads;
  threads.nthreads = 3;
  for (const fsbm::Version v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    const model::RunResult serial =
        model::run_single(exec_case(v, ExecConfig{}));
    const model::RunResult threaded =
        model::run_single(exec_case(v, threads));
    expect_same_physics(serial, threaded, fsbm::version_name(v));
  }
}

TEST(ExecFsbm, ThreadCountDoesNotChangeResults) {
  // Determinism across thread counts, not just vs. serial: the tile cut
  // never depends on concurrency.
  ExecConfig t2, t7;
  t2.kind = t7.kind = ExecKind::kThreads;
  t2.nthreads = 2;
  t7.nthreads = 7;
  const auto a =
      model::run_single(exec_case(fsbm::Version::kV1LookupOnDemand, t2));
  const auto b =
      model::run_single(exec_case(fsbm::Version::kV1LookupOnDemand, t7));
  expect_same_physics(a, b, "threads:2 vs threads:7");
}

// ------------------------------- device residency dispatch (res=)

TEST(ExecFsbm, ResPersistMatchesStepBitwiseAcrossAllVersions) {
  // res= only changes *when* bytes cross the modeled link, never the
  // physics: persist must be bitwise identical to step in state and
  // physics stats for every version, serial and threaded.
  ExecConfig threads;
  threads.kind = ExecKind::kThreads;
  threads.nthreads = 3;
  for (const fsbm::Version v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    for (const ExecConfig& e : {ExecConfig{}, threads}) {
      model::RunConfig step_cfg = exec_case(v, e);
      model::RunConfig persist_cfg = step_cfg;
      persist_cfg.res = mem::ResidencyMode::kPersist;
      const model::RunResult a = model::run_single(step_cfg);
      const model::RunResult b = model::run_single(persist_cfg);
      expect_same_physics(a, b,
                          (std::string(fsbm::version_name(v)) + " res " +
                           e.describe())
                              .c_str());
    }
  }
}

TEST(ExecFsbm, ResPersistMatchesStepUnderDeviceExec) {
  // exec=device models every host nest as a device kernel; persist then
  // keeps the fields resident between them.  Physics must not move, and
  // the steady-state traffic reduction must be visible in the stats.
  model::RunConfig step_cfg = exec_case(fsbm::Version::kV3Offload3, {});
  step_cfg.exec.kind = ExecKind::kDevice;
  model::RunConfig persist_cfg = step_cfg;
  persist_cfg.res = mem::ResidencyMode::kPersist;
  const model::RunResult a = model::run_single(step_cfg);
  const model::RunResult b = model::run_single(persist_cfg);
  expect_same_physics(a, b, "v3 exec=device res step vs persist");
  EXPECT_LT(b.totals.fsbm.h2d_bytes, a.totals.fsbm.h2d_bytes);
  EXPECT_LT(b.totals.fsbm.d2h_bytes, a.totals.fsbm.d2h_bytes);
  EXPECT_GT(b.resident_bytes_per_rank, 0u);
  EXPECT_EQ(a.resident_bytes_per_rank, 0u);
}

TEST(ExecFsbm, ResPersistMultiRankBitwiseUnderBothHaloModes) {
  // Decomposed runs exercise the dirty-strip path: halo unpack marks
  // only shell strips, under both the blocking and overlapped exchange.
  // exec=device additionally drives begin()'s send-strip d2h flush (the
  // per-round advection marks make every round's strips device-dirty).
  ExecConfig threads, device;
  threads.kind = ExecKind::kThreads;
  threads.nthreads = 2;
  device.kind = ExecKind::kDevice;
  for (const fsbm::Version v :
       {fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3}) {
    for (const dyn::HaloMode h : {dyn::HaloMode::kSync, dyn::HaloMode::kOverlap}) {
      for (const ExecConfig& e : {threads, device}) {
        model::RunConfig step_cfg = exec_case(v, e);
        step_cfg.npx = step_cfg.npy = 2;
        step_cfg.nx = 24;
        step_cfg.ny = 16;
        step_cfg.halo_mode = h;
        model::RunConfig persist_cfg = step_cfg;
        persist_cfg.res = mem::ResidencyMode::kPersist;
        const model::RunResult a = model::run_simulation(step_cfg);
        const model::RunResult b = model::run_simulation(persist_cfg);
        expect_same_physics(a, b,
                            (std::string(fsbm::version_name(v)) + " halo=" +
                             model::knob_name("halo", h) +
                             " exec=" + e.describe() +
                             " res step vs persist")
                                .c_str());
      }
    }
  }
}

TEST(ExecFsbm, ResPersistTrafficDeterministicAcrossThreadCounts) {
  // Dirty marking happens in pass epilogues from deterministic state, so
  // the modeled byte counts — not just the physics — must be identical
  // across executors and thread counts.
  ExecConfig t2, t5;
  t2.kind = t5.kind = ExecKind::kThreads;
  t2.nthreads = 2;
  t5.nthreads = 5;
  model::RunConfig base = exec_case(fsbm::Version::kV3Offload3, t2);
  base.res = mem::ResidencyMode::kPersist;
  model::RunConfig alt = base;
  alt.exec = t5;
  const model::RunResult a = model::run_single(base);
  const model::RunResult b = model::run_single(alt);
  expect_same_physics(a, b, "persist threads:2 vs threads:5");
  EXPECT_EQ(a.totals.fsbm.h2d_bytes, b.totals.fsbm.h2d_bytes);
  EXPECT_EQ(a.totals.fsbm.d2h_bytes, b.totals.fsbm.d2h_bytes);
  EXPECT_EQ(a.totals.fsbm.h2d_transfers, b.totals.fsbm.h2d_transfers);
  EXPECT_EQ(a.totals.fsbm.d2h_transfers, b.totals.fsbm.d2h_transfers);
}

// ------------------------------- heterogeneous dispatch (exec=hetero)

TEST(ExecFsbm, HeteroMatchesDeviceAndThreadsBitwiseAcrossAllVersions) {
  // The acceptance bar: exec=hetero:N must be bitwise identical in state
  // AND physics stats to both exec=device and exec=threads:N, for every
  // version and residency mode.  The split only fires for the offloaded
  // versions; for v0/v1 hetero degenerates to its host shard.
  ExecConfig threads, device, hetero;
  threads.kind = ExecKind::kThreads;
  threads.nthreads = 3;
  device.kind = ExecKind::kDevice;
  hetero.kind = ExecKind::kHetero;
  hetero.nthreads = 3;
  for (const fsbm::Version v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      model::RunConfig het_cfg = exec_case(v, hetero);
      het_cfg.res = res;
      model::RunConfig dev_cfg = het_cfg;
      dev_cfg.exec = device;
      model::RunConfig thr_cfg = het_cfg;
      thr_cfg.exec = threads;
      const model::RunResult h = model::run_single(het_cfg);
      const model::RunResult d = model::run_single(dev_cfg);
      const model::RunResult t = model::run_single(thr_cfg);
      const std::string label = std::string(fsbm::version_name(v)) +
                                " res=" + model::knob_name("res", res);
      expect_same_physics(h, d, (label + " hetero vs device").c_str());
      expect_same_physics(h, t, (label + " hetero vs threads").c_str());
      if (het_cfg.offloaded()) {
        // The split fired and covered every cell.  (At this shallow
        // grid the whole sounding is warmer than the coal gate, so all
        // rows land in the device shard; HeteroSplitsNontriviallyOn-
        // TallDomains exercises the two-sided cut.)
        EXPECT_GT(h.totals.fsbm.shard_cells_device, 0u);
        EXPECT_EQ(h.totals.fsbm.shard_cells_device +
                      h.totals.fsbm.shard_cells_host,
                  static_cast<std::uint64_t>(het_cfg.nx) * het_cfg.ny *
                      het_cfg.nz * het_cfg.nsteps);
        // Non-hetero runs never populate the shard counters.
        EXPECT_EQ(d.totals.fsbm.shard_cells_device, 0u);
        EXPECT_EQ(t.totals.fsbm.shard_cells_device, 0u);
      }
    }
  }
}

model::RunConfig hetero_tall_case(fsbm::Version v) {
  // 40 levels x 400 m reaches ~16 km: rows above the 223.15 K coal gate
  // (~12.1 km) are predicate-false, so the split is nontrivial — both
  // shards get real work.
  model::RunConfig cfg;
  cfg.nx = 12;
  cfg.ny = 10;
  cfg.nz = 40;
  cfg.nkr = 33;
  cfg.nsteps = 2;
  cfg.version = v;
  cfg.exec.kind = ExecKind::kHetero;
  cfg.exec.nthreads = 2;
  return cfg;
}

TEST(ExecFsbm, HeteroSplitsNontriviallyOnTallDomains) {
  model::RunConfig cfg = hetero_tall_case(fsbm::Version::kV3Offload3);
  model::RunConfig dev_cfg = cfg;
  dev_cfg.exec = ExecConfig{};
  dev_cfg.exec.kind = ExecKind::kDevice;
  const model::RunResult h = model::run_single(cfg);
  const model::RunResult d = model::run_single(dev_cfg);
  expect_same_physics(h, d, "tall-domain hetero vs device");
  // Both shards carried cells.
  EXPECT_GT(h.totals.fsbm.shard_cells_device, 0u);
  EXPECT_GT(h.totals.fsbm.shard_cells_host, 0u);
  EXPECT_GT(h.device_shard_fraction(), 0.0);
  EXPECT_LT(h.device_shard_fraction(), 1.0);
  // Shard-granular coherence: the hetero coal pass ships only the
  // device shard's rows, so its h2d traffic is strictly below the
  // full-field re-maps exec=device pays under res=step.
  EXPECT_LT(h.totals.fsbm.h2d_bytes, d.totals.fsbm.h2d_bytes);
}

TEST(ExecFsbm, HeteroAllColdPredicateSkipsTheDeviceEntirely) {
  // Raise the coal gate above every temperature in the sounding: the
  // predicate is all-false, the device shard gets zero tiles, and the
  // hetero run still matches exec=device bitwise.
  model::RunConfig cfg = exec_case(fsbm::Version::kV2Offload2, ExecConfig{});
  cfg.exec.kind = ExecKind::kHetero;
  cfg.exec.nthreads = 2;
  cfg.fsbm_params.t_coal = 1000.0;
  model::RunConfig dev_cfg = cfg;
  dev_cfg.exec = ExecConfig{};
  dev_cfg.exec.kind = ExecKind::kDevice;
  const model::RunResult h = model::run_single(cfg);
  const model::RunResult d = model::run_single(dev_cfg);
  expect_same_physics(h, d, "all-cold hetero vs device");
  EXPECT_EQ(h.totals.fsbm.shard_cells_device, 0u);
  EXPECT_GT(h.totals.fsbm.shard_cells_host, 0u);
  // No device tiles -> no coal-pass transfers at all under hetero.
  EXPECT_EQ(h.totals.fsbm.h2d_bytes, 0u);
  EXPECT_EQ(h.totals.fsbm.d2h_bytes, 0u);
}

TEST(ExecFsbm, HeteroMultiRankBitwiseUnderBothHaloAndResModes) {
  // Decomposed runs: the split interacts with the phased halo exchange
  // (persist's dirty-strip updates flow through the same data region the
  // shard-granular coal transfers use).  hetero must stay bitwise equal
  // to device and threads under halo=sync|overlap x res=step|persist,
  // for every version; v0/v1 have no residency surface, so only
  // res=step is meaningful there.
  ExecConfig threads, device, hetero;
  threads.kind = ExecKind::kThreads;
  threads.nthreads = 2;
  device.kind = ExecKind::kDevice;
  hetero.kind = ExecKind::kHetero;
  hetero.nthreads = 2;
  for (const fsbm::Version v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    const bool offloaded = v != fsbm::Version::kV0Baseline &&
                           v != fsbm::Version::kV1LookupOnDemand;
    for (const dyn::HaloMode hm :
         {dyn::HaloMode::kSync, dyn::HaloMode::kOverlap}) {
      for (const mem::ResidencyMode res :
           {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
        if (!offloaded && res == mem::ResidencyMode::kPersist) continue;
        model::RunConfig het_cfg = exec_case(v, hetero);
        het_cfg.npx = het_cfg.npy = 2;
        het_cfg.nx = 24;
        het_cfg.ny = 16;
        het_cfg.halo_mode = hm;
        het_cfg.res = res;
        model::RunConfig dev_cfg = het_cfg;
        dev_cfg.exec = device;
        model::RunConfig thr_cfg = het_cfg;
        thr_cfg.exec = threads;
        const model::RunResult h = model::run_simulation(het_cfg);
        const model::RunResult d = model::run_simulation(dev_cfg);
        const model::RunResult t = model::run_simulation(thr_cfg);
        const std::string label = std::string(fsbm::version_name(v)) +
                                  " halo=" + model::knob_name("halo", hm) +
                                  " res=" + model::knob_name("res", res);
        expect_same_physics(h, d, (label + " hetero vs device").c_str());
        expect_same_physics(h, t, (label + " hetero vs threads").c_str());
      }
    }
  }
}

TEST(ExecFsbm, HeteroTransfersReconcileWithDeviceTransferStats) {
  // Every byte the device records under the split must be charged into
  // FsbmStats by exactly one pass bracket — shard-granular uploads,
  // kernel-write flushes, transport marks, and the pre-snapshot flush
  // included — so the run totals reconcile with gpu::TransferStats
  // exactly, under both residency modes.
  for (const mem::ResidencyMode res :
       {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
    SCOPED_TRACE(model::knob_name("res", res));
    model::RunConfig cfg = hetero_tall_case(fsbm::Version::kV3Offload3);
    cfg.res = res;
    cfg.validate();
    const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
    model::RankModel rank(cfg, patches[0], nullptr);
    rank.init();
    model::StepStats total;
    for (int s = 0; s < 3; ++s) total.merge(rank.step());
    const gpu::TransferStats& tr = rank.device()->transfers();
    EXPECT_EQ(total.fsbm.h2d_bytes, tr.h2d_bytes);
    EXPECT_EQ(total.fsbm.d2h_bytes, tr.d2h_bytes);
    EXPECT_EQ(total.fsbm.h2d_transfers, tr.h2d_count);
    EXPECT_EQ(total.fsbm.d2h_transfers, tr.d2h_count);
  }
}

TEST(ExecFsbm, HeteroTrafficDeterministicAcrossHostShardWidths) {
  // The split and its transfers are pure functions of the predicate, so
  // hetero traffic — not just physics — is identical across host-shard
  // thread counts.
  model::RunConfig a_cfg = hetero_tall_case(fsbm::Version::kV3Offload3);
  a_cfg.res = mem::ResidencyMode::kPersist;
  model::RunConfig b_cfg = a_cfg;
  b_cfg.exec.nthreads = 5;
  const model::RunResult a = model::run_single(a_cfg);
  const model::RunResult b = model::run_single(b_cfg);
  expect_same_physics(a, b, "hetero:2 vs hetero:5");
  EXPECT_EQ(a.totals.fsbm.h2d_bytes, b.totals.fsbm.h2d_bytes);
  EXPECT_EQ(a.totals.fsbm.d2h_bytes, b.totals.fsbm.d2h_bytes);
  EXPECT_EQ(a.totals.fsbm.h2d_transfers, b.totals.fsbm.h2d_transfers);
  EXPECT_EQ(a.totals.fsbm.d2h_transfers, b.totals.fsbm.d2h_transfers);
  EXPECT_EQ(a.totals.fsbm.shard_cells_device, b.totals.fsbm.shard_cells_device);
  EXPECT_EQ(a.totals.fsbm.shard_cells_host, b.totals.fsbm.shard_cells_host);
}

TEST(ExecFsbm, MultiRankThreadedMatchesSerial) {
  // Decomposed run: per-rank exec spaces + threaded halo pack/unpack
  // must not perturb the solution either.
  ExecConfig threads;
  threads.kind = ExecKind::kThreads;
  threads.nthreads = 2;
  model::RunConfig cs = exec_case(fsbm::Version::kV1LookupOnDemand, {});
  cs.npx = cs.npy = 2;
  cs.nx = 24;
  cs.ny = 16;
  model::RunConfig ct = cs;
  ct.exec = threads;
  const auto a = model::run_simulation(cs);
  const auto b = model::run_simulation(ct);
  expect_same_physics(a, b, "4 ranks serial vs threads:2");
}

}  // namespace
}  // namespace wrf
