// Unit + property tests for gpusim: occupancy, cache hierarchy, data
// environment (stack/heap failure modes of §VI-B/C), launch metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "gpu/cache.hpp"
#include "gpu/device.hpp"
#include "par/thread_pool.hpp"

namespace wrf::gpu {
namespace {

// ---------- occupancy ----------

TEST(Occupancy, GridLimitedSmallLaunch) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  // 30 blocks over 108 SMs: the collapse(2) regime of the paper.
  const Occupancy occ = compute_occupancy(dev, 30, 128, 64);
  EXPECT_STREQ(occ.limiter, "grid");
  EXPECT_LT(occ.achieved, 0.05);       // single-digit occupancy
  EXPECT_GT(occ.theoretical, occ.achieved);
}

TEST(Occupancy, RegisterLimitedLargeLaunch) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  // Plenty of blocks, 90 regs/thread: the collapse(3) regime.
  const Occupancy occ = compute_occupancy(dev, 100000, 128, 90);
  EXPECT_STREQ(occ.limiter, "registers");
  // 65536/(90*128) = 5 blocks -> 20 warps -> 31.25%.
  EXPECT_NEAR(occ.achieved, 0.3125, 1e-9);
}

TEST(Occupancy, MonotoneNonIncreasingInRegisters) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  double prev = 1.0;
  for (int regs : {16, 32, 48, 64, 96, 128, 192, 255}) {
    const Occupancy occ = compute_occupancy(dev, 1 << 20, 128, regs);
    EXPECT_LE(occ.achieved, prev + 1e-12) << "regs=" << regs;
    prev = occ.achieved;
  }
}

TEST(Occupancy, MonotoneNonDecreasingInGrid) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  double prev = 0.0;
  for (std::int64_t blocks : {1, 10, 100, 1000, 10000}) {
    const Occupancy occ = compute_occupancy(dev, blocks, 128, 90);
    EXPECT_GE(occ.achieved, prev - 1e-12);
    prev = occ.achieved;
  }
}

TEST(Occupancy, WarpLimitedWhenFewRegisters) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  const Occupancy occ = compute_occupancy(dev, 1 << 20, 128, 16);
  // 16 regs: register limit = 32 blocks > warp limit 16 blocks of 4 warps.
  EXPECT_STREQ(occ.limiter, "warps");
  EXPECT_NEAR(occ.theoretical, 1.0, 1e-12);
}

TEST(Occupancy, RejectsBadBlockSize) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  EXPECT_THROW(compute_occupancy(dev, 10, 0, 64), ConfigError);
  EXPECT_THROW(compute_occupancy(dev, 10, 100, 64), ConfigError);  // not warp-multiple
}

// ---------- cache sim ----------

TEST(CacheSim, ColdMissesThenHits) {
  CacheSim c(1024, 64, 4);  // 16 lines
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t a = 0; a < 8; ++a) c.access(a * 64, 4, false);
  }
  EXPECT_EQ(c.stats().misses, 8u);
  EXPECT_EQ(c.stats().hits, 16u);
}

TEST(CacheSim, CapacityEvictionUnderLru) {
  CacheSim c(1024, 64, 16);  // fully associative, 16 lines
  // Touch 17 lines, then re-touch line 0: it must have been evicted.
  for (std::uint64_t a = 0; a <= 16; ++a) c.access(a * 64, 4, false);
  const auto misses_before = c.stats().misses;
  c.access(0, 4, false);
  EXPECT_EQ(c.stats().misses, misses_before + 1);
}

TEST(CacheSim, LruKeepsHotLine) {
  CacheSim c(256, 64, 4);  // one set of 4 ways
  c.access(0 * 64, 4, false);
  for (std::uint64_t a = 1; a < 4; ++a) c.access(a * 64, 4, false);
  c.access(0, 4, false);          // refresh line 0
  c.access(4 * 64, 4, false);     // evicts LRU = line 1
  const auto m = c.stats().misses;
  c.access(0, 4, false);          // still resident
  EXPECT_EQ(c.stats().misses, m);
  c.access(1 * 64, 4, false);     // line 1 was the victim
  EXPECT_EQ(c.stats().misses, m + 1);
}

TEST(CacheSim, StraddlingAccessTouchesTwoLines) {
  CacheSim c(1024, 64, 4);
  c.access(60, 8, false);  // crosses the 64B boundary
  EXPECT_EQ(c.stats().accesses, 2u);
}

TEST(CacheSim, WritebackOnDirtyEviction) {
  CacheSim c(256, 64, 4);  // one set
  c.access(0, 4, true);    // dirty line 0
  for (std::uint64_t a = 1; a <= 4; ++a) c.access(a * 64, 4, false);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheSim, HitRateDropsWithWorkingSet) {
  // Stream over working sets of growing size; hit rate must not rise.
  double prev = 1.0;
  for (std::uint64_t lines : {8, 16, 64, 256}) {
    CacheSim c(16 * 64, 64, 4);  // 16-line cache
    for (int rep = 0; rep < 4; ++rep) {
      for (std::uint64_t a = 0; a < lines; ++a) c.access(a * 64, 4, false);
    }
    const double hr = c.stats().hit_rate();
    EXPECT_LE(hr, prev + 1e-12) << lines;
    prev = hr;
  }
}

TEST(CacheSim, RejectsBadGeometry) {
  EXPECT_THROW(CacheSim(1000, 60, 4), ConfigError);   // line not pow2
  EXPECT_THROW(CacheSim(100, 64, 4), ConfigError);    // capacity < ways*line
  EXPECT_THROW(CacheSim(1024, 64, 0), ConfigError);
}

TEST(Hierarchy, MissesFlowToDram) {
  Hierarchy h(1, 256, 4, 1024, 4, 64);
  // 64 distinct lines: miss everywhere, read 64 lines from DRAM.
  for (std::uint64_t a = 0; a < 64; ++a) h.access(0, a * 64, 4, false);
  EXPECT_EQ(h.dram_read_bytes(), 64u * 64u);
  EXPECT_EQ(h.l1_stats().misses, 64u);
}

TEST(Hierarchy, L2AbsorbsL1Evictions) {
  Hierarchy h(1, 256, 4, 64 * 64, 16, 64);  // tiny L1, 64-line L2
  for (int rep = 0; rep < 2; ++rep) {
    for (std::uint64_t a = 0; a < 32; ++a) h.access(0, a * 64, 4, false);
  }
  // Second sweep misses L1 (capacity 4 lines) but hits L2.
  EXPECT_GT(h.l2_stats().hits, 0u);
  EXPECT_EQ(h.dram_read_bytes(), 32u * 64u);  // only cold misses
}

TEST(Hierarchy, DirtyL2EvictionsAreDramWrites) {
  Hierarchy h(1, 128, 2, 256, 4, 64);  // 4-line L2
  for (std::uint64_t a = 0; a < 8; ++a) h.access(0, a * 64, 4, true);
  EXPECT_GT(h.dram_write_bytes(), 0u);
}

// ---------- device ----------

TEST(Device, FunctionalExecutionCoversGrid) {
  Device dev(DeviceSpec::test_device());
  std::vector<std::atomic<int>> hits(500);
  KernelDesc k;
  k.name = "touch";
  k.iterations = 500;
  k.grain = 1;
  k.body = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  };
  k.flops_per_iter = 10;
  const KernelStats ks = dev.launch(k);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(ks.iterations, 500);
  EXPECT_GT(ks.modeled_time_ms, 0.0);
}

/// What a ranged launch did: the ranges the body saw and the groups
/// gather_lanes formed in them, both sorted so runs compare as sets.
struct RangeLog {
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::vector<std::vector<std::int64_t>> groups;
  std::vector<int> seen;  ///< per iteration: times gathered
};

void run_ranged(int pool_threads, std::int64_t iterations, RangeLog& log) {
  par::ThreadPool pool(pool_threads);
  Device dev(DeviceSpec::test_device(), &pool);
  log.seen.assign(static_cast<std::size_t>(iterations), 0);
  KernelDesc k;
  k.name = "lockstep";
  k.iterations = iterations;
  k.grain = 10;
  k.body = [&](std::int64_t lo, std::int64_t hi) {
    // Flag about 40% of iterations in an irregular pattern, as the coal
    // predicate flags storm cells.
    std::vector<std::vector<std::int64_t>> mine;
    gather_lanes<4>(
        lo, hi, [](std::int64_t it) { return (it * 7) % 5 < 2; },
        [&](const std::int64_t* its, int n) {
          mine.emplace_back(its, its + n);
        });
    std::lock_guard<std::mutex> lk(log.mu);
    log.ranges.emplace_back(lo, hi);
    for (auto& g : mine) {
      for (const std::int64_t it : g) ++log.seen[static_cast<std::size_t>(it)];
      log.groups.push_back(std::move(g));
    }
  };
  dev.launch(k);
  std::sort(log.ranges.begin(), log.ranges.end());
  std::sort(log.groups.begin(), log.groups.end());
}

TEST(Device, RangedBodyCoversGridInPoolIndependentGroups) {
  constexpr std::int64_t kIters = 97;  // 10 ranges, the last one short
  RangeLog one, three;
  run_ranged(1, kIters, one);
  run_ranged(3, kIters, three);

  // The ranges tile [0, iterations) once, in blocks of grain.
  ASSERT_EQ(one.ranges.size(), 10u);
  for (std::size_t b = 0; b < one.ranges.size(); ++b) {
    EXPECT_EQ(one.ranges[b].first, static_cast<std::int64_t>(b) * 10);
    EXPECT_EQ(one.ranges[b].second,
              std::min<std::int64_t>(kIters, (b + 1) * 10));
  }
  // Every flagged iteration is gathered exactly once, the rest never,
  // in groups of at most 4 lanes drawn from one range.
  for (std::int64_t it = 0; it < kIters; ++it) {
    EXPECT_EQ(one.seen[static_cast<std::size_t>(it)],
              (it * 7) % 5 < 2 ? 1 : 0)
        << "iteration " << it;
  }
  for (const auto& g : one.groups) {
    ASSERT_FALSE(g.empty());
    EXPECT_LE(g.size(), 4u);
    EXPECT_EQ(g.front() / 10, g.back() / 10) << "group spans two ranges";
  }
  // The cut and the grouping do not depend on the pool.
  EXPECT_EQ(one.ranges, three.ranges);
  EXPECT_EQ(one.groups, three.groups);
  EXPECT_EQ(one.seen, three.seen);
}

TEST(Device, GrainLeavesTheModelUnchanged) {
  // The same launch with one-iteration ranges and with ranges of 7:
  // every iteration runs once either way, and the modeled numbers are
  // identical.
  Device dev(DeviceSpec::test_device());
  std::vector<std::atomic<int>> hits(300);
  KernelDesc k;
  k.name = "per_iteration";
  k.iterations = 300;
  k.flops_per_iter = 10;
  k.bytes_per_iter = 64;
  k.grain = 1;
  k.body = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  };
  const KernelStats a = dev.launch(k);
  k.name = "ranged";
  k.grain = 7;
  const KernelStats b = dev.launch(k);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
  EXPECT_EQ(a.modeled_time_ms, b.modeled_time_ms);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.dram_read_gb, b.dram_read_gb);
  EXPECT_EQ(a.occupancy.achieved, b.occupancy.achieved);

  // A body needs a grain; a perf-model-only launch does not.
  k.grain = 0;
  EXPECT_THROW(dev.launch(k), ConfigError);
  k.body = nullptr;
  EXPECT_NO_THROW(dev.launch(k));
}

TEST(Device, StackOverflowRaisesDeviceError) {
  Device dev(DeviceSpec::a100_40gb());
  KernelDesc k;
  k.name = "coal_bott_new";
  k.iterations = 100;
  k.stack_bytes_per_thread = 100000;  // above the 8 KiB default
  try {
    dev.launch(k);
    FAIL() << "expected DeviceError";
  } catch (const DeviceError& e) {
    EXPECT_EQ(e.code(), DeviceError::kLaunchOutOfStack);
    EXPECT_NE(std::string(e.what()).find("stack"), std::string::npos);
  }
}

TEST(Device, RaisingStackLimitFixesIt) {
  // The paper's NV_ACC_CUDA_STACKSIZE=65536 fix.
  Device dev(DeviceSpec::a100_40gb());
  dev.set_stack_limit(65536);
  KernelDesc k;
  k.name = "coal_bott_new";
  k.iterations = 16;
  k.stack_bytes_per_thread = 33000;
  EXPECT_NO_THROW(dev.launch(k));
}

TEST(Device, AutomaticArraysOverflowHeapOnlyAtHighResidency) {
  // The §VI-B mechanism: identical per-thread workspace, but collapse(3)
  // keeps vastly more threads resident than a grid-limited collapse(2).
  Device dev(DeviceSpec::a100_40gb());
  dev.set_heap_limit(64ull << 20);  // the paper's 64 MB
  KernelDesc k;
  k.name = "coal_bott_new";
  k.regs_per_thread = 90;
  k.workspace_bytes_per_thread = 4096;

  k.iterations = 3750;  // collapse(2): j*k blocks only
  EXPECT_NO_THROW(dev.launch(k));

  k.iterations = 400000;  // collapse(3): occupancy-limited residency
  EXPECT_THROW(dev.launch(k), DeviceError);

  // Pooling the workspace (Listing 8) removes the per-thread demand.
  k.workspace_bytes_per_thread = 0;
  EXPECT_NO_THROW(dev.launch(k));
}

TEST(Device, AllocationsTrackedAndCapacityEnforced) {
  DeviceSpec spec = DeviceSpec::test_device();  // 1 GiB
  Device dev(spec);
  dev.enter_data_alloc(600ull << 20);
  EXPECT_EQ(dev.allocated_bytes(), 600ull << 20);
  EXPECT_THROW(dev.enter_data_alloc(600ull << 20), DeviceError);
  dev.exit_data_delete(600ull << 20);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_NO_THROW(dev.enter_data_alloc(600ull << 20));
}

TEST(Device, TransfersPricedByLinkBandwidth) {
  Device dev(DeviceSpec::a100_40gb());
  dev.map_to(25ull * 1000 * 1000 * 1000 / 1000);  // 25 MB at 25 GB/s = 1 ms
  EXPECT_NEAR(dev.transfers().modeled_time_ms, 1.0, 0.1);
  dev.map_from(1000);
  EXPECT_EQ(dev.transfers().d2h_bytes, 1000u);
}

TEST(Device, HigherOccupancyShortensMemoryBoundKernel) {
  const DeviceSpec spec = DeviceSpec::a100_40gb();
  Device dev(spec);
  KernelDesc k;
  k.name = "membound";
  k.bytes_per_iter = 2000.0;
  k.flops_per_iter = 10.0;
  k.regs_per_thread = 90;
  k.iterations = 3750;  // low occupancy
  const double t_low = dev.launch(k).modeled_time_ms /
                       static_cast<double>(k.iterations);
  k.iterations = 400000;  // high occupancy
  const double t_high = dev.launch(k).modeled_time_ms /
                        static_cast<double>(k.iterations);
  EXPECT_LT(t_high, t_low);
}

TEST(Device, TraceDrivesHitRatesAndDram) {
  Device dev(DeviceSpec::test_device());
  dev.set_trace_sample_budget(64);
  KernelDesc k;
  k.name = "traced";
  k.iterations = 64;
  k.bytes_per_iter = 256;
  // Every iteration re-reads the same small table: high hit rate.
  k.trace = [](std::int64_t, std::vector<AccessEvent>& out) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      out.push_back({0x10000 + (a % 4) * 64, 4, false});
    }
  };
  const KernelStats ks = dev.launch(k);
  EXPECT_GT(ks.l1_hit_rate, 0.9);
  EXPECT_LT(ks.dram_read_gb * 1e9, 64.0 * 64.0 * 4.0);
}

TEST(Device, TraceCacheReusedAcrossLaunches) {
  Device dev(DeviceSpec::test_device());
  dev.set_trace_sample_budget(32);
  std::atomic<int> trace_calls{0};
  KernelDesc k;
  k.name = "cached";
  k.iterations = 32;
  k.bytes_per_iter = 64;
  k.trace = [&](std::int64_t, std::vector<AccessEvent>& out) {
    trace_calls.fetch_add(1);
    out.push_back({0x2000, 4, false});
  };
  dev.launch(k);
  const int after_first = trace_calls.load();
  dev.launch(k);
  EXPECT_EQ(trace_calls.load(), after_first);  // second launch reuses
}

TEST(Roofline, MemoryBoundBelowRidge) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  // Very low AI: bandwidth-limited.
  EXPECT_NEAR(roofline_gflops(dev, 0.1, false), 155.5, 1.0);
  // Very high AI: compute-limited at peak.
  EXPECT_DOUBLE_EQ(roofline_gflops(dev, 1000.0, false), 19500.0);
  EXPECT_DOUBLE_EQ(roofline_gflops(dev, 1000.0, true), 9700.0);
}

TEST(Roofline, SinglePrecisionRoofAboveDouble) {
  const DeviceSpec dev = DeviceSpec::a100_40gb();
  for (double ai : {0.5, 2.0, 10.0, 100.0}) {
    EXPECT_GE(roofline_gflops(dev, ai, false), roofline_gflops(dev, ai, true));
  }
}

}  // namespace
}  // namespace wrf::gpu
