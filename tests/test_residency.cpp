// Unit tests for the device-residency subsystem (src/mem/residency):
// DirtySpans coalescing/intersection, DataRegion `target data` semantics
// (dirty-bit transitions, strip-granular updates, double-map idempotence,
// out-of-memory), the Device named-allocation capacity check, and the
// res= knob parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gpu/device.hpp"
#include "mem/residency.hpp"
#include "model/case_conus.hpp"
#include "model/driver.hpp"

namespace wrf {
namespace {

using mem::ByteRange;
using mem::DataRegion;
using mem::DirtySpans;
using mem::FieldId;
using mem::ResidencyMode;

// ----------------------------------------------------------- DirtySpans

TEST(DirtySpans, CoalescesAdjacentAndOverlapping) {
  DirtySpans d;
  EXPECT_TRUE(d.empty());
  d.add(0, 100);
  d.add(100, 50);  // adjacent: one span
  EXPECT_EQ(d.bytes(), 150u);
  EXPECT_EQ(d.spans(), 1u);
  d.add(120, 100);  // overlapping: still one span
  EXPECT_EQ(d.bytes(), 220u);
  EXPECT_EQ(d.spans(), 1u);
  d.add(1000, 10);  // disjoint: second span
  EXPECT_EQ(d.bytes(), 230u);
  EXPECT_EQ(d.spans(), 2u);
  d.add(0, 0);  // empty insert is a no-op
  EXPECT_EQ(d.bytes(), 230u);
}

TEST(DirtySpans, OutOfOrderInsertsNormalize) {
  DirtySpans d;
  d.add(500, 100);
  d.add(0, 100);    // behind the last span
  d.add(80, 440);   // bridges both
  EXPECT_EQ(d.spans(), 1u);
  EXPECT_EQ(d.bytes(), 600u);
}

TEST(DirtySpans, TakeRangeIntersectsAndSplits) {
  DirtySpans d;
  d.add(0, 100);
  d.add(200, 100);
  // Window covering the tail of span 1 and the head of span 2.
  EXPECT_EQ(d.take_range(50, 200), 100u);  // 50 + 50 dirty bytes inside
  EXPECT_EQ(d.bytes(), 100u);              // [0,50) and [250,300) remain
  EXPECT_EQ(d.spans(), 2u);
  EXPECT_EQ(d.take_range(1000, 10), 0u);   // disjoint window: nothing
  EXPECT_EQ(d.take_all(), 100u);
  EXPECT_TRUE(d.empty());
}

TEST(DirtySpans, TakeRangesSweepsSortedRows) {
  DirtySpans d;
  d.add(0, 100);
  d.add(200, 100);
  d.add(400, 100);
  // Sorted disjoint rows: one inside span 1, one bridging spans 2 and 3,
  // one past everything.
  std::vector<ByteRange> rows{{10, 20}, {250, 200}, {900, 50}};
  EXPECT_EQ(d.take_ranges(rows), 20u + 50u + 50u);
  // Remaining: [0,10) [30,100) [200,250) [450,500).
  EXPECT_EQ(d.bytes(), 10u + 70u + 50u + 50u);
  EXPECT_EQ(d.spans(), 4u);
  EXPECT_EQ(d.take_ranges(rows), 0u);  // idempotent on the same rows
  EXPECT_EQ(d.take_ranges({}), 0u);
}

TEST(DirtySpans, AddAllReplaces) {
  DirtySpans d;
  d.add(10, 5);
  d.add_all(1000);
  EXPECT_EQ(d.bytes(), 1000u);
  EXPECT_EQ(d.spans(), 1u);
}

// ------------------------------------------------- Device named allocs

TEST(DeviceNamedAlloc, ChargesCapacityAndRaisesPaperStyleOom) {
  gpu::Device dev(gpu::DeviceSpec::test_device());  // 1 GiB
  dev.alloc_named("ff_liquid", 600ull << 20);
  EXPECT_TRUE(dev.has_named("ff_liquid"));
  EXPECT_EQ(dev.named_bytes("ff_liquid"), 600ull << 20);
  EXPECT_EQ(dev.allocated_bytes(), 600ull << 20);
  // A second buffer that does not fit raises the paper-style error.
  try {
    dev.alloc_named("ff_ice", 600ull << 20);
    FAIL() << "expected gpu::DeviceError";
  } catch (const gpu::DeviceError& e) {
    EXPECT_EQ(e.code(), gpu::DeviceError::kOutOfMemory);
    EXPECT_NE(std::string(e.what()).find("out of memory"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ff_ice"), std::string::npos);
  }
  // Re-allocating an existing name is a caller bug, not an OOM.
  EXPECT_THROW(dev.alloc_named("ff_liquid", 1), Error);
  dev.free_named("ff_liquid");
  EXPECT_FALSE(dev.has_named("ff_liquid"));
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_NO_THROW(dev.alloc_named("ff_ice", 600ull << 20));
  EXPECT_THROW(dev.free_named("nope"), Error);
}

TEST(DeviceNamedAlloc, TransientMapsCheckCapacityWithoutCharging) {
  gpu::Device dev(gpu::DeviceSpec::test_device());  // 1 GiB
  dev.alloc_named("resident", 900ull << 20);
  // A transient map must fit beside the persistent allocations...
  EXPECT_THROW(dev.map_to(200ull << 20), gpu::DeviceError);
  EXPECT_THROW(dev.map_from(200ull << 20), gpu::DeviceError);
  // ...but a fitting one transfers without charging capacity.
  dev.map_to(50ull << 20);
  EXPECT_EQ(dev.allocated_bytes(), 900ull << 20);
  EXPECT_EQ(dev.transfers().h2d_bytes, 50ull << 20);
  EXPECT_EQ(dev.transfers().h2d_count, 1u);
  // `target update` into resident memory never checks capacity.
  EXPECT_NO_THROW(dev.update_to(900ull << 20));
  EXPECT_NO_THROW(dev.update_from(900ull << 20));
  EXPECT_EQ(dev.transfers().d2h_count, 1u);
}

// ------------------------------------------------------------ DataRegion

TEST(DataRegion, DirtyBitTransitions) {
  gpu::Device dev(gpu::DeviceSpec::test_device());
  DataRegion region(dev);
  const FieldId f = region.add_field("temp", 4096);
  // Registered but unmapped: the host copy is the only one.
  EXPECT_FALSE(region.resident(f));
  EXPECT_EQ(region.host_dirty_bytes(f), 4096u);

  region.map_alloc(f);
  EXPECT_TRUE(region.resident(f));
  EXPECT_EQ(region.resident_bytes(), 4096u);
  // Device copy undefined until the first update: still fully host-dirty.
  EXPECT_EQ(region.host_dirty_bytes(f), 4096u);
  EXPECT_EQ(region.update_to(f), 4096u);
  EXPECT_EQ(region.host_dirty_bytes(f), 0u);
  EXPECT_EQ(region.update_to(f), 0u);  // clean: steady state transfers 0

  // A device kernel writes; the host copy goes stale until update_from.
  region.mark_device_dirty(f);
  EXPECT_EQ(region.device_dirty_bytes(f), 4096u);
  EXPECT_EQ(region.update_from(f), 4096u);
  EXPECT_EQ(region.device_dirty_bytes(f), 0u);

  // A host pass writes a sub-range; only it re-transfers.
  region.mark_host_dirty(f, 128, 64);
  EXPECT_EQ(region.update_to(f), 64u);

  // Unmap returns the field to host-only (full host dirt for a re-map).
  region.unmap(f);
  EXPECT_FALSE(region.resident(f));
  EXPECT_EQ(region.resident_bytes(), 0u);
  EXPECT_EQ(region.host_dirty_bytes(f), 4096u);
  EXPECT_FALSE(dev.has_named("temp"));
}

TEST(DataRegion, LastWriterWinsAcrossSides) {
  // Marking bytes dirty on one side drops the other side's pending
  // marks for those bytes: a host write supersedes an unflushed device
  // write of the same range (and vice versa), so an update can never
  // ship stale data over fresher data.
  gpu::Device dev(gpu::DeviceSpec::test_device());
  DataRegion region(dev);
  const FieldId f = region.add_field("qv", 4096);
  region.map_to(f);  // resident and clean
  region.mark_device_dirty(f);        // a kernel wrote everything...
  region.mark_host_dirty(f);          // ...then the host rewrote it all
  EXPECT_EQ(region.device_dirty_bytes(f), 0u);
  EXPECT_EQ(region.host_dirty_bytes(f), 4096u);
  EXPECT_EQ(region.update_from(f), 0u);  // nothing stale crosses d2h
  EXPECT_EQ(region.update_to(f), 4096u);
  // Ranged: a device write supersedes only the overlapped host bytes.
  region.mark_host_dirty(f, 0, 1024);
  region.mark_device_dirty(f, 512, 256);
  EXPECT_EQ(region.host_dirty_bytes(f), 768u);  // [0,512) + [768,1024)
  EXPECT_EQ(region.device_dirty_bytes(f), 256u);
  region.mark_host_dirty(f, 512, 128);  // host takes back half the range
  EXPECT_EQ(region.device_dirty_bytes(f), 128u);
  EXPECT_EQ(region.host_dirty_bytes(f), 896u);
  // A full map(to:) makes both sides agree: all pending marks die.
  region.map_to(f);
  EXPECT_EQ(region.host_dirty_bytes(f), 0u);
  EXPECT_EQ(region.device_dirty_bytes(f), 0u);
}

TEST(DataRegion, DoubleMapIsIdempotent) {
  gpu::Device dev(gpu::DeviceSpec::test_device());
  DataRegion region(dev);
  const FieldId f = region.add_field("qv", 1 << 20);
  region.map_alloc(f);
  const std::uint64_t allocated = dev.allocated_bytes();
  // OpenMP presence semantics: mapping again allocates and charges
  // nothing.
  region.map_alloc(f);
  EXPECT_EQ(dev.allocated_bytes(), allocated);
  EXPECT_EQ(region.resident_bytes(), 1u << 20);
  region.map_to(f);
  region.map_to(f);
  EXPECT_EQ(dev.allocated_bytes(), allocated);
  EXPECT_EQ(dev.transfers().h2d_bytes, 2u << 20);  // two full uploads
  region.unmap(f);
  region.unmap(f);  // second unmap is a no-op
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(DataRegion, StripGranularUpdates) {
  gpu::Device dev(gpu::DeviceSpec::test_device());
  DataRegion region(dev);
  const FieldId f = region.add_field("ff_liquid", 1 << 20);
  region.map_to(f);  // resident and clean

  // A halo unpack marks two shell strips (rows arriving in ascending
  // memory order coalesce per strip).
  region.mark_host_dirty(f, 0, 256);
  region.mark_host_dirty(f, 256, 256);    // south strip: one span
  region.mark_host_dirty(f, 65536, 256);  // west strip row
  EXPECT_EQ(region.host_dirty_spans(f), 2u);
  EXPECT_EQ(region.update_to(f), 768u);   // strips only, never the field

  // Row-batched update of a rect: takes only the dirty bytes inside the
  // rows, prices one transfer.
  region.mark_device_dirty(f, 0, 1 << 20);  // kernel wrote everything
  const std::uint64_t d2h0 = dev.transfers().d2h_count;
  std::vector<ByteRange> rows{{1024, 128}, {4096, 128}};
  EXPECT_EQ(region.update_from_ranges(f, rows), 256u);
  EXPECT_EQ(dev.transfers().d2h_count - d2h0, 1u);
  // The flushed rows are no longer device-dirty; the rest still is.
  EXPECT_EQ(region.device_dirty_bytes(f), (1u << 20) - 256u);
  EXPECT_EQ(region.update_from_range(f, 1024, 128), 0u);
}

TEST(DataRegion, RangedUpdateToShipsOnlyShardRows) {
  // The heterogeneous coal pass's upload: a per-launch transient is
  // map_alloc'd unseeded (fully host-dirty), so the row-batched
  // update_to moves exactly the device shard's rows — never the
  // predicate-false remainder — priced as one transfer.
  gpu::Device dev(gpu::DeviceSpec::test_device());
  DataRegion region(dev);
  const FieldId f = region.add_field("ff_shard", 1 << 20);
  const std::uint64_t h2d0 = dev.transfers().h2d_count;
  std::vector<ByteRange> rows{{0, 4096}, {8192, 4096}};
  // Auto-maps the non-resident field (alloc only, then just the rows).
  EXPECT_EQ(region.update_to_ranges(f, rows), 8192u);
  EXPECT_TRUE(region.resident(f));
  EXPECT_EQ(dev.transfers().h2d_bytes, 8192u);
  EXPECT_EQ(dev.transfers().h2d_count - h2d0, 1u);
  // The remainder stays host-dirty for whoever needs it later.
  EXPECT_EQ(region.host_dirty_bytes(f), (1u << 20) - 8192u);
  // Re-shipping clean rows moves nothing.
  EXPECT_EQ(region.update_to_ranges(f, rows), 0u);
  // Single-range form, dirty remainder only.
  EXPECT_EQ(region.update_to_range(f, 4096, 8192), 4096u);
}

TEST(DataRegion, OutOfMemoryWhenDomainDoesNotFit) {
  gpu::Device dev(gpu::DeviceSpec::test_device());  // 1 GiB
  DataRegion region(dev);
  const FieldId a = region.add_field("ff_a", 700ull << 20);
  const FieldId b = region.add_field("ff_b", 700ull << 20);
  region.map_alloc(a);
  EXPECT_THROW(region.map_alloc(b), gpu::DeviceError);
  // The failed map leaves the field unmapped and the capacity intact.
  EXPECT_FALSE(region.resident(b));
  EXPECT_EQ(dev.allocated_bytes(), 700ull << 20);
}

TEST(DataRegion, DestructorReleasesResidency) {
  gpu::Device dev(gpu::DeviceSpec::test_device());
  {
    DataRegion region(dev);
    region.map_alloc(region.add_field("scoped", 1 << 20));
    EXPECT_EQ(dev.allocated_bytes(), 1u << 20);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

// ------------------------------------------- FastSbm persist residency

TEST(FastSbmResidency, PersistPinsDomainThroughCapacityCheck) {
  // A patch whose field set does not fit the (shrunk) test device must
  // fail at construction with the paper-style OOM, not at first launch.
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.version = fsbm::Version::kV2Offload2;
  cfg.res = ResidencyMode::kPersist;
  cfg.device_spec = gpu::DeviceSpec::test_device();
  cfg.device_spec.dram_bytes = 1 << 20;  // 1 MB: bins cannot fit
  const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
  try {
    model::RankModel rank(cfg, patches[0], nullptr);
    FAIL() << "expected gpu::DeviceError";
  } catch (const gpu::DeviceError& e) {
    EXPECT_EQ(e.code(), gpu::DeviceError::kOutOfMemory);
  }
  // The same domain fits under res=step (per-launch transient maps).
  cfg.device_spec.dram_bytes = 1ull << 30;
  cfg.res = ResidencyMode::kStep;
  EXPECT_NO_THROW(model::RankModel(cfg, patches[0], nullptr));
}

TEST(FastSbmResidency, PersistStopsSteadyStateRetransfer) {
  // Single rank, exec=device: after the first step pays the initial
  // upload, a device-resident step moves (nearly) nothing, while
  // res=step re-maps every field every step.
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 1;
  cfg.version = fsbm::Version::kV3Offload3;
  cfg.exec.kind = exec::ExecKind::kDevice;

  auto bytes_per_mode = [&](ResidencyMode m, int steps) {
    model::RunConfig c = cfg;
    c.res = m;
    c.nsteps = steps;
    const auto patches = grid::decompose(c.domain(), 1, 1, c.halo);
    model::RankModel rank(c, patches[0], nullptr);
    rank.init();
    model::StepStats total;
    for (int s = 0; s < steps; ++s) total.merge(rank.step());
    // Single rank, no snapshot: every byte the device records was moved
    // by a charged pass bracket or transport mark — the stats totals
    // must reconcile with the device-level TransferStats exactly.
    const gpu::TransferStats& tr = rank.device()->transfers();
    EXPECT_EQ(total.fsbm.h2d_bytes, tr.h2d_bytes);
    EXPECT_EQ(total.fsbm.d2h_bytes, tr.d2h_bytes);
    EXPECT_EQ(total.fsbm.h2d_transfers, tr.h2d_count);
    EXPECT_EQ(total.fsbm.d2h_transfers, tr.d2h_count);
    return total.fsbm.h2d_bytes + total.fsbm.d2h_bytes;
  };
  // Steady state = traffic added by the second and third steps.
  const std::uint64_t step_extra =
      bytes_per_mode(ResidencyMode::kStep, 3) -
      bytes_per_mode(ResidencyMode::kStep, 1);
  const std::uint64_t persist_extra =
      bytes_per_mode(ResidencyMode::kPersist, 3) -
      bytes_per_mode(ResidencyMode::kPersist, 1);
  EXPECT_GT(step_extra, 0u);
  // >= 5x reduction is the acceptance bar; single-rank device-resident
  // stepping should in fact move ~nothing between launches.
  EXPECT_GE(step_extra, 5u * std::max<std::uint64_t>(persist_extra, 1));
}

TEST(FastSbmResidency, PersistCondOffloadAccountsAllTransfers) {
  // The §VIII condensation-offload path is only reachable by setting
  // FsbmParams::offload_condensation directly; drive it under both res
  // modes and assert (a) bitwise-identical state, (b) every byte the
  // device records is charged into FsbmStats (no pass moves data
  // outside its charge bracket), (c) persist's second step re-ships
  // less than step mode's.
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  const grid::Patch patch = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];

  struct Run {
    std::vector<float> state;
    fsbm::FsbmStats stats;
    gpu::TransferStats dev;
  };
  auto run = [&](ResidencyMode res) {
    fsbm::MicroState state(patch, cfg.nkr);
    model::init_case_conus(cfg, state);
    gpu::Device dev(gpu::DeviceSpec::test_device());
    fsbm::FsbmParams params;
    params.offload_condensation = true;
    params.residency = res;
    fsbm::FastSbm scheme(patch, cfg.nkr, fsbm::Version::kV3Offload3, params,
                         &dev);
    Run r;
    for (int s = 0; s < 2; ++s) r.stats.merge(scheme.step(state));
    for (const auto& f : state.ff) {
      r.state.insert(r.state.end(), f.data(), f.data() + f.size());
    }
    r.dev = dev.transfers();
    return r;
  };
  const Run step = run(ResidencyMode::kStep);
  const Run persist = run(ResidencyMode::kPersist);
  EXPECT_EQ(step.state, persist.state);  // bitwise-identical bins
  for (const Run* r : {&step, &persist}) {
    EXPECT_EQ(r->stats.h2d_bytes, r->dev.h2d_bytes);
    EXPECT_EQ(r->stats.d2h_bytes, r->dev.d2h_bytes);
    EXPECT_EQ(r->stats.h2d_transfers, r->dev.h2d_count);
    EXPECT_EQ(r->stats.d2h_transfers, r->dev.d2h_count);
  }
  EXPECT_LT(persist.stats.h2d_bytes, step.stats.h2d_bytes);
  // d2h: persist flushes the coal kernel's writes at bin-slice
  // granularity; with this init every cell is coal-active, so the
  // slices legitimately cover the whole field — equal, never more.
  EXPECT_LE(persist.stats.d2h_bytes, step.stats.d2h_bytes);
}

}  // namespace
}  // namespace wrf
