// The fuse= knob's determinism contract (exec/passgraph.hpp): fuse=auto
// must reproduce fuse=off bit for bit — state snapshots and physics
// statistics — across every FSBM version, residency mode, and exec
// space, while strictly reducing kernel launches where the fused pair
// fires.  Plus the schedule's recorded decisions: every non-fusion has
// a reason, and the dependence reasons come from the analyzer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "exec/passgraph.hpp"
#include "grid/decomp.hpp"
#include "model/driver.hpp"
#include "model/knobs.hpp"

namespace wrf {
namespace {

model::RunConfig fusion_case(fsbm::Version v, exec::FuseMode fuse,
                             mem::ResidencyMode res,
                             const exec::ExecConfig& e) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.version = v;
  cfg.fsbm_params.offload_condensation = true;  // makes cond a candidate
  cfg.fuse = fuse;
  cfg.res = res;
  cfg.exec = e;
  cfg.validate();
  return cfg;
}

model::RunResult run(const model::RunConfig& cfg) {
  return model::run_single(cfg);
}

/// Bitwise physics + state equality (launch accounting excluded: that
/// is exactly what fuse=auto is supposed to change).
void expect_same_physics(const model::RunResult& a,
                         const model::RunResult& b, const char* label) {
  SCOPED_TRACE(label);
  const fsbm::FsbmStats& fa = a.totals.fsbm;
  const fsbm::FsbmStats& fb = b.totals.fsbm;
  EXPECT_EQ(fa.cells_active, fb.cells_active);
  EXPECT_EQ(fa.cells_coal, fb.cells_coal);
  EXPECT_EQ(fa.kernel_table_fills, fb.kernel_table_fills);
  EXPECT_EQ(fa.kernel_entries, fb.kernel_entries);
  EXPECT_EQ(fa.coal_interactions, fb.coal_interactions);
  EXPECT_EQ(fa.coal_flops, fb.coal_flops);
  EXPECT_EQ(fa.cond_flops, fb.cond_flops);
  EXPECT_EQ(fa.nucl_flops, fb.nucl_flops);
  EXPECT_EQ(fa.sed_flops, fb.sed_flops);
  EXPECT_EQ(fa.sed_substeps, fb.sed_substeps);
  EXPECT_EQ(fa.surface_precip, fb.surface_precip);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& va = a.snapshots[s].variables();
    const auto& vb = b.snapshots[s].variables();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t v = 0; v < va.size(); ++v) {
      EXPECT_EQ(va[v].name, vb[v].name);
      ASSERT_EQ(va[v].data.size(), vb[v].data.size()) << va[v].name;
      EXPECT_EQ(std::memcmp(va[v].data.data(), vb[v].data.data(),
                            va[v].data.size() * sizeof(float)),
                0)
          << va[v].name;
    }
  }
}

TEST(Fusion, AutoBitwiseMatchesOffAcrossTheMatrix) {
  // Every version x residency x exec cell: fuse=auto == fuse=off bit
  // for bit, whether or not the fused pair actually fires in that cell
  // (host versions, v2's collapse(2) coal, and hetero's split pass all
  // decline fusion — the contract still holds trivially).
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  exec::ExecConfig het2;
  het2.kind = exec::ExecKind::kHetero;
  het2.nthreads = 2;
  for (const fsbm::Version v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      for (const exec::ExecConfig& e : {dev, het2}) {
        const std::string label =
            std::string(fsbm::version_name(v)) + "/res=" +
            model::knob_name("res", res) + "/exec=" + e.describe();
        const auto off = run(
            fusion_case(v, exec::FuseMode::kOff, res, e));
        const auto fused = run(
            fusion_case(v, exec::FuseMode::kAuto, res, e));
        expect_same_physics(off, fused, label.c_str());
      }
    }
  }
}

TEST(Fusion, FusedRunSavesOneLaunchPerStep) {
  // v3 + offloaded condensation on the device: cond+coal collapse into
  // one launch, so fuse=auto issues exactly nsteps fewer launches and
  // proportionally less modeled launch latency.
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  const auto cfg_off = fusion_case(fsbm::Version::kV3Offload3,
                                   exec::FuseMode::kOff,
                                   mem::ResidencyMode::kStep, dev);
  const auto off = run(cfg_off);
  const auto fused = run(fusion_case(fsbm::Version::kV3Offload3,
                                     exec::FuseMode::kAuto,
                                     mem::ResidencyMode::kStep, dev));
  EXPECT_EQ(off.kernel_launches() - fused.kernel_launches(),
            static_cast<std::uint64_t>(cfg_off.nsteps));
  EXPECT_GT(off.kernel_launches(), 0u);
  EXPECT_LT(fused.launch_latency_ms(), off.launch_latency_ms());
}

/// Build a rank (no stepping needed — the schedule is fixed at
/// construction) and return its scheme for decision inspection.
struct BuiltRank {
  std::vector<grid::Patch> patches;
  std::unique_ptr<model::RankModel> rank;
  explicit BuiltRank(const model::RunConfig& cfg)
      : patches(grid::decompose(cfg.domain(), 1, 1, cfg.halo)) {
    rank = std::make_unique<model::RankModel>(cfg, patches[0], nullptr);
  }
  const exec::Schedule& schedule() const {
    return rank->scheme().schedule();
  }
  std::string reason(std::size_t a, std::size_t b) const {
    const exec::FusionDecision* d = schedule().decision(a, b);
    return d != nullptr ? d->reason : "(no decision)";
  }
};

TEST(Fusion, ScheduleRecordsAnalyzerBackedDecisions) {
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;

  // v3/device, fuse=auto: cond+coal fused (node ids 0,1), and the
  // coal->sed pair rejected by the analyzer's loop-carried diagnosis —
  // the reason must cite the dependence, not a blocklist.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep, dev));
    const auto& sched = r.schedule();
    ASSERT_GE(sched.groups.size(), 2u);
    EXPECT_EQ(sched.groups[0],
              (std::vector<std::size_t>{0, 1}));  // cond+coal fused
    ASSERT_NE(sched.decision(0, 1), nullptr);
    EXPECT_TRUE(sched.decision(0, 1)->fused);
    EXPECT_NE(r.reason(1, 2).find("neighboring"), std::string::npos)
        << r.reason(1, 2);
  }

  // v2's coal launch is collapse(2): structurally incompatible with the
  // collapse(3) cond launch even though the dependence is legal.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV2Offload2,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep, dev));
    ASSERT_NE(r.schedule().decision(0, 1), nullptr);
    EXPECT_FALSE(r.schedule().decision(0, 1)->fused);
    EXPECT_NE(r.reason(0, 1).find("collapse"), std::string::npos)
        << r.reason(0, 1);
  }

  // hetero: the coal pass is predicate-split across shards — never a
  // fusion candidate.
  {
    exec::ExecConfig het2;
    het2.kind = exec::ExecKind::kHetero;
    het2.nthreads = 2;
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep, het2));
    ASSERT_NE(r.schedule().decision(0, 1), nullptr);
    EXPECT_FALSE(r.schedule().decision(0, 1)->fused);
    EXPECT_NE(r.reason(0, 1).find("split"), std::string::npos)
        << r.reason(0, 1);
  }

  // exec=serial keeps sedimentation on the host: a host-shard pass.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep,
                                  exec::ExecConfig{}));
    EXPECT_NE(r.reason(1, 2).find("host"), std::string::npos)
        << r.reason(1, 2);
  }

  // fuse=off records itself as the reason on every pair.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kOff,
                                  mem::ResidencyMode::kStep, dev));
    for (const exec::FusionDecision& d : r.schedule().decisions) {
      EXPECT_FALSE(d.fused);
      EXPECT_EQ(d.reason, "fuse=off");
    }
  }
}

// ------------------------------------------------ transfer/launch ledger

/// What one run moved and launched: the FsbmStats transfer ledger (the
/// final snapshot's pre-output flush included, as in run_single), the
/// launch count, a digest of every launch's KernelStats name,
/// iterations, fused_passes, flops and occupancy, and the final-state
/// hash.  Modeled milliseconds and cache hit rates are left out: the
/// cache model replays real heap addresses, so they drift run to run.
struct Ledger {
  std::uint64_t h2d_bytes, d2h_bytes, h2d_transfers, d2h_transfers;
  std::uint64_t launches, launch_digest, state_hash;

  bool operator==(const Ledger& o) const {
    return h2d_bytes == o.h2d_bytes && d2h_bytes == o.d2h_bytes &&
           h2d_transfers == o.h2d_transfers &&
           d2h_transfers == o.d2h_transfers && launches == o.launches &&
           launch_digest == o.launch_digest && state_hash == o.state_hash;
  }
};

std::string launch_line(const gpu::KernelStats& k) {
  const gpu::Occupancy& o = k.occupancy;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s it=%lld fused=%d flops=%a occ=%d/%a/%a/%a/%a/%s",
                k.name.c_str(), static_cast<long long>(k.iterations),
                k.fused_passes, k.flops, o.blocks_per_sm_resource,
                o.blocks_per_sm_achieved, o.resident_warps_per_sm,
                o.theoretical, o.achieved, o.limiter);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Runs `cfg` on one rank the way run_single does, keeping the rank's
/// device so its launch list can be read; `lines` receives one
/// launch_line per launch (printed when a row mismatches).
Ledger run_ledger(const model::RunConfig& cfg, std::string* lines) {
  const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
  model::RankModel rank(cfg, patches[0], nullptr);
  rank.init();
  model::RunResult r;
  for (int s = 0; s < cfg.nsteps; ++s) r.totals.merge(rank.step());
  const gpu::TransferStats t0 = rank.device()->transfers();
  r.snapshots.push_back(rank.snapshot());
  r.totals.fsbm.charge_transfer_delta(t0, rank.device()->transfers());
  lines->clear();
  for (const gpu::KernelStats& k : rank.device()->launches()) {
    *lines += launch_line(k) + "\n";
  }
  const fsbm::FsbmStats& f = r.totals.fsbm;
  return {f.h2d_bytes,       f.d2h_bytes,       f.h2d_transfers,
          f.d2h_transfers,   f.kernel_launches, fnv1a(*lines),
          model::state_hash(r)};
}

struct LedgerRow {
  const char* label;
  Ledger expect;
};

// Pinned literals, one row per cell of the matrix below: every value
// is deterministic, so any drift in bytes, transfer counts, launches or
// state is a behaviour change, not noise.
const LedgerRow kLedger[] = {
    {"v2-offload-collapse2/res=step/exec=serial/fuse=off/cond=host",
     {5911488u, 5854464u, 20u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=serial/fuse=off/cond=device",
     {11848320u, 11765952u, 42u, 34u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=serial/fuse=auto/cond=host",
     {5911488u, 5854464u, 20u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=serial/fuse=auto/cond=device",
     {11848320u, 11765952u, 42u, 34u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=device/fuse=off/cond=host",
     {5911488u, 5854464u, 20u, 14u, 6u, 0x4aa8677d3ae5c6d7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=device/fuse=off/cond=device",
     {11848320u, 11765952u, 42u, 34u, 6u, 0x33bd81d2af501fe7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=device/fuse=auto/cond=host",
     {5911488u, 5854464u, 20u, 14u, 6u, 0x4aa8677d3ae5c6d7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=device/fuse=auto/cond=device",
     {11848320u, 11765952u, 42u, 34u, 6u, 0x33bd81d2af501fe7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=hetero:2/fuse=off/cond=host",
     {2866176u, 2838528u, 20u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=hetero:2/fuse=off/cond=device",
     {8803008u, 8750016u, 42u, 34u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=hetero:2/fuse=auto/cond=host",
     {2866176u, 2838528u, 20u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=step/exec=hetero:2/fuse=auto/cond=device",
     {8803008u, 8750016u, 42u, 34u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=serial/fuse=off/cond=host",
     {5898816u, 2838528u, 19u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=serial/fuse=off/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=serial/fuse=auto/cond=host",
     {5898816u, 2838528u, 19u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=serial/fuse=auto/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=device/fuse=off/cond=host",
     {2968416u, 2955744u, 11u, 10u, 6u, 0x4aa8677d3ae5c6d7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=device/fuse=off/cond=device",
     {2968416u, 2955744u, 11u, 10u, 6u, 0x33bd81d2af501fe7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=device/fuse=auto/cond=host",
     {2968416u, 2955744u, 11u, 10u, 6u, 0x4aa8677d3ae5c6d7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=device/fuse=auto/cond=device",
     {2968416u, 2955744u, 11u, 10u, 6u, 0x33bd81d2af501fe7ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=hetero:2/fuse=off/cond=host",
     {2860032u, 2838528u, 19u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=hetero:2/fuse=off/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=hetero:2/fuse=auto/cond=host",
     {2860032u, 2838528u, 19u, 14u, 2u, 0x664646e39050e263ull, 0xcb681b805842d6ffull}},
    {"v2-offload-collapse2/res=persist/exec=hetero:2/fuse=auto/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0xc8a5a770d4f7c5dbull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=serial/fuse=off/cond=host",
     {5911488u, 5854464u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=serial/fuse=off/cond=device",
     {11848320u, 11765952u, 42u, 34u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=serial/fuse=auto/cond=host",
     {5911488u, 5854464u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=serial/fuse=auto/cond=device",
     {5936832u, 5911488u, 22u, 20u, 2u, 0x34e83d77200bfdbfull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=device/fuse=off/cond=host",
     {5911488u, 5854464u, 20u, 14u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=device/fuse=off/cond=device",
     {11848320u, 11765952u, 42u, 34u, 6u, 0xd443a32a33e663cdull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=device/fuse=auto/cond=host",
     {5911488u, 5854464u, 20u, 14u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=device/fuse=auto/cond=device",
     {5936832u, 5911488u, 22u, 20u, 4u, 0x7c2ae470a9a03c8full, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=hetero:2/fuse=off/cond=host",
     {2866176u, 2838528u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=hetero:2/fuse=off/cond=device",
     {8803008u, 8750016u, 42u, 34u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=hetero:2/fuse=auto/cond=host",
     {2866176u, 2838528u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=step/exec=hetero:2/fuse=auto/cond=device",
     {8803008u, 8750016u, 42u, 34u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=serial/fuse=off/cond=host",
     {5898816u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=serial/fuse=off/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=serial/fuse=auto/cond=host",
     {5898816u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=serial/fuse=auto/cond=device",
     {5908320u, 5895648u, 19u, 18u, 2u, 0x34e83d77200bfdbfull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=device/fuse=off/cond=host",
     {2968416u, 2955744u, 11u, 10u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=device/fuse=off/cond=device",
     {2968416u, 2955744u, 11u, 10u, 6u, 0xd443a32a33e663cdull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=device/fuse=auto/cond=host",
     {2968416u, 2955744u, 11u, 10u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=device/fuse=auto/cond=device",
     {2968416u, 2955744u, 11u, 10u, 4u, 0x7c2ae470a9a03c8full, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=hetero:2/fuse=off/cond=host",
     {2860032u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=hetero:2/fuse=off/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=hetero:2/fuse=auto/cond=host",
     {2860032u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-offload-collapse3/res=persist/exec=hetero:2/fuse=auto/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=serial/fuse=off/cond=host",
     {5911488u, 5854464u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=serial/fuse=off/cond=device",
     {11848320u, 11765952u, 42u, 34u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=serial/fuse=auto/cond=host",
     {5911488u, 5854464u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=serial/fuse=auto/cond=device",
     {5936832u, 5911488u, 22u, 20u, 2u, 0x34e83d77200bfdbfull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=device/fuse=off/cond=host",
     {5911488u, 5854464u, 20u, 14u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=device/fuse=off/cond=device",
     {11848320u, 11765952u, 42u, 34u, 6u, 0xd443a32a33e663cdull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=device/fuse=auto/cond=host",
     {5911488u, 5854464u, 20u, 14u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=device/fuse=auto/cond=device",
     {5936832u, 5911488u, 22u, 20u, 4u, 0x7c2ae470a9a03c8full, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=hetero:2/fuse=off/cond=host",
     {2866176u, 2838528u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=hetero:2/fuse=off/cond=device",
     {8803008u, 8750016u, 42u, 34u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=hetero:2/fuse=auto/cond=host",
     {2866176u, 2838528u, 20u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=step/exec=hetero:2/fuse=auto/cond=device",
     {8803008u, 8750016u, 42u, 34u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=serial/fuse=off/cond=host",
     {5898816u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=serial/fuse=off/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=serial/fuse=auto/cond=host",
     {5898816u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=serial/fuse=auto/cond=device",
     {5908320u, 5895648u, 19u, 18u, 2u, 0x34e83d77200bfdbfull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=device/fuse=off/cond=host",
     {2968416u, 2955744u, 11u, 10u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=device/fuse=off/cond=device",
     {2968416u, 2955744u, 11u, 10u, 6u, 0xd443a32a33e663cdull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=device/fuse=auto/cond=host",
     {2968416u, 2955744u, 11u, 10u, 6u, 0xde9546b952b6fee1ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=device/fuse=auto/cond=device",
     {2968416u, 2955744u, 11u, 10u, 4u, 0x7c2ae470a9a03c8full, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=hetero:2/fuse=off/cond=host",
     {2860032u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=hetero:2/fuse=off/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=hetero:2/fuse=auto/cond=host",
     {2860032u, 2838528u, 19u, 14u, 2u, 0x2676482a6e818773ull, 0xcb681b805842d6ffull}},
    {"v3-naive-collapse3/res=persist/exec=hetero:2/fuse=auto/cond=device",
     {5908320u, 5895648u, 19u, 18u, 4u, 0x4b7fe42db7fd3a95ull, 0xcb681b805842d6ffull}},
    {"phys=hybrid/v3/res=persist/exec=device/cond=device/fuse=off",
     {2968416u, 2955744u, 11u, 10u, 8u, 0xef44c399d07a6537ull, 0x7e7ec7a8572b3b9dull}},
    {"phys=hybrid/v3/res=persist/exec=device/cond=device/fuse=auto",
     {2968416u, 2955744u, 11u, 10u, 6u, 0x99621302a248ab07ull, 0x7e7ec7a8572b3b9dull}},
};

TEST(Fusion, TransferAndLaunchLedgerIsPinned) {
  // version x res x exec x fuse x offload_condensation, plus phys=hybrid
  // on v3/device/persist with cond offloaded (the bulk cond lane).
  exec::ExecConfig serial;
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  exec::ExecConfig het2;
  het2.kind = exec::ExecKind::kHetero;
  het2.nthreads = 2;
  std::vector<std::pair<std::string, model::RunConfig>> cells;
  for (const fsbm::Version v :
       {fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      for (const exec::ExecConfig& e : {serial, dev, het2}) {
        for (const exec::FuseMode fuse :
             {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
          for (const bool cond : {false, true}) {
            model::RunConfig cfg = fusion_case(v, fuse, res, e);
            cfg.fsbm_params.offload_condensation = cond;
            cells.emplace_back(std::string(fsbm::version_name(v)) +
                                   "/res=" + model::knob_name("res", res) +
                                   "/exec=" + e.describe() +
                                   "/fuse=" + model::knob_name("fuse", fuse) +
                                   (cond ? "/cond=device" : "/cond=host"),
                               cfg);
          }
        }
      }
    }
  }
  for (const exec::FuseMode fuse :
       {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
    model::RunConfig cfg = fusion_case(fsbm::Version::kV3Offload3, fuse,
                                       mem::ResidencyMode::kPersist, dev);
    cfg.phys = fsbm::PhysScheme::kHybrid;
    cells.emplace_back(std::string("phys=hybrid/v3/res=persist/exec=device"
                                   "/cond=device/fuse=") +
                           model::knob_name("fuse", fuse),
                       cfg);
  }

  const std::size_t nrows = sizeof(kLedger) / sizeof(kLedger[0]);
  EXPECT_EQ(nrows, cells.size());
  for (std::size_t n = 0; n < cells.size(); ++n) {
    std::string lines;
    const Ledger got = run_ledger(cells[n].second, &lines);
    const bool ok = n < nrows && cells[n].first == kLedger[n].label &&
                    got == kLedger[n].expect;
    EXPECT_TRUE(ok) << "row " << n << " " << cells[n].first
                    << "\n    {\"" << cells[n].first << "\",\n     {"
                    << got.h2d_bytes << "u, " << got.d2h_bytes << "u, "
                    << got.h2d_transfers << "u, " << got.d2h_transfers
                    << "u, " << got.launches << "u, 0x" << std::hex
                    << got.launch_digest << "ull, 0x" << got.state_hash
                    << std::dec << "ull}},\nlaunches:\n"
                    << lines;
  }
}

}  // namespace
}  // namespace wrf
