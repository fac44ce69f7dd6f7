// The phys= knob's contracts (fsbm/hybrid.hpp): phys=hybrid with an
// all-bin fidelity override must reproduce phys=bin bit for bit — state
// snapshots, physics statistics, launch and transfer accounting —
// across exec spaces, residency modes, and versions;
// phys=bulk demotes the whole domain through the same machinery; the
// adaptive rule splits a storm case into two live populations; and the
// hysteresis (threshold band + demotion patience) keeps cells from
// flapping between fidelities.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "fsbm/fast_sbm.hpp"
#include "model/case_conus.hpp"
#include "model/driver.hpp"
#include "util/constants.hpp"

namespace wrf::fsbm {
namespace {

model::RunConfig hybrid_case(PhysScheme phys) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.phys = phys;
  return cfg;
}

model::RunResult run(const model::RunConfig& cfg) {
  return model::run_single(cfg);
}

/// Bitwise equality of physics stats, hybrid accounting, launch and
/// transfer accounting, and every snapshot variable.  Stricter than the
/// fuse= contract: the all-bin override must not change anything at
/// all, transfers included.  `extra_launches` is the one accounted
/// difference: under exec=device the fidelity sweep is itself a device
/// kernel (one launch per step); everywhere else it must add nothing.
void expect_bitwise_equal(const model::RunResult& a,
                          const model::RunResult& b, const char* label,
                          std::uint64_t extra_launches = 0) {
  SCOPED_TRACE(label);
  const FsbmStats& fa = a.totals.fsbm;
  const FsbmStats& fb = b.totals.fsbm;
  EXPECT_EQ(fa.cells_active, fb.cells_active);
  EXPECT_EQ(fa.cells_coal, fb.cells_coal);
  EXPECT_EQ(fa.coal_interactions, fb.coal_interactions);
  EXPECT_EQ(fa.coal_flops, fb.coal_flops);
  EXPECT_EQ(fa.cond_flops, fb.cond_flops);
  EXPECT_EQ(fa.nucl_flops, fb.nucl_flops);
  EXPECT_EQ(fa.sed_flops, fb.sed_flops);
  EXPECT_EQ(fa.sed_substeps, fb.sed_substeps);
  EXPECT_EQ(fa.surface_precip, fb.surface_precip);
  EXPECT_EQ(fa.kernel_launches + extra_launches, fb.kernel_launches);
  EXPECT_EQ(fa.h2d_bytes, fb.h2d_bytes);
  EXPECT_EQ(fa.d2h_bytes, fb.d2h_bytes);
  // The override runs no bulk cell anywhere.
  EXPECT_EQ(fb.cells_bulk, 0u);
  EXPECT_EQ(fb.promotions, 0u);
  EXPECT_EQ(fb.demotions, 0u);
  EXPECT_EQ(fb.bulk_flops, 0.0);
  EXPECT_EQ(fb.bulk_precip, 0.0);
  EXPECT_EQ(model::state_hash(a), model::state_hash(b));
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

TEST(Hybrid, KnobParsing) {
  EXPECT_EQ(parse_phys("bin"), PhysScheme::kBin);
  EXPECT_EQ(parse_phys("bulk"), PhysScheme::kBulk);
  EXPECT_EQ(parse_phys("hybrid"), PhysScheme::kHybrid);
  EXPECT_THROW(parse_phys("kessler"), ConfigError);
  EXPECT_THROW(parse_phys(""), ConfigError);
  EXPECT_STREQ(phys_name(PhysScheme::kBin), "bin");
  EXPECT_STREQ(phys_name(PhysScheme::kBulk), "bulk");
  EXPECT_STREQ(phys_name(PhysScheme::kHybrid), "hybrid");

  char prog[] = "prog";
  char arg[] = "phys=hybrid";
  char* argv[] = {prog, arg};
  EXPECT_EQ(phys_from_args(2, argv), PhysScheme::kHybrid);
  EXPECT_EQ(phys_from_args(1, argv), PhysScheme::kBin);  // default
}

TEST(Hybrid, DescribeShowsTheKnob) {
  const model::RunConfig cfg = hybrid_case(PhysScheme::kHybrid);
  EXPECT_NE(cfg.describe().find("phys=hybrid"), std::string::npos)
      << cfg.describe();
}

TEST(Hybrid, AllBinOverrideBitwiseMatchesBinAcrossTheMatrix) {
  // The hard regression gate: phys=hybrid with the fidelity field
  // forced all-bin is phys=bin, bit for bit — same state hash, same
  // physics stats, same launch and transfer accounting — in every
  // version x exec x residency cell.  The hybrid pass routes both
  // populations through split_plan/run_tile_list over the same tile
  // plan the bin pass uses; this test is what keeps that dispatch
  // honest.
  exec::ExecConfig serial;
  exec::ExecConfig thr2;
  thr2.kind = exec::ExecKind::kThreads;
  thr2.nthreads = 2;
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  exec::ExecConfig het2;
  het2.kind = exec::ExecKind::kHetero;
  het2.nthreads = 2;
  for (const Version v :
       {Version::kV1LookupOnDemand, Version::kV3Offload3}) {
    for (const exec::ExecConfig& e : {serial, thr2, dev, het2}) {
      for (const mem::ResidencyMode res :
           {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
        model::RunConfig bin = hybrid_case(PhysScheme::kBin);
        bin.version = v;
        bin.exec = e;
        bin.res = res;
        bin.fsbm_params.offload_condensation =
            v == Version::kV3Offload3;  // exercise the offloaded lane too
        model::RunConfig hyb = bin;
        hyb.phys = PhysScheme::kHybrid;
        hyb.fsbm_params.hybrid.override_mode =
            HybridConfig::Override::kAllBin;
        const std::string label = std::string(version_name(v)) + "/exec=" +
                                  e.describe() + "/res=" +
                                  mem::residency_name(res);
        const std::uint64_t extra =
            e.kind == exec::ExecKind::kDevice
                ? static_cast<std::uint64_t>(bin.nsteps)
                : 0u;
        expect_bitwise_equal(run(bin), run(hyb), label.c_str(), extra);
      }
    }
  }
}

TEST(Hybrid, BulkDemotesTheWholeDomain) {
  const model::RunConfig cfg = hybrid_case(PhysScheme::kBulk);
  const model::RunResult r = run(cfg);
  const FsbmStats& st = r.totals.fsbm;
  const std::uint64_t ncells =
      static_cast<std::uint64_t>(cfg.nx) * cfg.ny * cfg.nz;
  // Every cell runs the Kessler lane every step; the bin counters stay
  // silent.
  EXPECT_EQ(st.cells_bulk, ncells * static_cast<std::uint64_t>(cfg.nsteps));
  EXPECT_EQ(st.cells_bin, 0u);
  EXPECT_EQ(st.demotions, ncells);  // the step-1 cold start, once
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_EQ(st.cells_active, 0u);
  EXPECT_EQ(st.cells_coal, 0u);
  EXPECT_EQ(st.cond_flops, 0.0);
  EXPECT_GT(st.bulk_flops, 0.0);
  // Liquid precip comes from the Kessler column solver and is included
  // in the unified surface_precip total (ice species still sediment
  // through the bin path and may add to it).
  EXPECT_GE(st.surface_precip, st.bulk_precip);
}

TEST(Hybrid, AdaptiveSplitsTheStormCaseIntoTwoPopulations) {
  // The CONUS-style case is a storm patch in mostly calm air: the
  // adaptive rule must keep the storm at bin fidelity and demote the
  // rest, with the census accounting for every cell every step.
  model::RunConfig cfg = hybrid_case(PhysScheme::kHybrid);
  cfg.nsteps = 3;
  const model::RunResult r = run(cfg);
  const FsbmStats& st = r.totals.fsbm;
  const std::uint64_t ncells =
      static_cast<std::uint64_t>(cfg.nx) * cfg.ny * cfg.nz;
  EXPECT_GT(st.cells_bin, 0u);
  EXPECT_GT(st.cells_bulk, 0u);
  EXPECT_EQ(st.cells_bin + st.cells_bulk,
            ncells * static_cast<std::uint64_t>(cfg.nsteps));
  // Both schemes actually ran.
  EXPECT_GT(st.cells_active, 0u);
  EXPECT_GT(st.bulk_flops, 0.0);
  // The bulk majority means far fewer bin-active cells than phys=bin.
  const model::RunResult full = run(hybrid_case(PhysScheme::kBin));
  EXPECT_LT(st.cells_active, full.totals.fsbm.cells_active);
}

TEST(Hybrid, HeteroRunsTheTwoPopulationsOnConcurrentShards) {
  // exec=hetero: bulk cells never raise the coal predicate, so the
  // device shard of the split collision pass is exactly the bin
  // population's active tiles — the hybrid rides the existing
  // heterogeneous dispatch unchanged.
  model::RunConfig cfg = hybrid_case(PhysScheme::kHybrid);
  cfg.version = Version::kV3Offload3;
  cfg.exec.kind = exec::ExecKind::kHetero;
  cfg.exec.nthreads = 2;
  const model::RunResult r = run(cfg);
  const FsbmStats& st = r.totals.fsbm;
  EXPECT_GT(st.cells_bin, 0u);
  EXPECT_GT(st.cells_bulk, 0u);
  EXPECT_GT(st.kernel_launches, 0u);
}

/// Drive the scheme directly with a hand-built state so the hysteresis
/// transitions happen on exactly the step we expect.
struct HysteresisRig {
  model::RunConfig cfg;
  grid::Patch patch;
  MicroState state;
  FastSbm scheme;

  static FsbmParams hybrid_params() {
    FsbmParams p;
    p.phys = PhysScheme::kHybrid;
    return p;
  }

  HysteresisRig()
      : cfg(hybrid_case(PhysScheme::kHybrid)),
        patch(grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0]),
        state(patch, cfg.nkr),
        scheme(patch, cfg.nkr, Version::kV1LookupOnDemand, hybrid_params()) {
    model::init_case_conus(cfg, state);
  }

  std::uint64_t ncells() const {
    return static_cast<std::uint64_t>(patch.ip.size()) * patch.k.size() *
           patch.jp.size();
  }

  /// Reset every computational cell: warm (well above t_coal), dry
  /// enough that nucleation stays off, all liquid mass on the cloud
  /// carrier.  Re-applied before each step so the scheme's own physics
  /// can't drift the fidelity inputs between assertions.
  void set_uniform(float liquid_mass) {
    const HybridConfig& hc = FsbmParams{}.hybrid;
    for (int j = patch.jp.lo; j <= patch.jp.hi; ++j) {
      for (int k = patch.k.lo; k <= patch.k.hi; ++k) {
        for (int i = patch.ip.lo; i <= patch.ip.hi; ++i) {
          state.temp(i, k, j) = 280.0f;
          state.qv(i, k, j) = static_cast<float>(
              0.5 * constants::qsat_liquid(280.0, state.pres(i, k, j)));
          float* liq = state.ff[0].slice(i, k, j);
          for (int n = 0; n < state.bins.nkr(); ++n) liq[n] = 0.0f;
          liq[hc.cloud_carrier_bin] = liquid_mass;
        }
      }
    }
  }

  FsbmStats step(float liquid_mass) {
    set_uniform(liquid_mass);
    return scheme.step(state);
  }
};

TEST(Hybrid, HysteresisBandAndPatiencePreventFlapping) {
  HysteresisRig rig;
  const std::uint64_t n = rig.ncells();
  const HybridConfig hc;  // defaults: promote 1e-6, demote 1e-8, patience 3
  const float wet = 1e-4f;                 // far above the promote threshold
  const float mid = 1e-7f;                 // inside the hysteresis band
  const float dry = 0.0f;                  // below the demote threshold

  // Cold start on a wet domain: everything starts (and stays) bin.
  FsbmStats st = rig.step(wet);
  EXPECT_EQ(st.cells_bin, n);
  EXPECT_EQ(st.demotions, 0u);

  // Mass drops into the band: below promote is NOT a demotion trigger —
  // the band is the hysteresis, so every cell stays bin.
  st = rig.step(mid);
  EXPECT_EQ(st.cells_bin, n);
  EXPECT_EQ(st.demotions, 0u);

  // Mass drops below the demote threshold: the patience counter must
  // run out before anything demotes.
  for (int s = 1; s < hc.demote_patience; ++s) {
    st = rig.step(dry);
    EXPECT_EQ(st.cells_bin, n) << "calm step " << s;
    EXPECT_EQ(st.demotions, 0u) << "calm step " << s;
  }
  st = rig.step(dry);  // patience exhausted
  EXPECT_EQ(st.demotions, n);
  EXPECT_EQ(st.cells_bulk, n);

  // Back into the band from below: bulk cells do NOT promote inside the
  // band — no flapping on the way up either.
  st = rig.step(mid);
  EXPECT_EQ(st.cells_bulk, n);
  EXPECT_EQ(st.promotions, 0u);

  // Above the promote threshold: everything promotes, in one step.
  st = rig.step(wet);
  EXPECT_EQ(st.promotions, n);
  EXPECT_EQ(st.cells_bin, n);
}

TEST(Hybrid, ColdStartDemotesCalmCellsImmediately) {
  // A fresh run must not spend demote_patience steps running every calm
  // cell at bin fidelity: the cold-start sweep applies the rule with no
  // patience.
  HysteresisRig rig;
  const FsbmStats st = rig.step(0.0f);
  EXPECT_EQ(st.cells_bulk, rig.ncells());
  EXPECT_EQ(st.demotions, rig.ncells());
}

TEST(Hybrid, CtorValidatesTheHybridConfig) {
  const model::RunConfig cfg = hybrid_case(PhysScheme::kHybrid);
  const grid::Patch patch = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  auto make = [&](auto mutate) {
    FsbmParams p;
    p.phys = PhysScheme::kHybrid;
    mutate(p.hybrid);
    FastSbm scheme(patch, cfg.nkr, Version::kV1LookupOnDemand, p);
  };
  EXPECT_THROW(make([](HybridConfig& h) { h.rain_bin_cut = 0; }),
               ConfigError);
  EXPECT_THROW(make([](HybridConfig& h) { h.rain_bin_cut = 33; }),
               ConfigError);
  EXPECT_THROW(make([](HybridConfig& h) { h.cloud_carrier_bin = 16; }),
               ConfigError);  // must sit below the cut
  EXPECT_THROW(make([](HybridConfig& h) { h.rain_carrier_bin = 8; }),
               ConfigError);  // must sit at or above the cut
  EXPECT_THROW(make([](HybridConfig& h) { h.rain_carrier_bin = 33; }),
               ConfigError);
  EXPECT_THROW(
      make([](HybridConfig& h) { h.demote_threshold = h.promote_threshold; }),
      ConfigError);
  EXPECT_THROW(make([](HybridConfig& h) { h.demote_threshold = 0.0; }),
               ConfigError);
  EXPECT_THROW(make([](HybridConfig& h) { h.demote_patience = 0; }),
               ConfigError);
  EXPECT_THROW(make([](HybridConfig& h) { h.demote_patience = 256; }),
               ConfigError);
  // phys=bin never validates (the knob is inert): the same bad config
  // is accepted because nothing reads it.
  FsbmParams ok;
  ok.hybrid.rain_bin_cut = 0;
  EXPECT_NO_THROW(
      FastSbm(patch, cfg.nkr, Version::kV1LookupOnDemand, ok));
}

}  // namespace
}  // namespace wrf::fsbm
