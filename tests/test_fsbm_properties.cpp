// Property-test harness for the bin microphysics: randomized trials
// asserting the laws every solver refactor must preserve —
//
//   * mass conservation: rho-weighted water mass + surface precip is
//     constant to an ulp-scaled tolerance (float stores round once per
//     cell update, so the bound scales with the substep count);
//   * non-negativity: no bin goes negative under sedimentation (any CFL
//     regime) or collision-coalescence;
//   * zero-velocity fixed point: vel_scale = 0 leaves the state bitwise
//     untouched and produces no precip and no substeps;
//   * single-bin analytic check: constant-velocity upwind transport has
//     the closed-form binomial solution, and the mean fall distance is
//     v * dt;
//   * hoisting equivalence: sediment_column, with its loop invariants
//     hoisted, is bitwise identical to an unhoisted in-test reference
//     (a terminal-velocity lookup per bin, level and substep, the
//     courant number recomputed per substep), vel_scale != 1 and the
//     zero-velocity case included;
//   * seed determinism: the same RunConfig run twice produces identical
//     RunStats and state hashes (guards the per-thread column and
//     scratch buffer reuse).
//
// The harness runs each law over many RNG-driven trials (species, grid
// size, density profile, time step all randomized) so future solver
// changes get shaken against the whole parameter box, not one snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "fsbm/coal_bott.hpp"
#include "fsbm/hybrid.hpp"
#include "fsbm/kernels.hpp"
#include "fsbm/sedimentation.hpp"
#include "model/case_conus.hpp"
#include "model/driver.hpp"
#include "model/knobs.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace wrf::fsbm {
namespace {

constexpr int kNkr = 33;

const BinGrid& bins33() {
  static const BinGrid b(kNkr);
  return b;
}

struct ColumnSample {
  int nz = 0;
  std::vector<float> g;     ///< level-major, bin fastest
  std::vector<double> rho;  ///< per-level density
};

ColumnSample random_column(Rng& rng, int nz) {
  ColumnSample s;
  s.nz = nz;
  s.g.assign(static_cast<std::size_t>(nz) * kNkr, 0.0f);
  s.rho.resize(static_cast<std::size_t>(nz));
  const double rho0 = rng.uniform(0.6, 1.3);
  const double lapse = rng.uniform(0.01, 0.09);
  for (int iz = 0; iz < nz; ++iz) {
    s.rho[static_cast<std::size_t>(iz)] = rho0 * std::exp(-iz * lapse);
    for (int k = 0; k < kNkr; ++k) {
      if (rng.uniform() < 0.35) {
        s.g[static_cast<std::size_t>(iz) * kNkr + k] =
            static_cast<float>(1e-4 * rng.uniform());
      }
    }
  }
  return s;
}

Species random_species(Rng& rng) {
  return static_cast<Species>(rng.bounded(kNumSpecies));
}

SedConfig random_cfg(Rng& rng) {
  SedConfig cfg;
  cfg.dt = rng.uniform(2.0, 120.0);
  cfg.dz = rng.uniform(100.0, 600.0);
  return cfg;
}

/// rho-weighted column mass — the quantity upwind transport conserves.
double column_mass(const ColumnSample& s) {
  double q = 0.0;
  for (int iz = 0; iz < s.nz; ++iz) {
    for (int k = 0; k < kNkr; ++k) {
      q += s.rho[static_cast<std::size_t>(iz)] *
           s.g[static_cast<std::size_t>(iz) * kNkr + k];
    }
  }
  return q;
}

// ------------------------------------------------- mass conservation

TEST(FsbmProperties, SedimentationConservesMassUlpScaled) {
  Rng rng(0xC0115EEDull);
  for (int trial = 0; trial < 40; ++trial) {
    const int nz = 4 + static_cast<int>(rng.bounded(36));
    ColumnSample s = random_column(rng, nz);
    const Species sp = random_species(rng);
    const SedConfig cfg = random_cfg(rng);
    const double before = column_mass(s);
    const SedStats st =
        sediment_column(bins33(), sp, s.g.data(), s.rho.data(), nz, cfg);
    const double after = column_mass(s);
    // Each of the flops/8 float cell-updates rounds once; an ulp-scaled
    // linear accumulation bound covers the worst case.
    const double updates = st.flops / 8.0 + nz;
    const double tol =
        before * static_cast<double>(std::numeric_limits<float>::epsilon()) *
            updates +
        1e-300;
    EXPECT_NEAR(after + st.surface_precip * s.rho[0], before, tol)
        << "trial " << trial << " species " << species_name(sp);
  }
}

// ---------------------------------------------------- non-negativity

TEST(FsbmProperties, SedimentationNeverGoesNegative) {
  Rng rng(0x0DDF00Dull);
  for (int trial = 0; trial < 40; ++trial) {
    const int nz = 4 + static_cast<int>(rng.bounded(28));
    ColumnSample s = random_column(rng, nz);
    const Species sp = random_species(rng);
    SedConfig cfg = random_cfg(rng);
    cfg.dt = rng.uniform(2.0, 600.0);  // include heavy-CFL regimes
    sediment_column(bins33(), sp, s.g.data(), s.rho.data(), nz, cfg);
    for (const float v : s.g) {
      ASSERT_GE(v, 0.0f) << "trial " << trial;
    }
  }
}

TEST(FsbmProperties, CoalescenceNeverGoesNegative) {
  static const KernelTables tables(bins33());
  Rng rng(0xC0A1F00Dull);
  float buf[(4 + kIceMax) * kMaxNkr];
  CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + kNkr;
  w.g3 = buf + kNkr * (1 + kIceMax);
  w.g4 = buf + kNkr * (2 + kIceMax);
  w.g5 = buf + kNkr * (3 + kIceMax);
  const int wsize = (4 + kIceMax) * kNkr;
  for (int trial = 0; trial < 40; ++trial) {
    for (int n = 0; n < wsize; ++n) {
      buf[n] = rng.uniform() < 0.3
                   ? static_cast<float>(1e-4 * rng.uniform())
                   : 0.0f;
    }
    const double temp = rng.uniform(235.0, 300.0);  // warm and mixed-phase
    const double pres = rng.uniform(45000.0, 101000.0);
    CoalConfig cfg;
    cfg.dt = rng.uniform(2.0, 30.0);
    const KernelSource ks(tables, pres);
    coal_bott_new(bins33(), temp, ks, w, cfg);
    for (int n = 0; n < wsize; ++n) {
      ASSERT_GE(buf[n], 0.0f) << "trial " << trial << " entry " << n;
    }
  }
}

// --------------------------------------------- zero-velocity fixed point

TEST(FsbmProperties, ZeroVelocityIsAFixedPoint) {
  Rng rng(0xF1CED0ull);
  for (int trial = 0; trial < 10; ++trial) {
    const int nz = 4 + static_cast<int>(rng.bounded(20));
    ColumnSample s = random_column(rng, nz);
    const std::vector<float> orig = s.g;
    SedConfig cfg = random_cfg(rng);
    cfg.vel_scale = 0.0;
    const SedStats st = sediment_column(bins33(), random_species(rng),
                                        s.g.data(), s.rho.data(), nz, cfg);
    EXPECT_EQ(std::memcmp(s.g.data(), orig.data(),
                          orig.size() * sizeof(float)),
              0);
    EXPECT_EQ(st.surface_precip, 0.0);
    EXPECT_EQ(st.substeps, 0u);
  }
}

// -------------------------------------------- single-bin analytic check

TEST(FsbmProperties, SingleBinMatchesAnalyticUpwindSolution) {
  // Uniform density => constant fall speed v.  First-order upwind with
  // courant c for n substeps spreads a delta at level L into the
  // binomial  g[L-m] = g0 * C(n, m) c^m (1-c)^(n-m),  m = 0..n, and the
  // mean fall distance is n*c*dz = v*dt exactly.
  const int nz = 40;
  const int src = 30;
  const int bin = 24;  // mid-size raindrop
  const Species sp = Species::kLiquid;
  std::vector<double> rho(static_cast<std::size_t>(nz), 1.0);
  std::vector<float> g(static_cast<std::size_t>(nz) * kNkr, 0.0f);
  const float g0 = 1.0e-3f;
  g[static_cast<std::size_t>(src) * kNkr + bin] = g0;
  SedConfig cfg;
  cfg.dt = 120.0;
  cfg.dz = 150.0;
  const double v = bins33().terminal_velocity(sp, bin, rho[0]);
  const int n =
      std::max(1, static_cast<int>(std::ceil(v * cfg.dt / cfg.dz)));
  const double c = v * (cfg.dt / n) / cfg.dz;
  ASSERT_LE(c, 1.0 + 1e-12);
  ASSERT_GE(src - n, 0) << "source too low: spread would hit the surface";

  const SedStats st =
      sediment_column(bins33(), sp, g.data(), rho.data(), nz, cfg);
  // substeps covers every bin (all have positive fall speed); the
  // tracked bin alone contributes its n.
  EXPECT_GE(st.substeps, static_cast<std::uint64_t>(n));
  EXPECT_EQ(st.surface_precip, 0.0);

  // Binomial coefficients iteratively (n is small).
  std::vector<double> expect(static_cast<std::size_t>(n) + 1);
  double coeff = 1.0;
  for (int m = 0; m <= n; ++m) {
    expect[static_cast<std::size_t>(m)] = static_cast<double>(g0) * coeff *
                                          std::pow(c, m) *
                                          std::pow(1.0 - c, n - m);
    coeff = coeff * (n - m) / (m + 1);
  }
  double mean_drop = 0.0;
  for (int iz = 0; iz < nz; ++iz) {
    const double got = g[static_cast<std::size_t>(iz) * kNkr + bin];
    const int m = src - iz;
    const double want =
        (m >= 0 && m <= n) ? expect[static_cast<std::size_t>(m)] : 0.0;
    EXPECT_NEAR(got, want, static_cast<double>(g0) * 1e-5) << "level " << iz;
    mean_drop += got * m;
  }
  mean_drop = mean_drop / static_cast<double>(g0) * cfg.dz;
  EXPECT_NEAR(mean_drop, v * cfg.dt, v * cfg.dt * 1e-5);
}

// ------------------------------------- hoisted vs unhoisted bitwise identity

/// sediment_column without its hoisted loop invariants: one
/// terminal_velocity lookup (table read plus density sqrt) per bin,
/// level and substep, and the courant number recomputed every substep.
SedStats unhoisted_sediment_column(Species sp, float* g_col,
                                   const double* rho, int nz,
                                   const SedConfig& cfg) {
  SedStats st;
  for (int k = 0; k < kNkr; ++k) {
    double vmax = 0.0;
    for (int iz = 0; iz < nz; ++iz) {
      vmax = std::max(
          vmax, bins33().terminal_velocity(sp, k, rho[iz]) * cfg.vel_scale);
    }
    if (vmax <= 0.0) continue;
    const int nsub =
        std::max(1, static_cast<int>(std::ceil(vmax * cfg.dt / cfg.dz)));
    const double dts = cfg.dt / nsub;
    st.substeps += static_cast<std::uint64_t>(nsub);
    for (int s = 0; s < nsub; ++s) {
      double flux_from_above = 0.0;
      for (int iz = nz - 1; iz >= 0; --iz) {
        float& g = g_col[static_cast<std::size_t>(iz) * kNkr + k];
        const double v =
            bins33().terminal_velocity(sp, k, rho[iz]) * cfg.vel_scale;
        const double courant = std::min(1.0, v * dts / cfg.dz);
        const double out = rho[iz] * static_cast<double>(g) * courant;
        const double in = flux_from_above;
        g = static_cast<float>((rho[iz] * g - out + in) / rho[iz]);
        flux_from_above = out;
        st.flops += 8.0;
      }
      st.surface_precip += flux_from_above / rho[0];
    }
  }
  return st;
}

TEST(FsbmProperties, ColumnMatchesUnhoistedReferenceBitwise) {
  Rng rng(0xB17B17ull);
  for (int trial = 0; trial < 48; ++trial) {
    const int nz = 4 + static_cast<int>(rng.bounded(30));
    const Species sp = random_species(rng);
    SedConfig cfg = random_cfg(rng);
    // A third each: the default scale, a random one, and zero velocity.
    if (trial % 3 == 1) cfg.vel_scale = rng.uniform(0.1, 3.0);
    if (trial % 3 == 2) cfg.vel_scale = 0.0;
    ColumnSample s = random_column(rng, nz);
    ColumnSample ref = s;
    const SedStats got =
        sediment_column(bins33(), sp, s.g.data(), s.rho.data(), nz, cfg);
    const SedStats want =
        unhoisted_sediment_column(sp, ref.g.data(), ref.rho.data(), nz, cfg);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(std::memcmp(s.g.data(), ref.g.data(),
                          s.g.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(&got.surface_precip, &want.surface_precip,
                          sizeof(double)),
              0);
    EXPECT_EQ(got.substeps, want.substeps);
    EXPECT_EQ(std::memcmp(&got.flops, &want.flops, sizeof(double)), 0);
  }
}

// ------------------------------------------------- seed determinism

// Snapshot hashing lives in model::state_hash (src/model/driver.hpp) so
// the forecast service can assert the same bitwise-equality law.

void expect_identical_stats(const FsbmStats& a, const FsbmStats& b) {
  EXPECT_EQ(a.cells_active, b.cells_active);
  EXPECT_EQ(a.cells_coal, b.cells_coal);
  EXPECT_EQ(a.kernel_entries, b.kernel_entries);
  EXPECT_EQ(a.coal_interactions, b.coal_interactions);
  EXPECT_EQ(a.sed_substeps, b.sed_substeps);
  // Doubles bitwise: the exec layer pins reduction association.
  EXPECT_EQ(std::memcmp(&a.surface_precip, &b.surface_precip,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&a.sed_flops, &b.sed_flops, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.cond_flops, &b.cond_flops, sizeof(double)), 0);
}

TEST(FsbmProperties, SeedDeterminismUnderThreadedDispatch) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.nsteps = 2;
  // Two threads so the per-thread column and scratch buffers actually
  // get reused across tiles and runs.
  cfg.exec.kind = exec::ExecKind::kThreads;
  cfg.exec.nthreads = 2;
  const model::RunResult a = model::run_single(cfg);
  const model::RunResult b = model::run_single(cfg);
  expect_identical_stats(a.totals.fsbm, b.totals.fsbm);
  EXPECT_EQ(model::state_hash(a), model::state_hash(b));
}

// ------------------------------------------ heterogeneous dispatch laws

TEST(FsbmProperties, HeteroSplitExecutesEveryCellExactlyOnce) {
  // Partition completeness: for random ranges, grains, and predicates —
  // including the all-true and all-false edges — a predicate-split run
  // across HeteroSpace's two concurrent shards touches every cell of
  // the range exactly once, and the shard cell counts tile the range.
  gpu::Device dev(gpu::DeviceSpec::test_device());
  exec::HeteroSpace het(dev, 3);
  Rng rng(0x5eedc0de);
  for (int trial = 0; trial < 24; ++trial) {
    const exec::Range3 r{
        Range{1, 2 + static_cast<int>(rng.bounded(14))},
        Range{1, 1 + static_cast<int>(rng.bounded(10))},
        Range{1, 1 + static_cast<int>(rng.bounded(8))}};
    exec::LaunchParams lp;
    lp.grain = 1 + static_cast<std::int64_t>(rng.bounded(
                       static_cast<std::uint32_t>(r.size())));
    const exec::TilePlan plan = exec::ExecSpace::plan_for(r, lp);
    // Predicate density sweeps the edges: trial 0 all-false, trial 1
    // all-true, the rest random per-cell coin flips.
    const double density =
        trial == 0 ? -1.0 : (trial == 1 ? 2.0 : rng.uniform());
    std::vector<std::uint8_t> pred(static_cast<std::size_t>(r.size()), 0);
    for (auto& p : pred) p = rng.uniform() < density ? 1 : 0;
    auto pred_at = [&](int i, int k, int j) {
      const std::int64_t flat =
          (static_cast<std::int64_t>(j - r.j.lo) * r.k.size() + (k - r.k.lo)) *
              r.i.size() +
          (i - r.i.lo);
      return pred[static_cast<std::size_t>(flat)] != 0;
    };
    const exec::SplitPlan sp = exec::split_plan(r, plan, pred_at);
    EXPECT_EQ(sp.device_cells + sp.host_cells, r.size());
    if (trial == 0) {
      EXPECT_TRUE(sp.device_tiles.empty());
    }
    if (trial == 1) {
      EXPECT_TRUE(sp.host_tiles.empty());
    }
    // Every predicate-true cell must sit in a device tile (the planner
    // may only over-approximate at tile granularity, never drop).
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(r.size()));
    std::atomic<std::uint64_t> host_true{0};
    het.run_split(
        sp, lp,
        [&](std::int64_t, std::int64_t b, std::int64_t e) {
          for (std::int64_t f = b; f < e; ++f) {
            hits[static_cast<std::size_t>(f)].fetch_add(1);
          }
        },
        [&](std::int64_t, std::int64_t b, std::int64_t e) {
          for (std::int64_t f = b; f < e; ++f) {
            hits[static_cast<std::size_t>(f)].fetch_add(1);
            if (pred[static_cast<std::size_t>(f)] != 0) {
              host_true.fetch_add(1);
            }
          }
        });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(host_true.load(), 0u);
    // Determinism of the cut itself: re-planning yields the same lists.
    const exec::SplitPlan sp2 = exec::split_plan(r, plan, pred_at);
    EXPECT_EQ(sp.device_tiles, sp2.device_tiles);
    EXPECT_EQ(sp.host_tiles, sp2.host_tiles);
  }
}

TEST(FsbmProperties, SeedDeterminismUnderHeteroDispatch) {
  // exec=hetero adds concurrent shards and shard-granular transfers on
  // top of the residency machinery; the determinism law must still
  // hold: same RunConfig twice -> identical stats, state hash, modeled
  // traffic, AND shard split, under both residency modes.  nz = 40
  // reaches above the 223.15 K coal gate so the split is two-sided.
  for (const mem::ResidencyMode res :
       {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
    SCOPED_TRACE(model::knob_name("res", res));
    model::RunConfig cfg;
    cfg.nx = 12;
    cfg.ny = 10;
    cfg.nz = 40;
    cfg.nsteps = 2;
    cfg.version = Version::kV3Offload3;
    cfg.res = res;
    cfg.exec.kind = exec::ExecKind::kHetero;
    cfg.exec.nthreads = 2;
    const model::RunResult a = model::run_single(cfg);
    const model::RunResult b = model::run_single(cfg);
    expect_identical_stats(a.totals.fsbm, b.totals.fsbm);
    EXPECT_EQ(a.totals.fsbm.h2d_bytes, b.totals.fsbm.h2d_bytes);
    EXPECT_EQ(a.totals.fsbm.d2h_bytes, b.totals.fsbm.d2h_bytes);
    EXPECT_EQ(a.totals.fsbm.shard_cells_device,
              b.totals.fsbm.shard_cells_device);
    EXPECT_EQ(a.totals.fsbm.shard_cells_host, b.totals.fsbm.shard_cells_host);
    EXPECT_EQ(model::state_hash(a), model::state_hash(b));
    // The split is genuinely two-sided at this depth.
    EXPECT_GT(a.totals.fsbm.shard_cells_device, 0u);
    EXPECT_GT(a.totals.fsbm.shard_cells_host, 0u);
  }
}

TEST(FsbmProperties, SeedDeterminismUnderResidencyModes) {
  // Device residency is pure transfer accounting: each res= mode is
  // seed-deterministic (run twice: identical hash, stats, AND modeled
  // traffic), and the two modes agree with each other bitwise in state
  // and physics stats.
  std::uint64_t hash[2] = {0, 0};
  FsbmStats stats[2];
  int n = 0;
  for (const mem::ResidencyMode res :
       {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
    SCOPED_TRACE(model::knob_name("res", res));
    model::RunConfig cfg;
    cfg.nx = 16;
    cfg.ny = 12;
    cfg.nz = 8;
    cfg.nsteps = 2;
    cfg.version = Version::kV3Offload3;  // offloaded: the res knob bites
    cfg.res = res;
    cfg.exec.kind = exec::ExecKind::kThreads;
    cfg.exec.nthreads = 2;
    const model::RunResult a = model::run_single(cfg);
    const model::RunResult b = model::run_single(cfg);
    expect_identical_stats(a.totals.fsbm, b.totals.fsbm);
    EXPECT_EQ(a.totals.fsbm.h2d_bytes, b.totals.fsbm.h2d_bytes);
    EXPECT_EQ(a.totals.fsbm.d2h_bytes, b.totals.fsbm.d2h_bytes);
    EXPECT_EQ(model::state_hash(a), model::state_hash(b));
    hash[n] = model::state_hash(a);
    stats[n] = a.totals.fsbm;
    ++n;
  }
  EXPECT_EQ(hash[0], hash[1]);  // step vs persist: bitwise-equal state
  expect_identical_stats(stats[0], stats[1]);
  // persist's per-launch re-uploads collapse to dirty bytes: traffic
  // must strictly shrink even with host-side passes re-staling fields.
  EXPECT_LT(stats[1].d2h_bytes, stats[0].d2h_bytes);
}

// ---- hybrid bin<->bulk transforms (fsbm/hybrid.hpp) --------------------

/// A random liquid spectrum: lognormal-ish mass scattered over a random
/// subset of bins, with occasional zero and single-bin degenerate cases.
std::vector<float> random_spectrum(Rng& rng) {
  std::vector<float> liq(kNkr, 0.0f);
  const int mode = static_cast<int>(rng.bounded(10));
  if (mode == 0) return liq;  // all-zero cell
  const int lo = static_cast<int>(rng.bounded(kNkr));
  const int hi =
      mode == 1 ? lo : lo + static_cast<int>(rng.bounded(
                                static_cast<std::uint64_t>(kNkr - lo)));
  for (int n = lo; n <= hi; ++n) {
    liq[static_cast<std::size_t>(n)] =
        static_cast<float>(std::exp(rng.uniform(-20.0, -5.0)));
  }
  return liq;
}

double spectrum_mass(const std::vector<float>& liq) {
  double m = 0.0;
  for (const float v : liq) m += v;
  return m;
}

TEST(FsbmProperties, DemotePromoteRoundTripConservesLiquidUlpScaled) {
  // Total water across the transforms: demotion integrates the spectrum
  // into (qc, qr) at the rain-bin cut; promotion reconstructs a
  // moment-matched spectrum.  Each direction stores kNkr floats once,
  // so mass drift is bounded by an ulp-scaled tolerance — per category,
  // not just in total.
  Rng rng(0x5eedu);
  const HybridConfig cfg;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<float> liq = random_spectrum(rng);
    double qc0 = 0.0, qr0 = 0.0;
    for (int n = 0; n < cfg.rain_bin_cut; ++n) qc0 += liq[n];
    for (int n = cfg.rain_bin_cut; n < kNkr; ++n) qr0 += liq[n];
    const double tol =
        (qc0 + qr0) * static_cast<double>(kNkr) *
        static_cast<double>(std::numeric_limits<float>::epsilon());

    const BulkMoments m = demote_liquid(liq.data(), kNkr, cfg);
    EXPECT_NEAR(m.qc, qc0, tol);
    EXPECT_NEAR(m.qr, qr0, tol);
    EXPECT_NEAR(spectrum_mass(liq), qc0 + qr0, tol);

    promote_liquid(liq.data(), kNkr, cfg);
    double qc1 = 0.0, qr1 = 0.0;
    for (int n = 0; n < cfg.rain_bin_cut; ++n) qc1 += liq[n];
    for (int n = cfg.rain_bin_cut; n < kNkr; ++n) qr1 += liq[n];
    EXPECT_NEAR(qc1, qc0, tol);
    EXPECT_NEAR(qr1, qr0, tol);
  }
}

TEST(FsbmProperties, DemoteIsIdempotent) {
  // A second demotion of an already-collapsed cell must be a bitwise
  // no-op (every step re-collapses resident bulk cells, so this runs
  // constantly in hybrid mode).
  Rng rng(0xb01du);
  const HybridConfig cfg;
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<float> liq = random_spectrum(rng);
    const BulkMoments m1 = demote_liquid(liq.data(), kNkr, cfg);
    std::vector<float> once = liq;
    const BulkMoments m2 = demote_liquid(liq.data(), kNkr, cfg);
    EXPECT_EQ(std::memcmp(liq.data(), once.data(), once.size() * 4), 0);
    EXPECT_EQ(static_cast<float>(m1.qc), static_cast<float>(m2.qc));
    EXPECT_EQ(static_cast<float>(m1.qr), static_cast<float>(m2.qr));
  }
}

TEST(FsbmProperties, TransformsNeverGoNegative) {
  Rng rng(0x9051u);
  const HybridConfig cfg;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> liq = random_spectrum(rng);
    demote_liquid(liq.data(), kNkr, cfg);
    for (const float v : liq) EXPECT_GE(v, 0.0f);
    promote_liquid(liq.data(), kNkr, cfg);
    for (const float v : liq) EXPECT_GE(v, 0.0f);
  }
}

/// Domain totals for the hybrid budget laws: total water (vapor +
/// condensate + accumulated precip, via MicroState) and the moist
/// static energy proxy cp*T + Lv*qv.  The transforms never touch temp
/// or qv, so microphysics drift of the MSE sum under phys=hybrid must
/// match the bin scheme's own saturation-adjustment linearization — no
/// new leak from promotion/demotion.
double domain_mse(const MicroState& s) {
  namespace c = constants;
  double h = 0.0;
  const auto& p = s.patch;
  for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
        h += c::kCp * s.temp(i, k, j) + c::kLv * s.qv(i, k, j);
      }
    }
  }
  return h;
}

TEST(FsbmProperties, HybridRunConservesWaterAndMoistStaticEnergy) {
  // Microphysics-only stepping of the storm case at phys=hybrid, with
  // promotions and demotions live: the water budget closes to the same
  // tolerance the pure-bin scheme is held to, and the MSE proxy drifts
  // no more than condensation's linearized latent-heat update already
  // allows.
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 14;
  cfg.npx = cfg.npy = 1;
  const grid::Patch patch = grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
  MicroState state(patch, cfg.nkr);
  model::init_case_conus(cfg, state);
  const double water0 = state.total_water();
  const double mse0 = domain_mse(state);
  FsbmParams params;
  params.phys = PhysScheme::kHybrid;
  FastSbm scheme(patch, cfg.nkr, Version::kV1LookupOnDemand, params);
  FsbmStats st;
  for (int s = 0; s < 3; ++s) st.merge(scheme.step(state));
  // The run must actually exercise both fidelities and the transforms.
  EXPECT_GT(st.cells_bin, 0u);
  EXPECT_GT(st.cells_bulk, 0u);
  EXPECT_GT(st.demotions, 0u);
  EXPECT_NEAR(state.total_water(), water0, water0 * 5e-4);
  EXPECT_NEAR(domain_mse(state), mse0, mse0 * 5e-4);
}

}  // namespace
}  // namespace wrf::fsbm
