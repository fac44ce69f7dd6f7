// Property + unit tests: coal_bott_new and pairwise-sweep conservation,
// and the lockstep kernel against the per-cell oracle, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "fsbm/coal_bott.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wrf::fsbm {
namespace {

/// The one-lane production sweep under the per-cell signature the
/// property tests below are written against.
CoalStats collect_pair(const BinGrid& bins, CollisionPair pair,
                       const KernelSource& ks, float* ga, float* gb,
                       float* gd, const CoalConfig& cfg) {
  PairLane lane{&ks, ga, gb, gd, {}};
  collect_pair_lanes(bins, pair, std::span<PairLane>(&lane, 1), cfg);
  return lane.stats;
}

// ------------------------------------------------- the per-cell oracle
//
// The scalar sweep and coal_bott_new exactly as they ran before the
// lockstep kernel: one cell at a time, one KernelSource::k per lookup.
// They also count which of the sweep's branches fired, so the oracle
// test can show its data reaches every one of them.

struct OracleCoverage {
  std::uint64_t empty_rows = 0;      ///< `continue` on an empty collector
  std::uint64_t drained_rows = 0;    ///< `break` on a drained collector
  std::uint64_t limited = 0;         ///< the max_frac limiter fired
  std::uint64_t self_same_bin = 0;   ///< self-collection at i == j
  std::uint64_t top_overflow = 0;    ///< kd >= nkr-1 lands in the top bin
};

/// The kernel value of pair `p` at (i, j) from `ks`, one entry at a time.
float oracle_k(const KernelSource& ks, CollisionPair p, int i, int j) {
  if (ks.precomputed() != nullptr) return ks.precomputed()->at(p, i, j);
  const float c750 = ks.tables()->table(p, i, j, /*level_750mb=*/true);
  const float c500 = ks.tables()->table(p, i, j, /*level_750mb=*/false);
  return ks.device_fma() ? KernelTables::lerp_fma(c750, c500, ks.weight())
                         : KernelTables::lerp(c750, c500, ks.weight());
}

CoalStats oracle_collect_pair(const BinGrid& bins, CollisionPair pair,
                              const KernelSource& ks, float* ga, float* gb,
                              float* gd, const CoalConfig& cfg,
                              OracleCoverage& cov) {
  CoalStats st;
  const int nkr = bins.nkr();
  const bool self = (ga == gb);
  const auto gmin = static_cast<float>(cfg.gmin);
  for (int j = 0; j < nkr; ++j) {
    if (gb[j] <= gmin) {
      ++cov.empty_rows;
      continue;
    }
    const double mj = bins.mass(j);
    const int imax = self ? j : nkr - 1;
    for (int i = 0; i <= imax; ++i) {
      const float gbj = gb[j];
      if (gbj <= gmin) {
        ++cov.drained_rows;
        break;
      }
      const float gai = ga[i];
      if (gai <= gmin) continue;
      const double nb = gbj / mj;
      const double mi = bins.mass(i);
      const double na = gai / mi;
      const double kv = oracle_k(ks, pair, i, j);
      ++st.kernel_lookups;
      double dn = kv * na * nb * cfg.dt;
      if (self && i == j) dn *= 0.5;
      if (dn <= 0.0) continue;

      double dma = dn * mi;
      double dmb = dn * mj;
      double scale = 1.0;
      if (self && i == j) {
        ++cov.self_same_bin;
        const double avail = cfg.max_frac * gai;
        if (dma + dmb > avail) scale = avail / (dma + dmb);
      } else {
        if (dma > cfg.max_frac * gai) scale = cfg.max_frac * gai / dma;
        if (dmb > cfg.max_frac * gbj) {
          scale = std::min(scale, cfg.max_frac * gbj / dmb);
        }
      }
      if (scale < 1.0) ++cov.limited;
      dma *= scale;
      dmb *= scale;
      dn *= scale;

      ga[i] = static_cast<float>(ga[i] - dma);
      gb[j] = static_cast<float>(gb[j] - dmb);

      const BinGrid::CoalDest& dest = bins.coal_dest(i, j);
      const int kd = dest.kd;
      if (kd >= nkr - 1) {
        ++cov.top_overflow;
        gd[nkr - 1] = static_cast<float>(gd[nkr - 1] + dma + dmb);
      } else {
        const double mk = bins.mass(kd);
        const double mk1 = bins.mass(kd + 1);
        const double f = dest.f;
        const double n_new = dn;
        gd[kd] = static_cast<float>(gd[kd] + n_new * (1.0 - f) * mk);
        gd[kd + 1] = static_cast<float>(gd[kd + 1] + n_new * f * mk1);
      }
      ++st.interactions;
      st.flops += 24.0;
    }
  }
  ++st.pairs_active;
  return st;
}

CoalStats oracle_coal_bott_new(const BinGrid& bins, double temp_k,
                               const KernelSource& ks, const CoalWorkspace& w,
                               const CoalConfig& cfg, OracleCoverage& cov) {
  CoalStats st;
  const int nkr = bins.nkr();
  float* ice1 = w.g2;
  float* ice2 = w.g2 + nkr;
  float* ice3 = w.g2 + 2 * nkr;
  const auto run = [&](CollisionPair p, float* ga, float* gb, float* gd) {
    const CoalStats s = oracle_collect_pair(bins, p, ks, ga, gb, gd, cfg, cov);
    st.kernel_lookups += s.kernel_lookups;
    st.interactions += s.interactions;
    st.pairs_active += s.pairs_active;
    st.flops += s.flops;
  };
  run(CollisionPair::kLL, w.fl1, w.fl1, w.fl1);
  if (temp_k < constants::kT0) {
    run(CollisionPair::kLS, w.fl1, w.g3, w.g3);
    run(CollisionPair::kLG, w.fl1, w.g4, w.g4);
    run(CollisionPair::kLH, w.fl1, w.g5, w.g5);
    run(CollisionPair::kLI1, w.fl1, ice1, w.g4);
    run(CollisionPair::kLI2, w.fl1, ice2, w.g4);
    run(CollisionPair::kLI3, w.fl1, ice3, w.g4);
    run(CollisionPair::kSS, w.g3, w.g3, w.g3);
    run(CollisionPair::kSI1, ice1, w.g3, w.g3);
    run(CollisionPair::kSI2, ice2, w.g3, w.g3);
    run(CollisionPair::kSI3, ice3, w.g3, w.g3);
    run(CollisionPair::kII1, ice1, ice1, w.g3);
    run(CollisionPair::kII2, ice2, ice2, w.g3);
    run(CollisionPair::kII3, ice3, ice3, w.g3);
    run(CollisionPair::kSG, w.g3, w.g4, w.g4);
    run(CollisionPair::kSH, w.g3, w.g5, w.g5);
    run(CollisionPair::kGG, w.g4, w.g4, w.g4);
    run(CollisionPair::kGH, w.g4, w.g5, w.g5);
    run(CollisionPair::kHH, w.g5, w.g5, w.g5);
    run(CollisionPair::kIG, ice1, w.g4, w.g4);
  }
  return st;
}

class CoalTest : public ::testing::Test {
 protected:
  BinGrid bins_{33};
  KernelTables tables_{bins_};
  CoalConfig cfg_{};

  std::vector<float> droplet_spectrum(double q_total, Rng& rng) {
    std::vector<float> g(33, 0.0f);
    double norm = 0.0;
    std::vector<double> w(33);
    for (int k = 0; k < 33; ++k) {
      const double x = (k - 7.0) / 3.0;
      w[static_cast<std::size_t>(k)] =
          std::exp(-x * x) * (0.8 + 0.4 * rng.uniform());
      norm += w[static_cast<std::size_t>(k)];
    }
    for (int k = 0; k < 33; ++k) {
      g[static_cast<std::size_t>(k)] =
          static_cast<float>(q_total * w[static_cast<std::size_t>(k)] / norm);
    }
    return g;
  }

  static double total(const std::vector<float>& g) {
    return std::accumulate(g.begin(), g.end(), 0.0);
  }
  static double mean_mass(const BinGrid& bins, const std::vector<float>& g) {
    double m = 0.0, n = 0.0;
    for (int k = 0; k < 33; ++k) {
      m += g[static_cast<std::size_t>(k)];
      n += g[static_cast<std::size_t>(k)] / bins.mass(k);
    }
    return n > 0 ? m / n : 0.0;
  }
};

TEST_F(CoalTest, SelfCollectionConservesMass) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = droplet_spectrum(1.0e-3 * (0.2 + rng.uniform()), rng);
    const double before = total(g);
    const KernelSource ks(tables_, 70000.0);
    collect_pair(bins_, CollisionPair::kLL, ks, g.data(), g.data(), g.data(),
                 cfg_);
    EXPECT_NEAR(total(g), before, before * 1e-6) << "trial " << trial;
  }
}

TEST_F(CoalTest, SelfCollectionNeverGoesNegative) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = droplet_spectrum(5.0e-3, rng);
    CoalConfig cfg = cfg_;
    cfg.dt = 60.0;  // aggressive step to stress the limiter
    const KernelSource ks(tables_, 60000.0);
    collect_pair(bins_, CollisionPair::kLL, ks, g.data(), g.data(), g.data(),
                 cfg);
    for (int k = 0; k < 33; ++k) {
      EXPECT_GE(g[static_cast<std::size_t>(k)], 0.0f) << "bin " << k;
    }
  }
}

TEST_F(CoalTest, SelfCollectionGrowsMeanMass) {
  Rng rng(3);
  auto g = droplet_spectrum(2.0e-3, rng);
  const double mean_before = mean_mass(bins_, g);
  const KernelSource ks(tables_, 70000.0);
  CoalConfig cfg = cfg_;
  cfg.dt = 30.0;
  collect_pair(bins_, CollisionPair::kLL, ks, g.data(), g.data(), g.data(),
               cfg);
  EXPECT_GT(mean_mass(bins_, g), mean_before);
}

TEST_F(CoalTest, RimingMovesLiquidIntoSnow) {
  Rng rng(4);
  auto liq = droplet_spectrum(1.0e-3, rng);
  std::vector<float> snow(33, 0.0f);
  snow[20] = 5.0e-4f;  // one big collector bin
  const double before = total(liq) + total(snow);
  const double liq_before = total(liq);
  const KernelSource ks(tables_, 60000.0);
  collect_pair(bins_, CollisionPair::kLS, ks, liq.data(), snow.data(),
               snow.data(), cfg_);
  EXPECT_NEAR(total(liq) + total(snow), before, before * 1e-6);
  EXPECT_LT(total(liq), liq_before);
  EXPECT_GT(total(snow), 5.0e-4);
}

TEST_F(CoalTest, EmptyCollectorIsFreeNoLookups) {
  // The v1 win: on-demand lookup skips rows with empty collectors.
  Rng rng(5);
  auto liq = droplet_spectrum(1.0e-3, rng);
  std::vector<float> hail(33, 0.0f);
  const KernelSource ks(tables_, 60000.0);
  const CoalStats st = collect_pair(bins_, CollisionPair::kLH, ks, liq.data(),
                                    hail.data(), hail.data(), cfg_);
  EXPECT_EQ(st.kernel_lookups, 0u);
  EXPECT_EQ(st.interactions, 0u);
}

TEST_F(CoalTest, WarmCellRunsOnlyLiquidPair) {
  Rng rng(6);
  float buf[(4 + kIceMax) * kMaxNkr] = {};
  CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + 33;
  w.g3 = buf + 33 * (1 + kIceMax);
  w.g4 = buf + 33 * (2 + kIceMax);
  w.g5 = buf + 33 * (3 + kIceMax);
  auto liq = droplet_spectrum(1.0e-3, rng);
  std::copy(liq.begin(), liq.end(), w.fl1);
  w.g3[18] = 1.0e-4f;  // snow present but it's warm: no riming
  const KernelSource ks(tables_, 80000.0);
  const CoalStats st = coal_bott_new(bins_, 285.0, ks, w, cfg_);
  EXPECT_EQ(st.pairs_active, 1u);
  EXPECT_FLOAT_EQ(w.g3[18], 1.0e-4f);  // snow untouched
}

TEST_F(CoalTest, ColdCellRunsAllTwentyPairs) {
  Rng rng(7);
  float buf[(4 + kIceMax) * kMaxNkr] = {};
  CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + 33;
  w.g3 = buf + 33 * (1 + kIceMax);
  w.g4 = buf + 33 * (2 + kIceMax);
  w.g5 = buf + 33 * (3 + kIceMax);
  auto liq = droplet_spectrum(1.0e-3, rng);
  std::copy(liq.begin(), liq.end(), w.fl1);
  const KernelSource ks(tables_, 55000.0);
  const CoalStats st = coal_bott_new(bins_, 258.0, ks, w, cfg_);
  EXPECT_EQ(st.pairs_active, 20u);
}

TEST_F(CoalTest, ColdCellConservesTotalCondensate) {
  Rng rng(8);
  float buf[(4 + kIceMax) * kMaxNkr] = {};
  CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + 33;
  w.g3 = buf + 33 * (1 + kIceMax);
  w.g4 = buf + 33 * (2 + kIceMax);
  w.g5 = buf + 33 * (3 + kIceMax);
  auto liq = droplet_spectrum(1.5e-3, rng);
  std::copy(liq.begin(), liq.end(), w.fl1);
  for (int k = 4; k < 18; ++k) {
    w.g3[k] = 2.0e-5f;
    w.g2[k] = 1.0e-5f;
    w.g2[33 + k] = 8.0e-6f;
    w.g4[k + 4] = 1.2e-5f;
    w.g5[k + 6] = 4.0e-6f;
  }
  double before = 0.0;
  for (int n = 0; n < (4 + kIceMax) * 33; ++n) before += buf[n];
  const KernelSource ks(tables_, 55000.0);
  coal_bott_new(bins_, 255.0, ks, w, cfg_);
  double after = 0.0;
  for (int n = 0; n < (4 + kIceMax) * 33; ++n) after += buf[n];
  EXPECT_NEAR(after, before, before * 1e-5);
  for (int n = 0; n < (4 + kIceMax) * 33; ++n) {
    EXPECT_GE(buf[n], 0.0f) << "slot " << n;
  }
}

TEST_F(CoalTest, PrecomputedAndOnDemandSourcesAgreeBitwise) {
  // Table III's invariant: v0 and v1 compute identical physics.
  Rng rng(9);
  const double pres = 63000.0;
  CollisionArrays arrays(33);
  tables_.kernals_ks(pres, arrays);

  auto ga = droplet_spectrum(1.0e-3, rng);
  auto gb = ga;
  std::vector<float> snow_a(33, 0.0f), snow_b(33, 0.0f);
  snow_a[22] = snow_b[22] = 3.0e-4f;

  const KernelSource pre(arrays);
  const KernelSource dem(tables_, pres);
  collect_pair(bins_, CollisionPair::kLS, pre, ga.data(), snow_a.data(),
               snow_a.data(), cfg_);
  collect_pair(bins_, CollisionPair::kLS, dem, gb.data(), snow_b.data(),
               snow_b.data(), cfg_);
  for (int k = 0; k < 33; ++k) {
    EXPECT_EQ(ga[static_cast<std::size_t>(k)], gb[static_cast<std::size_t>(k)]);
    EXPECT_EQ(snow_a[static_cast<std::size_t>(k)],
              snow_b[static_cast<std::size_t>(k)]);
  }
}

TEST_F(CoalTest, LookupCountSkipsEmptyWork) {
  // On-demand lookups scale with occupied bins, not with 20*nkr^2.
  Rng rng(10);
  auto liq = droplet_spectrum(1.0e-3, rng);
  const KernelSource ks(tables_, 70000.0);
  const CoalStats st = collect_pair(bins_, CollisionPair::kLL, ks, liq.data(),
                                    liq.data(), liq.data(), cfg_);
  EXPECT_LT(st.kernel_lookups, static_cast<std::uint64_t>(33) * 33);
  EXPECT_GT(st.kernel_lookups, 0u);
}

TEST_F(CoalTest, WorkspaceBytesMatchLayout) {
  EXPECT_EQ(CoalWorkspace::bytes_per_cell(33),
            static_cast<std::uint64_t>(33) * 7 * 4);
}

TEST_F(CoalTest, LongerTimestepCollectsMore) {
  Rng rng(11);
  auto g1 = droplet_spectrum(1.0e-3, rng);
  auto g2v = g1;
  CoalConfig fast = cfg_;
  fast.dt = 1.0;
  CoalConfig slow = cfg_;
  slow.dt = 20.0;
  const KernelSource ks(tables_, 70000.0);
  collect_pair(bins_, CollisionPair::kLL, ks, g1.data(), g1.data(), g1.data(),
               fast);
  collect_pair(bins_, CollisionPair::kLL, ks, g2v.data(), g2v.data(),
               g2v.data(), slow);
  EXPECT_GT(mean_mass(bins_, g2v), mean_mass(bins_, g1));
}

// ------------------------------------- lockstep vs the per-cell oracle

constexpr int kNkr = 33;
constexpr int kSlots = (4 + kIceMax) * kNkr;

/// One randomized cell: temperature, pressure and the seven workspace
/// distributions, laid out as one (4 + kIceMax) * nkr buffer.
struct OracleCell {
  double temp_k = 0.0;
  double pres_pa = 0.0;
  std::vector<float> buf;

  CoalWorkspace view(std::vector<float>& b) const {
    CoalWorkspace w;
    w.fl1 = b.data();
    w.g2 = b.data() + kNkr;
    w.g3 = b.data() + kNkr * (1 + kIceMax);
    w.g4 = b.data() + kNkr * (2 + kIceMax);
    w.g5 = b.data() + kNkr * (3 + kIceMax);
    return w;
  }
};

/// Cells covering the sweep's branches: warm and cold cells alternate
/// irregularly; each distribution is a random band of bins (empty rows
/// around it), some species are empty outright, some bands reach the top
/// bins (kd >= nkr-1 overflow), and dense bands feed the limiter.
std::vector<OracleCell> oracle_cells(int count, std::uint64_t seed) {
  Rng rng(seed);
  const double temps[] = {285.0, 258.0, 250.0, 290.0, 262.0, 271.0,
                          240.0, 300.0, 255.0, 268.0, 245.0};
  std::vector<OracleCell> cells(static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    OracleCell& cell = cells[static_cast<std::size_t>(c)];
    cell.temp_k = temps[c % 11];
    cell.pres_pa = rng.uniform(42000.0, 82000.0);  // both weight clamps
    cell.buf.assign(kSlots, 0.0f);
    for (int slot = 0; slot < 7; ++slot) {
      if (rng.uniform() < 0.2) continue;  // an empty species
      float* g = cell.buf.data() + slot * kNkr;
      const int lo = static_cast<int>(rng.uniform(0.0, 30.0));
      const int width = 2 + static_cast<int>(rng.uniform(0.0, 12.0));
      const int hi = std::min(kNkr - 1, lo + width);
      const double q = std::pow(10.0, rng.uniform(-6.0, -2.5));
      for (int k = lo; k <= hi; ++k) {
        g[k] = static_cast<float>(q * rng.uniform(0.1, 1.0));
      }
      if (rng.uniform() < 0.3) g[(lo + hi) / 2] = 0.0f;  // a hole
    }
  }
  return cells;
}

enum class SourceKind { kPrecomputed, kGetCw, kDeviceFma };

class CoalLockstepTest : public CoalTest {
 protected:
  /// Run `cells` through the oracle one by one and through
  /// coal_bott_lanes in consecutive groups of `width` (a partial last
  /// group when width does not divide the count), then compare every
  /// workspace byte and every CoalStats field.
  void expect_lockstep_matches(const std::vector<OracleCell>& cells,
                               SourceKind kind, int width,
                               const CoalConfig& cfg, OracleCoverage& cov) {
    SCOPED_TRACE("width " + std::to_string(width) + " kind " +
                 std::to_string(static_cast<int>(kind)));
    const std::size_t n = cells.size();
    std::vector<std::unique_ptr<CollisionArrays>> arrays(n);
    std::vector<KernelSource> sources(n);
    for (std::size_t c = 0; c < n; ++c) {
      const double pres = cells[c].pres_pa;
      if (kind == SourceKind::kPrecomputed) {
        arrays[c] = std::make_unique<CollisionArrays>(kNkr);
        tables_.kernals_ks(pres, *arrays[c]);
        sources[c] = KernelSource(*arrays[c]);
      } else {
        sources[c] = KernelSource(tables_, pres,
                                  kind == SourceKind::kDeviceFma);
      }
    }

    std::vector<std::vector<float>> want(n), got(n);
    std::vector<CoalStats> want_st(n);
    for (std::size_t c = 0; c < n; ++c) {
      want[c] = got[c] = cells[c].buf;
      want_st[c] = oracle_coal_bott_new(bins_, cells[c].temp_k, sources[c],
                                        cells[c].view(want[c]), cfg, cov);
    }
    std::vector<CoalLane> lanes(n);
    for (std::size_t c = 0; c < n; ++c) {
      lanes[c].temp_k = cells[c].temp_k;
      lanes[c].ks = sources[c];
      lanes[c].w = cells[c].view(got[c]);
    }
    for (std::size_t g = 0; g < n; g += static_cast<std::size_t>(width)) {
      const std::size_t m = std::min<std::size_t>(width, n - g);
      coal_bott_lanes(bins_, std::span<CoalLane>(lanes.data() + g, m), cfg);
    }

    for (std::size_t c = 0; c < n; ++c) {
      SCOPED_TRACE("cell " + std::to_string(c));
      EXPECT_EQ(std::memcmp(got[c].data(), want[c].data(),
                            kSlots * sizeof(float)),
                0);
      EXPECT_EQ(lanes[c].stats.kernel_lookups, want_st[c].kernel_lookups);
      EXPECT_EQ(lanes[c].stats.interactions, want_st[c].interactions);
      EXPECT_EQ(lanes[c].stats.pairs_active, want_st[c].pairs_active);
      EXPECT_EQ(std::memcmp(&lanes[c].stats.flops, &want_st[c].flops,
                            sizeof(double)),
                0);
    }
  }
};

TEST_F(CoalLockstepTest, LockstepMatchesPerCellOracleBitwise) {
  // 11 cells: widths 2, 3 and 4 each end on a partial group, and the
  // irregular warm/cold pattern mixes both in most groups.
  const std::vector<OracleCell> cells = oracle_cells(11, 12);
  CoalConfig rough = cfg_;
  rough.dt = 120.0;  // long step: the max_frac limiter fires often
  OracleCoverage cov;
  for (const SourceKind kind : {SourceKind::kPrecomputed, SourceKind::kGetCw,
                                SourceKind::kDeviceFma}) {
    for (int width = 1; width <= kCoalLanes; ++width) {
      expect_lockstep_matches(cells, kind, width, cfg_, cov);
      expect_lockstep_matches(cells, kind, width, rough, cov);
    }
  }
  // The data reached every branch of the sweep.
  EXPECT_GT(cov.empty_rows, 0u);
  EXPECT_GT(cov.drained_rows, 0u);
  EXPECT_GT(cov.limited, 0u);
  EXPECT_GT(cov.self_same_bin, 0u);
  EXPECT_GT(cov.top_overflow, 0u);
}

TEST_F(CoalLockstepTest, WarmAndColdLanesShareAGroup) {
  // One group of four: two warm lanes run only liquid-liquid while the
  // cold ones run all twenty sweeps, each lane's stats its own.
  std::vector<OracleCell> cells = oracle_cells(4, 13);
  const double temps[] = {290.0, 250.0, 280.0, 260.0};
  for (std::size_t c = 0; c < cells.size(); ++c) cells[c].temp_k = temps[c];
  OracleCoverage cov;
  expect_lockstep_matches(cells, SourceKind::kDeviceFma, 4, cfg_, cov);
  std::vector<CoalLane> lanes(4);
  for (std::size_t c = 0; c < 4; ++c) {
    lanes[c].temp_k = cells[c].temp_k;
    lanes[c].ks = KernelSource(tables_, cells[c].pres_pa, true);
    lanes[c].w = cells[c].view(cells[c].buf);
  }
  coal_bott_lanes(bins_, lanes, cfg_);
  EXPECT_EQ(lanes[0].stats.pairs_active, 1u);
  EXPECT_EQ(lanes[1].stats.pairs_active, 20u);
  EXPECT_EQ(lanes[2].stats.pairs_active, 1u);
  EXPECT_EQ(lanes[3].stats.pairs_active, 20u);
}

TEST_F(CoalLockstepTest, AllEmptyLanesDoNoWork) {
  // Empty collector rows in every lane: no lookups, no interactions.
  std::vector<OracleCell> cells = oracle_cells(3, 14);
  for (OracleCell& c : cells) std::fill(c.buf.begin(), c.buf.end(), 0.0f);
  OracleCoverage cov;
  expect_lockstep_matches(cells, SourceKind::kGetCw, 3, cfg_, cov);
  std::vector<CoalLane> lanes(3);
  for (std::size_t c = 0; c < 3; ++c) {
    lanes[c].temp_k = 250.0;
    lanes[c].ks = KernelSource(tables_, 60000.0);
    lanes[c].w = cells[c].view(cells[c].buf);
  }
  coal_bott_lanes(bins_, lanes, cfg_);
  for (const CoalLane& l : lanes) {
    EXPECT_EQ(l.stats.kernel_lookups, 0u);
    EXPECT_EQ(l.stats.interactions, 0u);
  }
}

TEST_F(CoalLockstepTest, RejectsBadLaneSets) {
  std::vector<OracleCell> cells = oracle_cells(kCoalLanes + 1, 15);
  std::vector<CoalLane> lanes(cells.size());
  CollisionArrays arrays(kNkr);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    lanes[c].temp_k = 250.0;
    lanes[c].ks = KernelSource(tables_, 60000.0, true);
    lanes[c].w = cells[c].view(cells[c].buf);
  }
  EXPECT_THROW(coal_bott_lanes(bins_, lanes, cfg_), ConfigError);
  EXPECT_THROW(coal_bott_lanes(bins_, std::span<CoalLane>(), cfg_),
               ConfigError);
  lanes[1].ks = KernelSource(tables_, 60000.0, false);  // mixed kinds
  EXPECT_THROW(
      coal_bott_lanes(bins_, std::span<CoalLane>(lanes.data(), 2), cfg_),
      ConfigError);
  lanes[1].ks = KernelSource(arrays);
  EXPECT_THROW(
      coal_bott_lanes(bins_, std::span<CoalLane>(lanes.data(), 2), cfg_),
      ConfigError);
}

}  // namespace
}  // namespace wrf::fsbm
