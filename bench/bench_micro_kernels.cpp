// Google-benchmark microbenchmarks of the primitives behind the paper's
// optimizations: kernals_ks vs on-demand get_cw, the Bott collision
// sweep, condensation, and the advection stencils.  These quantify the
// per-cell costs that the table benches aggregate.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "dyn/advection.hpp"
#include "fsbm/coal_bott.hpp"
#include "fsbm/kernels.hpp"
#include "fsbm/onecond.hpp"
#include "fsbm/sedimentation.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

using namespace wrf;

namespace {

const fsbm::BinGrid& bins33() {
  static const fsbm::BinGrid b(33);
  return b;
}
const fsbm::KernelTables& tables33() {
  static const fsbm::KernelTables t(bins33());
  return t;
}

std::vector<float> spectrum() {
  std::vector<float> g(33, 0.0f);
  Rng rng(7);
  for (int k = 0; k < 20; ++k) {
    g[static_cast<std::size_t>(k)] =
        static_cast<float>(1e-4 * (0.5 + rng.uniform()));
  }
  return g;
}

/// v0's per-cell cost: fill all 20 nkr x nkr interpolated arrays.
void BM_KernalsKsFill(benchmark::State& state) {
  fsbm::CollisionArrays arrays(33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables33().kernals_ks(70000.0, arrays));
  }
  state.SetItemsProcessed(state.iterations() * 20 * 33 * 33);
}
BENCHMARK(BM_KernalsKsFill);

/// v1's per-entry cost: one on-demand interpolation.
void BM_GetCwOnDemand(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables33().get_cw(
        fsbm::CollisionPair::kLS, i % 33, (i / 33) % 33, 70000.0));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetCwOnDemand);

/// One warm-rain collision sweep over a realistic spectrum.
void BM_CollectPairLL(benchmark::State& state) {
  auto base = spectrum();
  fsbm::CoalConfig cfg;
  for (auto _ : state) {
    auto g = base;
    const fsbm::KernelSource ks(tables33(), 70000.0);
    fsbm::PairLane lane{&ks, g.data(), g.data(), g.data(), {}};
    fsbm::collect_pair_lanes(bins33(), fsbm::CollisionPair::kLL,
                             std::span<fsbm::PairLane>(&lane, 1), cfg);
    benchmark::DoNotOptimize(lane.stats);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CollectPairLL);

/// Full cold-cell collision step: all 20 pair classes.
void BM_CoalBottNewColdCell(benchmark::State& state) {
  float buf[(4 + fsbm::kIceMax) * fsbm::kMaxNkr] = {};
  fsbm::CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + 33;
  w.g3 = buf + 33 * (1 + fsbm::kIceMax);
  w.g4 = buf + 33 * (2 + fsbm::kIceMax);
  w.g5 = buf + 33 * (3 + fsbm::kIceMax);
  auto liq = spectrum();
  fsbm::CoalConfig cfg;
  for (auto _ : state) {
    std::copy(liq.begin(), liq.end(), w.fl1);
    for (int k = 4; k < 16; ++k) {
      w.g3[k] = 2e-5f;
      w.g4[k] = 1e-5f;
    }
    const fsbm::KernelSource ks(tables33(), 55000.0);
    benchmark::DoNotOptimize(
        fsbm::coal_bott_new(bins33(), 258.0, ks, w, cfg));
  }
}
BENCHMARK(BM_CoalBottNewColdCell);

/// Bin condensation for one cell.
void BM_Onecond1(benchmark::State& state) {
  float buf[(4 + fsbm::kIceMax) * fsbm::kMaxNkr] = {};
  fsbm::CoalWorkspace w;
  w.fl1 = buf;
  w.g2 = buf + 33;
  w.g3 = buf + 33 * (1 + fsbm::kIceMax);
  w.g4 = buf + 33 * (2 + fsbm::kIceMax);
  w.g5 = buf + 33 * (3 + fsbm::kIceMax);
  auto liq = spectrum();
  fsbm::CondConfig cfg;
  for (auto _ : state) {
    std::copy(liq.begin(), liq.end(), w.fl1);
    double t = 285.0;
    double qv = 1.05 * constants::qsat_liquid(285.0, 90000.0);
    benchmark::DoNotOptimize(
        fsbm::onecond1(bins33(), t, qv, 90000.0, w, cfg));
  }
}
BENCHMARK(BM_Onecond1);

constexpr int kSedNz = 24;

/// A column of sparse random spectra (level-major, bin fastest) plus an
/// exponential density profile, as the sedimentation pass sees them.
void random_sed_column(Rng& rng, std::vector<float>& g,
                       std::vector<double>& rho) {
  g.assign(static_cast<std::size_t>(kSedNz) * 33, 0.0f);
  rho.resize(static_cast<std::size_t>(kSedNz));
  for (int iz = 0; iz < kSedNz; ++iz) {
    rho[static_cast<std::size_t>(iz)] = 1.2 * std::exp(-iz * 0.06);
    for (int k = 8; k < 30; ++k) {
      if (rng.uniform() < 0.4) {
        g[static_cast<std::size_t>(iz) * 33 + k] =
            static_cast<float>(1e-4 * rng.uniform());
      }
    }
  }
}

/// The column solver: density corrections hoisted per level, base fall
/// speeds per bin, courant numbers per (bin, level).
void BM_SedimentColumn(benchmark::State& state) {
  Rng rng(11);
  std::vector<float> base;
  std::vector<double> rho;
  random_sed_column(rng, base, rho);
  fsbm::SedConfig cfg;
  for (auto _ : state) {
    auto g = base;
    benchmark::DoNotOptimize(
        fsbm::sediment_column(bins33(), fsbm::Species::kLiquid, g.data(),
                              rho.data(), kSedNz, cfg));
  }
  state.SetItemsProcessed(state.iterations() * kSedNz * 33);
}
BENCHMARK(BM_SedimentColumn);

/// The 5th/3rd-order advection tendency for one 32^3-ish patch.
void BM_RkScalarTend(benchmark::State& state) {
  grid::Domain d{Range{1, 32}, Range{1, 20}, Range{1, 32}};
  const grid::Patch p = grid::decompose(d, 1, 1, 3)[0];
  Field3D<float> q(p.im, p.k, p.jm, 1.0f);
  Field3D<float> tend(p.im, p.k, p.jm);
  dyn::AnalyticWinds winds;
  winds.domain = d;
  dyn::AdvConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dyn::rk_scalar_tend(p, q, winds, cfg, tend));
  }
  state.SetItemsProcessed(state.iterations() * d.cells());
}
BENCHMARK(BM_RkScalarTend);

/// Per-bin advection of a 33-bin field (what makes WRF scalar transport
/// expensive when FSBM is enabled).
void BM_RkScalarTendBins(benchmark::State& state) {
  grid::Domain d{Range{1, 16}, Range{1, 12}, Range{1, 16}};
  const grid::Patch p = grid::decompose(d, 1, 1, 3)[0];
  Field4D<float> q(33, p.im, p.k, p.jm, 1.0f);
  Field4D<float> tend(33, p.im, p.k, p.jm);
  dyn::AnalyticWinds winds;
  winds.domain = d;
  dyn::AdvConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dyn::rk_scalar_tend_bins(p, q, winds, cfg, tend));
  }
  state.SetItemsProcessed(state.iterations() * d.cells() * 33);
}
BENCHMARK(BM_RkScalarTendBins);

}  // namespace

BENCHMARK_MAIN();
