#include "fsbm/coal_bott.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "util/constants.hpp"
#include "util/error.hpp"

namespace wrf::fsbm {

namespace {

// Per-lane kernel reads for one pair, indexed by i * nkr + j — one type
// per KernelSource kind, so the sweep's inner loop has no kind branch.
struct PrecomputedKernel {
  const float* cw = nullptr;
  float operator()(std::size_t ij) const { return cw[ij]; }
};
struct LerpKernel {
  const float* t750 = nullptr;
  const float* t500 = nullptr;
  float w = 0.0f;
  float operator()(std::size_t ij) const {
    return KernelTables::lerp(t750[ij], t500[ij], w);
  }
};
struct FmaKernel {
  const float* t750 = nullptr;
  const float* t500 = nullptr;
  float w = 0.0f;
  float operator()(std::size_t ij) const {
    return KernelTables::lerp_fma(t750[ij], t500[ij], w);
  }
};

/// The pairwise collection sweep over `n` <= W lanes in lockstep.  Each
/// lane runs Bott's explicit sequential update of its own bins; for
/// every (j, i) the lanes take their step in turn, so the core overlaps
/// W independent dependency chains.  A lane's `row` bit stands for its
/// `continue` (empty collector row) and `break` (collector drained)
/// exits, so each lane executes exactly its one-cell sequence.
template <int W, class Kernel>
[[gnu::always_inline]] inline void sweep(const BinGrid& bins, bool self,
                                         PairLane* lanes, int n,
                                         const Kernel* kernel,
                                         const CoalConfig& cfg) {
  const int nkr = bins.nkr();
  const double* mass = bins.masses();
  const auto gmin = static_cast<float>(cfg.gmin);
  const double dt = cfg.dt;
  const double max_frac = cfg.max_frac;
  float* ga[W] = {};
  float* gb[W] = {};
  float* gd[W] = {};
  std::uint64_t lookups[W] = {};
  std::uint64_t interactions[W] = {};
  for (int l = 0; l < n; ++l) {
    ga[l] = lanes[l].ga;
    gb[l] = lanes[l].gb;
    gd[l] = lanes[l].gd;
  }

  for (int j = 0; j < nkr; ++j) {
    unsigned row = 0;
    for (int l = 0; l < n; ++l) {
      if (!(gb[l][j] <= gmin)) row |= 1u << l;  // else: skip the row
    }
    if (row == 0) continue;
    const double mj = mass[j];
    // Self-collection covers each unordered pair once (i <= j).
    const int imax = self ? j : nkr - 1;
    for (int i = 0; i <= imax && row != 0; ++i) {
      const double mi = mass[i];
      const std::size_t ij = static_cast<std::size_t>(i) * nkr + j;
      const BinGrid::CoalDest& dest = bins.coal_dest(i, j);
#pragma GCC unroll 4
      for (int l = 0; l < W; ++l) {
        if ((row & (1u << l)) == 0) continue;
        // Re-read both bins: earlier (i,j) events in this sweep may have
        // drained them (explicit sequential update, as in Bott's scheme).
        const float gbj = gb[l][j];
        if (gbj <= gmin) {  // the lane's row is done
          row &= ~(1u << l);
          continue;
        }
        const float gai = ga[l][i];
        if (gai <= gmin) continue;
        const double nb = gbj / mj;
        const double na = gai / mi;
        const double kv = kernel[l](ij);
        ++lookups[l];
        double dn = kv * na * nb * dt;  // collection events / volume
        if (self && i == j) dn *= 0.5;  // unordered same-bin pairs
        if (dn <= 0.0) continue;

        double dma = dn * mi;  // mass leaving collected bin
        double dmb = dn * mj;  // collector mass migrating upward
        // Limit consumption so bins never go negative; scale both sides
        // by the same factor to keep the event count consistent.
        double scale = 1.0;
        if (self && i == j) {
          const double avail = max_frac * gai;
          if (dma + dmb > avail) scale = avail / (dma + dmb);
        } else {
          if (dma > max_frac * gai) scale = max_frac * gai / dma;
          if (dmb > max_frac * gbj) {
            scale = std::min(scale, max_frac * gbj / dmb);
          }
        }
        dma *= scale;
        dmb *= scale;
        dn *= scale;

        ga[l][i] = static_cast<float>(ga[l][i] - dma);
        gb[l][j] = static_cast<float>(gb[l][j] - dmb);

        // Coalesced particles of mass mi+mj: number-and-mass-conserving
        // two-bin split on the destination grid (Kovetz-Olund
        // placement), read from the grid's (i, j) destination table.
        const int kd = dest.kd;
        float* d = gd[l];
        if (kd >= nkr - 1) {
          d[nkr - 1] = static_cast<float>(d[nkr - 1] + dma + dmb);
        } else {
          const double mk = mass[kd];
          const double mk1 = mass[kd + 1];
          const double f = dest.f;
          d[kd] = static_cast<float>(d[kd] + dn * (1.0 - f) * mk);
          d[kd + 1] = static_cast<float>(d[kd + 1] + dn * f * mk1);
        }
        ++interactions[l];
      }
    }
  }
  for (int l = 0; l < n; ++l) {
    CoalStats& st = lanes[l].stats;
    st.kernel_lookups += lookups[l];
    st.interactions += interactions[l];
    st.pairs_active += 1;
    st.flops += 24.0 * static_cast<double>(interactions[l]);
  }
}

// The two clones of each sweep.  The FMA clone turns contraction off:
// with FMA enabled GCC would otherwise fuse the double-precision
// updates and v1's lerp, changing their bits.  Only std::fma (the
// device kernel's lerp_fma) becomes an FMA instruction there, and fmaf
// is correctly rounded, so both clones produce the same bits.
#if defined(__x86_64__) || defined(__i386__)
template <int W, class Kernel>
[[gnu::target("fma"), gnu::optimize("fp-contract=off")]] void sweep_fma(
    const BinGrid& bins, bool self, PairLane* lanes, int n,
    const Kernel* kernel, const CoalConfig& cfg) {
  sweep<W>(bins, self, lanes, n, kernel, cfg);
}

bool cpu_has_fma() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
  }();
  return has;
}
#endif

template <int W, class Kernel>
void sweep_portable(const BinGrid& bins, bool self, PairLane* lanes, int n,
                    const Kernel* kernel, const CoalConfig& cfg) {
  sweep<W>(bins, self, lanes, n, kernel, cfg);
}

/// One lane (the v0/v1 host passes, and a range's last group of one)
/// runs a width-1 instantiation: kCoalLanes wide with one live lane
/// ran a v1 storm patch's coal ~7% slower and a cold-cell collision
/// step ~13% slower (4-CPU x86 host, one pinned core).
template <class Kernel>
void run_sweep(const BinGrid& bins, bool self, std::span<PairLane> lanes,
               const Kernel* kernel, const CoalConfig& cfg) {
  const int n = static_cast<int>(lanes.size());
#if defined(__x86_64__) || defined(__i386__)
  if (cpu_has_fma()) {
    if (n == 1) return sweep_fma<1>(bins, self, lanes.data(), n, kernel, cfg);
    return sweep_fma<kCoalLanes>(bins, self, lanes.data(), n, kernel, cfg);
  }
#endif
  if (n == 1) {
    return sweep_portable<1>(bins, self, lanes.data(), n, kernel, cfg);
  }
  sweep_portable<kCoalLanes>(bins, self, lanes.data(), n, kernel, cfg);
}

/// Workspace slots a coal_bott_new interaction names.
enum Slot : int { kFl1, kIce1, kIce2, kIce3, kG3, kG4, kG5, kNumSlots };

/// coal_bott_new's sweeps in call order: pair, collected slot,
/// collector slot, destination slot.
struct PairCall {
  CollisionPair pair;
  Slot a, b, d;
};
constexpr PairCall kPairCalls[kNumPairs] = {
    // Warm-rain collision-coalescence runs whenever the routine is
    // called (the TT > 223.15 gate lives at the call site, Listing 1);
    // every later sweep only below freezing.
    {CollisionPair::kLL, kFl1, kFl1, kFl1},
    // Riming: supercooled liquid collected by the precipitating ice
    // classes; mass lands in the collector class.
    {CollisionPair::kLS, kFl1, kG3, kG3},
    {CollisionPair::kLG, kFl1, kG4, kG4},
    {CollisionPair::kLH, kFl1, kG5, kG5},
    // Drop-crystal riming: heavily rimed crystals feed graupel.
    {CollisionPair::kLI1, kFl1, kIce1, kG4},
    {CollisionPair::kLI2, kFl1, kIce2, kG4},
    {CollisionPair::kLI3, kFl1, kIce3, kG4},
    // Aggregation: crystals and snow build snow.
    {CollisionPair::kSS, kG3, kG3, kG3},
    {CollisionPair::kSI1, kIce1, kG3, kG3},
    {CollisionPair::kSI2, kIce2, kG3, kG3},
    {CollisionPair::kSI3, kIce3, kG3, kG3},
    {CollisionPair::kII1, kIce1, kIce1, kG3},
    {CollisionPair::kII2, kIce2, kIce2, kG3},
    {CollisionPair::kII3, kIce3, kIce3, kG3},
    // Graupel/hail interactions.
    {CollisionPair::kSG, kG3, kG4, kG4},
    {CollisionPair::kSH, kG3, kG5, kG5},
    {CollisionPair::kGG, kG4, kG4, kG4},
    {CollisionPair::kGH, kG4, kG5, kG5},
    {CollisionPair::kHH, kG5, kG5, kG5},
    {CollisionPair::kIG, kIce1, kG4, kG4},
};

void accumulate(CoalStats& into, const CoalStats& s) {
  into.kernel_lookups += s.kernel_lookups;
  into.interactions += s.interactions;
  into.pairs_active += s.pairs_active;
  into.flops += s.flops;
}

}  // namespace

void collect_pair_lanes(const BinGrid& bins, CollisionPair pair,
                        std::span<PairLane> lanes, const CoalConfig& cfg) {
  if (lanes.empty() || lanes.size() > static_cast<std::size_t>(kCoalLanes)) {
    throw ConfigError("collect_pair_lanes: 1.." + std::to_string(kCoalLanes) +
                      " lanes, got " + std::to_string(lanes.size()));
  }
  const KernelSource& ks0 = *lanes[0].ks;
  const bool self = lanes[0].ga == lanes[0].gb;
  for (const PairLane& l : lanes) {
    if ((l.ga == l.gb) != self ||
        (l.ks->precomputed() != nullptr) != (ks0.precomputed() != nullptr) ||
        l.ks->device_fma() != ks0.device_fma()) {
      throw ConfigError(
          "collect_pair_lanes: lanes mix self and cross collection or "
          "kernel source kinds");
    }
  }
  const std::size_t n = lanes.size();
  if (ks0.precomputed() != nullptr) {
    PrecomputedKernel k[kCoalLanes];
    for (std::size_t l = 0; l < n; ++l) {
      k[l].cw = lanes[l].ks->precomputed()->cw[static_cast<std::size_t>(pair)]
                    .data();
    }
    return run_sweep(bins, self, lanes, k, cfg);
  }
  const auto tables = [&](auto* k) {
    for (std::size_t l = 0; l < n; ++l) {
      const KernelTables& t = *lanes[l].ks->tables();
      k[l].t750 = t.table_ptr(pair, /*level_750mb=*/true);
      k[l].t500 = t.table_ptr(pair, /*level_750mb=*/false);
      k[l].w = lanes[l].ks->weight();
    }
  };
  if (ks0.device_fma()) {
    FmaKernel k[kCoalLanes];
    tables(k);
    return run_sweep(bins, self, lanes, k, cfg);
  }
  LerpKernel k[kCoalLanes];
  tables(k);
  run_sweep(bins, self, lanes, k, cfg);
}

void coal_bott_lanes(const BinGrid& bins, std::span<CoalLane> lanes,
                     const CoalConfig& cfg) {
  if (lanes.empty() || lanes.size() > static_cast<std::size_t>(kCoalLanes)) {
    throw ConfigError("coal_bott_lanes: 1.." + std::to_string(kCoalLanes) +
                      " lanes, got " + std::to_string(lanes.size()));
  }
  const int nkr = bins.nkr();
  for (const PairCall& call : kPairCalls) {
    PairLane pl[kCoalLanes];
    CoalLane* owner[kCoalLanes] = {};
    std::size_t n = 0;
    for (CoalLane& c : lanes) {
      if (call.pair != CollisionPair::kLL && !(c.temp_k < constants::kT0)) {
        continue;  // warm cell: liquid-liquid only
      }
      float* const slot[kNumSlots] = {
          c.w.fl1, c.w.g2, c.w.g2 + nkr, c.w.g2 + 2 * nkr,
          c.w.g3,  c.w.g4, c.w.g5};
      pl[n].ks = &c.ks;
      pl[n].ga = slot[call.a];
      pl[n].gb = slot[call.b];
      pl[n].gd = slot[call.d];
      owner[n++] = &c;
    }
    if (n == 0) continue;
    collect_pair_lanes(bins, call.pair, std::span<PairLane>(pl, n), cfg);
    for (std::size_t l = 0; l < n; ++l) {
      accumulate(owner[l]->stats, pl[l].stats);
    }
  }
}

CoalStats coal_bott_new(const BinGrid& bins, double temp_k,
                        const KernelSource& ks, const CoalWorkspace& w,
                        const CoalConfig& cfg) {
  CoalLane lane;
  lane.temp_k = temp_k;
  lane.ks = ks;
  lane.w = w;
  coal_bott_lanes(bins, std::span<CoalLane>(&lane, 1), cfg);
  return lane.stats;
}

}  // namespace wrf::fsbm
