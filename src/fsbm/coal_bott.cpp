#include "fsbm/coal_bott.hpp"

#include <algorithm>
#include <cmath>

#include "util/constants.hpp"

namespace wrf::fsbm {

CoalStats collect_pair(const BinGrid& bins, CollisionPair pair,
                       const KernelSource& ks, float* ga, float* gb,
                       float* gd, const CoalConfig& cfg) {
  CoalStats st;
  const int nkr = bins.nkr();
  const bool self = (ga == gb);
  const auto gmin = static_cast<float>(cfg.gmin);

  const std::uint64_t lookups_before = ks.lookups();
  for (int j = 0; j < nkr; ++j) {
    if (gb[j] <= gmin) continue;  // empty collector: skip the whole row
    const double mj = bins.mass(j);
    // Self-collection covers each unordered pair once (i <= j).
    const int imax = self ? j : nkr - 1;
    for (int i = 0; i <= imax; ++i) {
      // Re-read both bins: earlier (i,j) events in this sweep may have
      // drained them (explicit sequential update, as in Bott's scheme).
      const float gbj = gb[j];
      if (gbj <= gmin) break;
      const float gai = ga[i];
      if (gai <= gmin) continue;
      const double nb = gbj / mj;
      const double mi = bins.mass(i);
      const double na = gai / mi;
      const double kv = ks.k(pair, i, j);
      double dn = kv * na * nb * cfg.dt;  // collection events / volume
      if (self && i == j) dn *= 0.5;      // unordered same-bin pairs
      if (dn <= 0.0) continue;

      double dma = dn * mi;  // mass leaving collected bin
      double dmb = dn * mj;  // collector mass migrating upward
      // Limit consumption so bins never go negative; scale both sides by
      // the same factor to keep the event count consistent.
      double scale = 1.0;
      if (self && i == j) {
        const double avail = cfg.max_frac * gai;
        if (dma + dmb > avail) scale = avail / (dma + dmb);
      } else {
        if (dma > cfg.max_frac * gai) scale = cfg.max_frac * gai / dma;
        if (dmb > cfg.max_frac * gbj) {
          scale = std::min(scale, cfg.max_frac * gbj / dmb);
        }
      }
      dma *= scale;
      dmb *= scale;
      dn *= scale;

      ga[i] = static_cast<float>(ga[i] - dma);
      gb[j] = static_cast<float>(gb[j] - dmb);

      // Coalesced particles of mass mi+mj: number-and-mass-conserving
      // two-bin split on the destination grid (Kovetz-Olund placement),
      // read from the grid's (i, j) destination table.
      const BinGrid::CoalDest& dest = bins.coal_dest(i, j);
      const int kd = dest.kd;
      if (kd >= nkr - 1) {
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
  st.kernel_lookups = ks.lookups() - lookups_before;
  ++st.pairs_active;
  return st;
}

namespace {

void accumulate(CoalStats& into, const CoalStats& s) {
  into.kernel_lookups += s.kernel_lookups;
  into.interactions += s.interactions;
  into.pairs_active += s.pairs_active;
  into.flops += s.flops;
}

}  // namespace

CoalStats coal_bott_new(const BinGrid& bins, double temp_k,
                        const KernelSource& ks, const CoalWorkspace& w,
                        const CoalConfig& cfg) {
  CoalStats st;
  const int nkr = bins.nkr();
  float* ice1 = w.g2;              // columnar
  float* ice2 = w.g2 + nkr;        // plates
  float* ice3 = w.g2 + 2 * nkr;    // dendrites

  // Warm-rain collision-coalescence runs whenever the routine is called
  // (the TT > 223.15 gate lives at the call site, Listing 1).
  accumulate(st, collect_pair(bins, CollisionPair::kLL, ks, w.fl1, w.fl1,
                              w.fl1, cfg));

  if (temp_k < constants::kT0) {
    // Riming: supercooled liquid collected by the precipitating ice
    // classes; mass lands in the collector class.
    accumulate(st, collect_pair(bins, CollisionPair::kLS, ks, w.fl1, w.g3,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kLG, ks, w.fl1, w.g4,
                                w.g4, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kLH, ks, w.fl1, w.g5,
                                w.g5, cfg));
    // Drop-crystal riming: heavily rimed crystals feed graupel.
    accumulate(st, collect_pair(bins, CollisionPair::kLI1, ks, w.fl1, ice1,
                                w.g4, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kLI2, ks, w.fl1, ice2,
                                w.g4, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kLI3, ks, w.fl1, ice3,
                                w.g4, cfg));
    // Aggregation: crystals and snow build snow.
    accumulate(st, collect_pair(bins, CollisionPair::kSS, ks, w.g3, w.g3,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kSI1, ks, ice1, w.g3,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kSI2, ks, ice2, w.g3,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kSI3, ks, ice3, w.g3,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kII1, ks, ice1, ice1,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kII2, ks, ice2, ice2,
                                w.g3, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kII3, ks, ice3, ice3,
                                w.g3, cfg));
    // Graupel/hail interactions.
    accumulate(st, collect_pair(bins, CollisionPair::kSG, ks, w.g3, w.g4,
                                w.g4, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kSH, ks, w.g3, w.g5,
                                w.g5, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kGG, ks, w.g4, w.g4,
                                w.g4, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kGH, ks, w.g4, w.g5,
                                w.g5, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kHH, ks, w.g5, w.g5,
                                w.g5, cfg));
    accumulate(st, collect_pair(bins, CollisionPair::kIG, ks, ice1, w.g4,
                                w.g4, cfg));
  }
  return st;
}

}  // namespace wrf::fsbm
