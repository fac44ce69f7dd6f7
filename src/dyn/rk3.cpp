#include "dyn/rk3.hpp"

#include "obs/trace.hpp"

namespace wrf::dyn {

Rk3::Rk3(const grid::Patch& patch, int nkr, AdvConfig cfg, double dt,
         exec::ExecSpace* exec, HaloMode halo_mode)
    : patch_(patch),
      cfg_(cfg),
      dt_(dt),
      exec_(exec),
      halo_mode_(halo_mode),
      qv0_(patch.ip, patch.k, patch.jp),
      qv_tend_(patch.ip, patch.k, patch.jp) {
  for (auto& f : ff0_) f = Field4D<float>(nkr, patch.ip, patch.k, patch.jp);
  for (auto& f : ff_tend_) {
    f = Field4D<float>(nkr, patch.ip, patch.k, patch.jp);
  }
}

namespace {

/// Copy the computational cells of `q` into `q0` while scanning q's
/// whole memory extent for live bins, in one pass: each (k, j) row of
/// the extent is contiguous (bin-fastest, then i), and so is its
/// computational part.
Range stage0_copy(const grid::Patch& p, const Field4D<float>& q,
                  Field4D<float>& q0) {
  LiveBinScan scan(q.n());
  const auto n = static_cast<std::size_t>(q.n());
  const auto west = static_cast<std::size_t>(p.ip.lo - p.im.lo);
  const auto comp = static_cast<std::size_t>(p.ip.size());
  const auto east = static_cast<std::size_t>(p.im.hi - p.ip.hi);
  for (int j = p.jm.lo; j <= p.jm.hi; ++j) {
    for (int k = p.k.lo; k <= p.k.hi; ++k) {
      const float* row = q.slice(p.im.lo, k, j);
      if (!p.jp.contains(j)) {
        scan.add(row, west + comp + east);
        continue;
      }
      scan.add(row, west);
      scan.add(row + west * n, comp, q0.slice(p.ip.lo, k, j));
      scan.add(row + (west + comp) * n, east);
    }
  }
  return scan.hull();
}

}  // namespace

void HaloFillFn::finish(fsbm::MicroState& s, LiveBins& live) {
  fn_(s);
  for (std::size_t f = 0; f < live.size(); ++f) {
    const Field4D<float>& q = s.ff[f];
    live[f] = hull_union(
        live[f], live_bin_hull(q.data(), q.size() / q.n(), q.n()));
  }
}

void Rk3::tend_range(const exec::Range3& r, fsbm::MicroState& state,
                     const WindTable& winds, Rk3Stats& st) {
  if (r.empty()) return;
  const AdvStats a = rk_scalar_tend(exec_space(), patch_, r, state.qv, winds,
                                    cfg_, qv_tend_);
  st.tend.cells += a.cells;
  st.tend.flops += a.flops;
  // Every species is dispatched, a dead one with an empty bin range, so
  // the launch sequence does not depend on the state.
  for (int s = 0; s < fsbm::kNumSpecies; ++s) {
    tend_bins(r, s, live_[static_cast<std::size_t>(s)], state, winds, st);
  }
}

void Rk3::tend_bins(const exec::Range3& r, int s, const Range& bins,
                    fsbm::MicroState& state, const WindTable& winds,
                    Rk3Stats& st) {
  if (r.empty()) return;
  const auto f = static_cast<std::size_t>(s);
  const AdvStats b = rk_scalar_tend_bins(exec_space(), patch_, r, bins,
                                         state.ff[f], winds, cfg_,
                                         ff_tend_[f]);
  st.tend.cells += b.cells;
  st.tend.flops += b.flops;
}

Rk3Stats Rk3::step(fsbm::MicroState& state, const WindTable& winds,
                   HaloPhases& halo) {
  Rk3Stats st;
  {
    // Stage-0 snapshot of the computational cells (the only ones the
    // updates read), fused with the scan that yields the step's
    // live-bin hulls.
    OBS_SPAN("pass", "rk_stage0");
    for (int j = patch_.jp.lo; j <= patch_.jp.hi; ++j) {
      for (int k = patch_.k.lo; k <= patch_.k.hi; ++k) {
        for (int i = patch_.ip.lo; i <= patch_.ip.hi; ++i) {
          qv0_(i, k, j) = state.qv(i, k, j);
        }
      }
    }
    for (std::size_t s = 0; s < live_.size(); ++s) {
      live_[s] = stage0_copy(patch_, state.ff[s], ff0_[s]);
    }
  }

  const exec::Range3 comp{patch_.ip, patch_.k, patch_.jp};
  const double stage_dt[3] = {dt_ / 3.0, dt_ / 2.0, dt_};
  for (int stage = 0; stage < 3; ++stage) {
    halo.begin(state);
    if (halo_mode_ == HaloMode::kOverlap) {
      // Interior tiles never read halo cells (shell depth = stencil
      // width), so they run while the exchange is in flight; the shell
      // waits for finish.  finish() only writes halo cells, so every
      // cell's tendency sees exactly the q values the sync order would
      // have shown it — bitwise-identical results.
      const exec::Range3 interior = comp.interior(kStencilWidth);
      const LiveBins before = live_;
      tend_range(interior, state, winds, st);
      halo.finish(state, live_);
      for (const auto& piece : comp.shell(kStencilWidth)) {
        tend_range(piece, state, winds, st);
      }
      // Bins that joined the hull in finish() still need their interior
      // tendencies: the update below reads every hull bin.
      for (int s = 0; s < fsbm::kNumSpecies; ++s) {
        const Range& was = before[static_cast<std::size_t>(s)];
        const Range& now = live_[static_cast<std::size_t>(s)];
        if (was.size() == 0) {
          if (now.size() > 0) tend_bins(interior, s, now, state, winds, st);
          continue;
        }
        const Range below{now.lo, was.lo - 1};
        const Range above{was.hi + 1, now.hi};
        if (below.size() > 0) tend_bins(interior, s, below, state, winds, st);
        if (above.size() > 0) tend_bins(interior, s, above, state, winds, st);
      }
    } else {
      halo.finish(state, live_);
      tend_range(comp, state, winds, st);
    }
    exec::ExecSpace& ex = exec_space();
    const AdvStats a = rk_update_scalar(ex, patch_, qv0_, qv_tend_,
                                        stage_dt[stage], state.qv);
    st.update.cells += a.cells;
    st.update.flops += a.flops;
    for (int s = 0; s < fsbm::kNumSpecies; ++s) {
      const auto f = static_cast<std::size_t>(s);
      const AdvStats b = rk_update_scalar_bins(ex, patch_, live_[f], ff0_[f],
                                               ff_tend_[f], stage_dt[stage],
                                               state.ff[f]);
      st.update.cells += b.cells;
      st.update.flops += b.flops;
    }
  }
  return st;
}

}  // namespace wrf::dyn
