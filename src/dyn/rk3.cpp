#include "dyn/rk3.hpp"

namespace wrf::dyn {

HaloMode parse_halo_mode(const std::string& s) {
  if (s == "sync") return HaloMode::kSync;
  if (s == "overlap") return HaloMode::kOverlap;
  throw ConfigError("HaloMode: unknown halo mode '" + s +
                    "' (want sync | overlap)");
}

const char* halo_mode_name(HaloMode m) noexcept {
  return m == HaloMode::kOverlap ? "overlap" : "sync";
}

HaloMode halo_mode_from_args(int argc, char** argv) {
  const std::string prefix = "halo=";
  for (int a = 1; a < argc; ++a) {
    const std::string s = argv[a];
    if (s.rfind(prefix, 0) == 0) {
      return parse_halo_mode(s.substr(prefix.size()));
    }
  }
  return HaloMode::kSync;
}

Rk3::Rk3(const grid::Patch& patch, int nkr, AdvConfig cfg, double dt,
         exec::ExecSpace* exec, HaloMode halo_mode)
    : patch_(patch),
      cfg_(cfg),
      dt_(dt),
      exec_(exec),
      halo_mode_(halo_mode),
      qv0_(patch.im, patch.k, patch.jm),
      qv_tend_(patch.im, patch.k, patch.jm) {
  for (auto& f : ff0_) f = Field4D<float>(nkr, patch.im, patch.k, patch.jm);
  for (auto& f : ff_tend_) {
    f = Field4D<float>(nkr, patch.im, patch.k, patch.jm);
  }
}

void Rk3::tend_range(const exec::Range3& r, fsbm::MicroState& state,
                     const AnalyticWinds& winds, Rk3Stats& st) {
  if (r.empty()) return;
  exec::ExecSpace& ex = exec_space();
  const AdvStats a =
      rk_scalar_tend(ex, patch_, r, state.qv, winds, cfg_, qv_tend_);
  st.tend.cells += a.cells;
  st.tend.flops += a.flops;
  for (int s = 0; s < fsbm::kNumSpecies; ++s) {
    const AdvStats b = rk_scalar_tend_bins(
        ex, patch_, r, state.ff[static_cast<std::size_t>(s)], winds, cfg_,
        ff_tend_[static_cast<std::size_t>(s)]);
    st.tend.cells += b.cells;
    st.tend.flops += b.flops;
  }
}

Rk3Stats Rk3::step(fsbm::MicroState& state, const AnalyticWinds& winds,
                   HaloPhases& halo) {
  Rk3Stats st;
  // Stage-0 snapshot (copy the whole memory extent: halos included so
  // updates into q can be re-based on q0 without re-exchange).
  qv0_ = state.qv;
  for (int s = 0; s < fsbm::kNumSpecies; ++s) {
    ff0_[static_cast<std::size_t>(s)] = state.ff[static_cast<std::size_t>(s)];
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
      tend_range(comp.interior(kStencilWidth), state, winds, st);
      halo.finish(state);
      for (const auto& piece : comp.shell(kStencilWidth)) {
        tend_range(piece, state, winds, st);
      }
    } else {
      halo.finish(state);
      tend_range(comp, state, winds, st);
    }
    exec::ExecSpace& ex = exec_space();
    const AdvStats a = rk_update_scalar(ex, patch_, qv0_, qv_tend_,
                                        stage_dt[stage], state.qv);
    st.update.cells += a.cells;
    st.update.flops += a.flops;
    for (int s = 0; s < fsbm::kNumSpecies; ++s) {
      const AdvStats b = rk_update_scalar_bins(
          ex, patch_, ff0_[static_cast<std::size_t>(s)],
          ff_tend_[static_cast<std::size_t>(s)], stage_dt[stage],
          state.ff[static_cast<std::size_t>(s)]);
      st.update.cells += b.cells;
      st.update.flops += b.flops;
    }
  }
  return st;
}

}  // namespace wrf::dyn
