#pragma once
// WRF's 3-stage Runge-Kutta scalar transport driver.
//
// Each model step advects vapor and all nkr x species bin distributions
// with the ARW staging: q1 = q0 + dt/3 L(q0); q2 = q0 + dt/2 L(q1);
// q(t+dt) = q0 + dt L(q2).  Halos must be refreshed before every stage's
// tendency evaluation; the caller supplies that as a *phased* interface
// (`HaloPhases`): `begin` posts the communication, `finish` completes
// it.  Under HaloMode::kSync the driver calls begin+finish back to back
// and then evaluates the full tendency range (the classic blocking
// exchange).  Under HaloMode::kOverlap it evaluates interior tiles —
// safe with stale halos because the widest stencil reads kStencilWidth
// cells — between the two phases, then the shell tiles after finish:
// WRF's comms/compute overlap.  Tile geometry and order are a pure
// function of the range (Range3::interior / Range3::shell), and cells
// write only their own tendency, so both modes are bitwise identical.
// The bin tendency kernel computes each face flux once and carries it
// to the neighbour within a slab tile; both neighbours of a face would
// compute the same doubles, so the sub-ranges of either mode yield the
// same tendencies as one full-range sweep.
//
// Only live bins are advected.  Rk3 keeps, per species, a live-bin
// hull [lo, hi] covering every bin that holds a non-zero bit pattern
// anywhere in the patch's memory extent (a stored -0.0 counts as live;
// lo > hi means the species is dead).  Outside the hull every value is
// +0.0, the tendency of an all-+0.0 stencil is a signed zero, and the
// update max(0, q0 + dt tend) of a +0.0 q0 writes +0.0 again — so
// skipping those bins is bitwise exact.  The hull is computed once per
// step by the scan fused into the stage-0 copy and only widens within a
// step: each HaloPhases::finish reports the bins its halo writes
// brought in.

#include <array>
#include <functional>
#include <utility>

#include "dyn/advection.hpp"
#include "fsbm/state.hpp"

namespace wrf::dyn {

/// The `halo=` knob: blocking exchange vs comms/compute overlap.  Its
/// names live in the knob table (model/knobs.hpp).
enum class HaloMode : int { kSync = 0, kOverlap = 1 };

/// Per-species live-bin hulls (see the header comment).
using LiveBins = std::array<Range, fsbm::kNumSpecies>;

/// Phased halo refresh.  `begin(state)` must post all communication for
/// one exchange round (and may complete local work); after
/// `finish(state, live)` every advected field must have valid halos,
/// and `live[s]` must cover every bin of species s that finish wrote a
/// non-zero bit pattern into.  Between the two, callers may only touch
/// cells at least kStencilWidth inside the computational range.
class HaloPhases {
 public:
  virtual ~HaloPhases() = default;
  virtual void begin(fsbm::MicroState& s) = 0;
  virtual void finish(fsbm::MicroState& s, LiveBins& live) = 0;
};

/// Adapts a plain "fill everything" callback to the phased interface by
/// running it entirely in finish() — the legacy blocking shape, used by
/// single-patch tests where the refresh is just a boundary fill.  The
/// callback may write anything, so finish rescans every bin field.
class HaloFillFn final : public HaloPhases {
 public:
  explicit HaloFillFn(std::function<void(fsbm::MicroState&)> fn)
      : fn_(std::move(fn)) {}
  void begin(fsbm::MicroState&) override {}
  void finish(fsbm::MicroState& s, LiveBins& live) override;

 private:
  std::function<void(fsbm::MicroState&)> fn_;
};

struct Rk3Stats {
  AdvStats tend;    ///< accumulated rk_scalar_tend work (live bins only)
  AdvStats update;  ///< accumulated rk_update_scalar work (live bins only)
};

/// Per-patch RK3 transport.  Owns the stage-0 copies and tendency
/// buffers (sized once; a rank reuses them every step).
class Rk3 {
 public:
  /// `exec` selects how tendency/update nests are dispatched; nullptr
  /// means exec::serial().  `halo_mode` picks blocking vs overlapped
  /// stage exchanges (bitwise-identical results either way).
  Rk3(const grid::Patch& patch, int nkr, AdvConfig cfg, double dt,
      exec::ExecSpace* exec = nullptr, HaloMode halo_mode = HaloMode::kSync);

  /// Advance qv and the live bins of every bin field one step.
  /// `halo.begin/finish` are invoked once per stage, bracketing the
  /// interior tendencies under kOverlap.  `winds` must be tabulated on
  /// this Rk3's patch.
  Rk3Stats step(fsbm::MicroState& state, const WindTable& winds,
                HaloPhases& halo);

  HaloMode halo_mode() const noexcept { return halo_mode_; }

  /// The live-bin hulls the last step ended with.
  const LiveBins& live_bins() const noexcept { return live_; }

 private:
  exec::ExecSpace& exec_space() const noexcept {
    return exec_ != nullptr ? *exec_ : exec::serial();
  }

  /// Tendencies of qv and of the live bins of every species over one
  /// sub-range.
  void tend_range(const exec::Range3& r, fsbm::MicroState& state,
                  const WindTable& winds, Rk3Stats& st);
  /// Tendency of the bins `bins` of species `s` over one sub-range.
  void tend_bins(const exec::Range3& r, int s, const Range& bins,
                 fsbm::MicroState& state, const WindTable& winds,
                 Rk3Stats& st);

  grid::Patch patch_;
  AdvConfig cfg_;
  double dt_;
  exec::ExecSpace* exec_ = nullptr;
  HaloMode halo_mode_ = HaloMode::kSync;
  /// Stage-0 copies and tendencies, over the computational cells only
  /// (all the updates read).  ff0_ holds every bin; ff_tend_ is valid
  /// for the bins of the current hulls only.
  Field3D<float> qv0_, qv_tend_;
  std::array<Field4D<float>, fsbm::kNumSpecies> ff0_, ff_tend_;
  LiveBins live_;
};

}  // namespace wrf::dyn
