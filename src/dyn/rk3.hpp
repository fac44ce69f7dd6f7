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

#include <array>
#include <functional>
#include <string>
#include <utility>

#include "dyn/advection.hpp"
#include "fsbm/state.hpp"

namespace wrf::dyn {

/// The `halo=` knob: blocking exchange vs comms/compute overlap.
enum class HaloMode : int { kSync = 0, kOverlap = 1 };

/// Parse "sync" | "overlap"; throws ConfigError on anything else.
HaloMode parse_halo_mode(const std::string& s);
const char* halo_mode_name(HaloMode m) noexcept;

/// Scan argv for a `halo=<mode>` argument (any position); returns kSync
/// when absent.  Shared by the examples and benches, like
/// exec::exec_from_args.
HaloMode halo_mode_from_args(int argc, char** argv);

/// Phased halo refresh.  `begin(state)` must post all communication for
/// one exchange round (and may complete local work); after
/// `finish(state)` every advected field must have valid halos.  Between
/// the two, callers may only touch cells at least kStencilWidth inside
/// the computational range.
class HaloPhases {
 public:
  virtual ~HaloPhases() = default;
  virtual void begin(fsbm::MicroState& s) = 0;
  virtual void finish(fsbm::MicroState& s) = 0;
};

/// Adapts a plain "fill everything" callback to the phased interface by
/// running it entirely in finish() — the legacy blocking shape, used by
/// single-patch tests where the refresh is just a boundary fill.
class HaloFillFn final : public HaloPhases {
 public:
  explicit HaloFillFn(std::function<void(fsbm::MicroState&)> fn)
      : fn_(std::move(fn)) {}
  void begin(fsbm::MicroState&) override {}
  void finish(fsbm::MicroState& s) override { fn_(s); }

 private:
  std::function<void(fsbm::MicroState&)> fn_;
};

struct Rk3Stats {
  AdvStats tend;    ///< accumulated rk_scalar_tend work
  AdvStats update;  ///< accumulated rk_update_scalar work
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

  /// Advance qv and all bin fields one step.  `halo.begin/finish` are
  /// invoked once per stage, bracketing the interior tendencies under
  /// kOverlap.
  Rk3Stats step(fsbm::MicroState& state, const AnalyticWinds& winds,
                HaloPhases& halo);

  HaloMode halo_mode() const noexcept { return halo_mode_; }

 private:
  exec::ExecSpace& exec_space() const noexcept {
    return exec_ != nullptr ? *exec_ : exec::serial();
  }

  /// Tendencies of qv and every bin field over one sub-range.
  void tend_range(const exec::Range3& r, fsbm::MicroState& state,
                  const AnalyticWinds& winds, Rk3Stats& st);

  grid::Patch patch_;
  AdvConfig cfg_;
  double dt_;
  exec::ExecSpace* exec_ = nullptr;
  HaloMode halo_mode_ = HaloMode::kSync;
  Field3D<float> qv0_, qv_tend_;
  std::array<Field4D<float>, fsbm::kNumSpecies> ff0_, ff_tend_;
};

}  // namespace wrf::dyn
