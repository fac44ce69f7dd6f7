#pragma once
// The autotuner: perfmodel prior + measured successive halving.
//
// One Tuner::tune(base) call answers "which performance-neutral knobs
// (exec/halo/res/fuse) make this shape fastest on this machine?":
//
//   1. PROBE.  One short run of the base config with canonical knobs
//      (res=step, fuse=off — the unamortized work profile) distills the
//      counted work — FLOPs per pass, transfer bytes, halo traffic,
//      launches — into a perfmodel::KnobWork.  Work counts, not wall time: they are
//      knob-invariant by the bitwise-equivalence contracts.
//
//   2. PRIOR.  perfmodel::knob_prior_step_seconds prices every point of
//      the enumerated SearchSpace in microseconds of model evaluation.
//      The cheapest `prior_keep` advance (the base config's own knobs
//      always do — the tuner never declares a winner it has not
//      measured the baseline against).
//
//   3. CORRECTOR.  Successive halving over `rung_steps`: every survivor
//      is measured at rung r's step count with adaptive repetitions
//      (tune::measure_reps — repeat until the wall-time CV drops under
//      MeasurePolicy::target_cv or the rep cap), then the faster half
//      (by min wall) advances to the next, longer rung.  The winner is
//      the argmin on the final rung; the full ladder is recorded in the
//      artifact so "why did X lose" is answerable after the fact.
//
// Measurement runs force obs=off and tune=off (no recursion, no
// exporter overhead); physics is untouched by construction — only
// KnobSet dimensions are ever varied.

#include "model/driver.hpp"
#include "perfmodel/knobprior.hpp"
#include "tune/artifact.hpp"
#include "tune/measure.hpp"
#include "tune/space.hpp"

namespace wrf::tune {

struct TunerOptions {
  /// Search-space points advanced to the first measured rung (the
  /// perfmodel prior prunes the rest unmeasured).
  int prior_keep = 12;
  /// Per-run step counts of the successive-halving rungs, shortest
  /// first.  The last entry is the deciding rung.
  std::vector<int> rung_steps = {1, 2, 4};
  /// Adaptive repetition policy applied at every rung.
  MeasurePolicy policy;
  /// Steps in the work-profile probe run.
  int probe_steps = 1;
};

/// Everything one tuning run produced.
struct TuneReport {
  model::RunConfig base;      ///< the config that was tuned (tune/obs off)
  model::RunConfig winner;    ///< base with the winning knobs applied
  TunedEntry entry;           ///< artifact entry (winner + ladder)
  Artifact artifact;          ///< machine fingerprint + [entry]
  perfmodel::KnobWork work;   ///< the probe's distilled work profile
  int space_size = 0;         ///< enumerated points before pruning
  int measured_points = 0;    ///< points that reached any rung
  int measured_runs = 0;      ///< total timed runs across all rungs
};

class Tuner {
 public:
  explicit Tuner(TunerOptions opts = {});

  /// Tune one config's shape.  Throws ConfigError on an invalid base.
  TuneReport tune(const model::RunConfig& base) const;

  /// The probe step alone: run `base` briefly (canonical knobs) and
  /// distill the work profile the prior prices.  Exposed for tests.
  perfmodel::KnobWork probe(const model::RunConfig& base) const;

  const TunerOptions& options() const noexcept { return opts_; }

 private:
  TunerOptions opts_;
};

}  // namespace wrf::tune
