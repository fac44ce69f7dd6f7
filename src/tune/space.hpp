#pragma once
// The tunable knob subset and the legal search space over it.
//
// A KnobSet is the slice of model::RunConfig the tuner may touch: the
// knob table's tunable rows (exec/halo/res/fuse, including the numeric
// sub-dimensions threads:N / hetero:N).  Every one of them is
// covered by a bitwise-equivalence gate elsewhere in the tree
// (tests/test_exec.cpp, test_halo_overlap.cpp, test_fusion.cpp), which
// is precisely what makes them tunable: swapping them changes speed,
// never physics.
// Physics selections — version, phys, grid, dt, nkr — are deliberately
// NOT dimensions; they are part of the shape_key a tuned entry is
// filed under.
//
// The describe() <-> parse() round trip on KnobSet is the loadability
// contract of tuned.json artifacts (tests/test_tune.cpp): whatever a
// tuner run renders, a later run must re-parse to the identical knobs.

#include <string>
#include <vector>

#include "model/config.hpp"

namespace wrf::tune {

/// The performance-neutral knobs of one configuration point: the knob
/// table's tunable rows, held in a RunConfig (other fields default).
struct KnobSet {
  model::RunConfig cfg;

  /// Extract the tunable slice of a config.
  static KnobSet of(const model::RunConfig& cfg);

  /// Write this slice back onto a config (nothing else is touched).
  void apply_to(model::RunConfig& cfg) const;

  /// Render as the knob-string syntax the artifact stores:
  ///   "exec=threads:4 halo=sync res=persist fuse=auto"
  std::string describe() const;

  /// Parse a knob string: whitespace-separated key=value tokens, each
  /// key a tunable row, at most once; values go through the rows'
  /// parsers.  Missing keys keep defaults.  Throws ConfigError on
  /// unknown or untunable keys, duplicates, or bad values.
  static KnobSet parse(const std::string& s);

  bool operator==(const KnobSet& o) const;
};

/// What a tuned entry is keyed by: everything that defines the workload
/// but none of the tunable knobs.  Two configs with equal shape keys
/// want the same winner on the same machine.
std::string shape_key(const model::RunConfig& cfg);

/// The legal knob grid for one base config on one machine, enumerated
/// with the validity constraints applied up front instead of filtered
/// out later:
///   - exec=device / exec=hetero:N, res=persist, and fuse=auto only
///     appear for offloaded versions (they are inert or pure overhead
///     for the host-only chain);
///   - halo=overlap only appears for multi-rank configs (single-rank
///     runs have no exchange to overlap);
///   - thread counts are derived from the machine's hardware
///     concurrency (plus an oversubscribed point — on a busy host the
///     measured rung, not the enumeration, decides), capped at
///     model::kMaxExecThreads.
/// The base config's own KnobSet is always point [0], so the tuner can
/// never return something worse than "untuned" without having measured
/// it.
struct SearchSpace {
  std::vector<KnobSet> points;

  static SearchSpace enumerate(const model::RunConfig& base, int hw_threads);

  bool contains(const KnobSet& k) const noexcept;
};

}  // namespace wrf::tune
