#pragma once
// The tuned.json artifact: what a tuner run leaves behind and what the
// `tune=` knob loads back.
//
// Versioned schema (kArtifactSchemaVersion).  One artifact holds tuned
// entries for any number of shapes, each keyed by tune::shape_key and
// carrying the winning knob string, the winner's measured statistics on
// the deciding rung (min/median/CV, reps, steps), the untuned point's
// throughput for reference, the full successive-halving ladder, and the
// machine fingerprint the numbers were measured on.  Loading is strict:
// a missing file (under tune=file:), a schema mismatch, or malformed
// JSON throws; an artifact that simply has no entry for a config's
// shape applies nothing (the artifact is a cache — an absent entry
// means "not tuned yet", not an error).

#include <cstdint>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "tune/measure.hpp"
#include "tune/space.hpp"

namespace wrf::tune {

/// 2: knob strings no longer carry `sed=` (the knob is gone), so a
/// version-1 artifact's winners would not parse.
inline constexpr int kArtifactSchemaVersion = 2;

/// What the numbers were measured on.  Trajectory points and artifacts
/// carry this so entries from different hosts are never conflated.
struct MachineFingerprint {
  int hw_threads = 0;
  std::string device;  ///< gpu::DeviceSpec::name of the modeled device

  bool operator==(const MachineFingerprint& o) const noexcept {
    return hw_threads == o.hw_threads && device == o.device;
  }
};

/// Fingerprint of this process's machine (hardware concurrency) and the
/// given device model.
MachineFingerprint local_fingerprint(const std::string& device_name);

/// One configuration's measurement inside one rung.
struct RungPoint {
  std::string knobs;
  RepAggregate wall;               ///< whole-run seconds at `Rung::steps`
  double cellsteps_per_s = 0.0;    ///< cells * steps / wall.min
  double prior_ms_per_step = 0.0;  ///< perfmodel prior (rung 0 only)
  bool survived = false;           ///< advanced to the next rung
};

/// One successive-halving rung: every surviving config measured at the
/// same step count under the same CV policy.
struct Rung {
  int rung = 0;
  int steps = 0;
  double target_cv = 0.0;
  std::vector<RungPoint> points;
};

/// The tuned result for one shape.
struct TunedEntry {
  std::string shape;  ///< tune::shape_key of the configs this applies to
  std::string knobs;  ///< winning KnobSet::describe() string
  int steps = 0;      ///< deciding rung's per-run step count
  RepAggregate wall;  ///< winner's aggregate on the deciding rung
  double cellsteps_per_s = 0.0;
  /// The untuned (base-config) point's throughput on the last rung it
  /// was measured in — the "what did tuning buy" reference.
  double baseline_cellsteps_per_s = 0.0;
  std::vector<Rung> ladder;
};

struct Artifact {
  int schema_version = kArtifactSchemaVersion;
  MachineFingerprint machine;
  std::vector<TunedEntry> entries;

  /// Entry for a shape key, or nullptr.
  const TunedEntry* find(const std::string& shape) const noexcept;
  /// Replace the same-shape entry or append.
  void upsert(TunedEntry entry);
};

/// Write the artifact as JSON.  Throws IoError on failure.
void write_artifact(const std::string& path, const Artifact& artifact);

/// Load and validate an artifact.  Throws IoError when the file cannot
/// be read, ConfigError on malformed JSON, a mistyped or non-integral
/// value, or a schema-version mismatch; a ConfigError names the file
/// and, for a bad value, its node (`node /entries/0/steps`).
Artifact load_artifact(const std::string& path);

/// Apply the artifact entry matching `cfg`'s shape: parse its knob
/// string and overwrite the tunable knobs.  Returns false (config
/// untouched) when no entry matches.
bool apply_artifact(model::RunConfig& cfg, const Artifact& artifact);

/// Resolve cfg.tune in place: off is a no-op; file:<path> loads the
/// artifact (errors propagate) and applies the matching entry; auto
/// applies kDefaultArtifactPath if the file exists (a missing file is a
/// no-op, a malformed one still throws).  The spec itself is left on
/// the config — only the tunable knobs change, so the run is bitwise
/// identical to the same knobs set explicitly.  Returns true iff an
/// entry was applied.  model::run_simulation / run_single call this at
/// entry, making the knob effective for every caller (examples,
/// benches, service lanes).
bool apply(model::RunConfig& cfg);

}  // namespace wrf::tune
