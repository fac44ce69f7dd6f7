#pragma once
// The `tune=` knob: how a run picks its performance knobs.
//
// Kept free of model/ includes so model::RunConfig can embed a TuneSpec
// the same way it embeds obs::ObsConfig; the heavy machinery (knob
// strings, the search space, artifacts, the tuner itself) lives in the
// sibling headers, which depend on model/config.hpp.

#include <string>

namespace wrf::tune {

enum class TuneMode : int {
  kOff = 0,   ///< run exactly the knobs the config carries (default)
  kAuto = 1,  ///< apply kDefaultArtifactPath if present; no-op otherwise
  kFile = 2,  ///< load a named tuned.json; missing/broken file is an error
};

/// Where tune=auto looks for an artifact (relative to the working
/// directory, like every other default output path in this tree).
inline constexpr const char* kDefaultArtifactPath = "tuned.json";

/// The parsed `tune=` knob.  Applying a tuned entry only ever rewrites
/// the performance-neutral knobs (exec/halo/res/fuse) — physics
/// selections (version, phys, grid, dt) are part of the *shape* an
/// entry is keyed by, so a tuned run is bitwise identical to the same
/// config with the knobs set explicitly (asserted in tests/test_tune.cpp).
struct TuneSpec {
  TuneMode mode = TuneMode::kOff;
  std::string path;  ///< kFile: the artifact to load; empty otherwise

  bool off() const noexcept { return mode == TuneMode::kOff; }

  /// The artifact path this spec resolves to ("" when off).
  std::string artifact_path() const;

  /// Parse "off" | "auto" | "file:<path>"; throws ConfigError on
  /// anything else (unknown mode, empty file path, path on off/auto).
  static TuneSpec parse(const std::string& s);
  std::string describe() const;
};

}  // namespace wrf::tune
