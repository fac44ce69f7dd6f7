#pragma once
// The benchmark's workloads and the knobs that size them.  Everything a
// run feeds the model is generated here from the --seed argument.

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "model/driver.hpp"

namespace wrfbench {

namespace dyn = wrf::dyn;
namespace fsbm = wrf::fsbm;
namespace model = wrf::model;

/// Storm grid (nx, ny, nz) and model steps per storm rep (80 simulated
/// seconds at dt = 5 s).  A rank-step takes ~0.4 s on two CPUs: long
/// enough that a brief host hiccup does not decide p90, short enough for
/// ~150 rank-step samples per run.
inline constexpr int kStormGrid[3] = {32, 24, 16};
inline constexpr int kStormSteps = 16;
/// Warm-up steps of each rep: the first step runs ~2x slower (cold
/// caches, the device's first cache-trace replay).  They count as set-up
/// and stay out of the latency samples, where they would put p90 on the
/// edge between two groups.
inline constexpr int kWarmupSteps = 1;
/// Minimum latency samples per run: p90 then has >= 10 samples beyond it.
inline constexpr int kMinOpSamples = 110;
/// Reps (storm runs or service epochs) per phase of a traced run.
inline constexpr int kMinTracedReps = 2;
/// Paper §VII-B: the offloaded build agrees with the host build to >= 3
/// significant digits.
inline constexpr double kMinHostDigits = 3.0;

/// SplitMix64 of (seed, stream): decorrelated per-stream case seeds.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Report run_storm(const Options& o, const std::string& name,
                 fsbm::PhysScheme phys);

Report run_service(const Options& o);

}  // namespace wrfbench
