#pragma once
// Shared helpers for the benches.
//
// Every bench prints (a) real wall-clock measurements of the functional
// C++ implementation on this host and (b), where the paper's number
// depends on Perlmutter hardware, modeled values clearly labeled
// `modeled`.  Reproduction targets are the *shapes* (who wins, by what
// factor, where crossovers fall); bench_paper_claims gates them and
// README's "Paper claims" section lists them.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "model/driver.hpp"
#include "model/knobs.hpp"
#include "tune/measure.hpp"

namespace wrf::bench {

// The statistical measurement primitives live in src/tune/measure.hpp
// (the autotuner aggregates its rungs with exactly this code); the
// benches keep their historical wrf::bench spelling via re-export.
// RepAggregate: min / median / mean / CV over N reps — `min` is the
// headline wall column, `cv` the stability gauge.  measure_reps has a
// fixed-count overload and an adaptive MeasurePolicy overload (repeat
// until CV <= target or the rep cap).
using tune::aggregate_samples;
using tune::MeasurePolicy;
using tune::measure_reps;
using tune::RepAggregate;

/// Print the Table II configuration header every bench starts with.
inline void print_config_header(const char* what) {
  std::printf("================================================================\n");
  std::printf("miniWRF-SBM bench: %s\n", what);
  std::printf("configuration (paper Table II analogue):\n");
  std::printf("  device        : %s\n",
              gpu::DeviceSpec::a100_40gb().name.c_str());
  std::printf("  stack limit   : 65536 B  (NV_ACC_CUDA_STACKSIZE)\n");
  std::printf("  heap limit    : 64 MB    (NV_ACC_CUDA_HEAPSIZE)\n");
  std::printf("  CPU model     : AMD EPYC 7763 (Milan), 2.45 GHz\n");
  std::printf("================================================================\n\n");
}

/// One rank's patch at the paper's full CONUS-12km scale (425x300x50
/// over 16 ranks), used for the device-model benches.  Functional
/// execution of this patch is feasible (a few seconds per step).
inline model::RunConfig conus_rank_patch(fsbm::Version v, int nsteps = 1) {
  model::RunConfig cfg;
  cfg.nx = 107;  // ~425/4
  cfg.ny = 75;   // 300/4
  cfg.nz = 50;
  cfg.npx = 1;
  cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = v;
  return cfg;
}

/// The optional positional grid `nx ny nz nsteps` of the sweep benches:
/// all four or none (then `grid` stands), each a model::parse_count.
struct Grid {
  int nx, ny, nz, nsteps;
};

inline Grid grid_args(int argc, char** argv, Grid grid) {
  std::vector<std::string> pos;
  for (int a = 1; a < argc; ++a) {
    if (std::strchr(argv[a], '=') == nullptr) pos.emplace_back(argv[a]);
  }
  if (pos.empty()) return grid;
  if (pos.size() != 4) {
    throw ConfigError("want all four of nx ny nz nsteps (got " +
                      std::to_string(pos.size()) + " positional args)");
  }
  return {model::parse_count("nx", pos[0]), model::parse_count("ny", pos[1]),
          model::parse_count("nz", pos[2]),
          model::parse_count("nsteps", pos[3])};
}

/// True when argv asks for the google-benchmark-style JSON records.
inline bool json_format(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--benchmark_format=json") == 0) return true;
  }
  return false;
}

}  // namespace wrf::bench
