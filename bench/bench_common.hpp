#pragma once
// Shared helpers for the benches.
//
// bench_paper_claims reports (a) real wall-clock measurements of the
// functional C++ implementation on this host and (b), where the paper's
// number depends on Perlmutter hardware, modeled values clearly labeled
// `modeled`.  Reproduction targets are the *shapes* (who wins, by what
// factor, where crossovers fall); bench_paper_claims gates them and
// README's "Paper claims" section lists them.

#include <cstdio>

#include "model/driver.hpp"
#include "model/knobs.hpp"

namespace wrf::bench {

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

}  // namespace wrf::bench
