// Quickstart: run the scaled-down CONUS-like thunderstorm case through
// the baseline and optimized FSBM versions and print what the paper's
// workflow would show you: the decomposition, the hotspot profile, and
// the per-version timings.
//
// Build & run:
//   cmake --build build && ./build/quickstart [exec=threads:N] [halo=overlap]
//                                             [exec=hetero:N] [phys=hybrid]
//                                             [obs=trace[:path]]
//                                             [tune=auto|file:tuned.json]

#include <cstdio>

#include "model/driver.hpp"
#include "obs/export.hpp"

using namespace wrf;

int main(int argc, char** argv) {
  model::RunConfig cfg;
  cfg.nx = 48;
  cfg.ny = 36;
  cfg.nz = 20;
  cfg.nkr = 33;
  cfg.nsteps = 3;
  cfg.npx = 2;
  cfg.npy = 2;
  cfg.exec = exec::exec_from_args(argc, argv);  // serial | threads:N |
                                                // device | hetero:N
  cfg.halo_mode = dyn::halo_mode_from_args(argc, argv);  // sync | overlap
  cfg.res = mem::residency_from_args(argc, argv);  // step | persist
  cfg.fuse = exec::fuse_from_args(argc, argv);     // off | auto
  cfg.phys = fsbm::phys_from_args(argc, argv);     // bin | bulk | hybrid
  cfg.obs = obs::obs_from_args(argc, argv);        // off | metrics | trace
  cfg.tune = tune::tune_from_args(argc, argv);     // off | auto | file:<path>

  std::printf("miniWRF-SBM quickstart\n======================\n");
  std::printf("case: %s\n\n", cfg.describe().c_str());

  // Figure-1-style decomposition summary.
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  std::printf("domain decomposition (WRF Fig. 1):\n");
  for (const auto& p : patches) {
    std::printf("  %s\n", grid::describe(p).c_str());
  }

  // Run the two CPU versions and one offloaded version.
  const fsbm::Version versions[] = {fsbm::Version::kV0Baseline,
                                    fsbm::Version::kV1LookupOnDemand,
                                    fsbm::Version::kV3Offload3};
  double base_wall = 0.0;
  for (const auto v : versions) {
    model::RunConfig c = cfg;
    c.version = v;
    // The flat profile folds the run's spans; obs=trace installs its
    // own sink for the run, so this one then stays empty.
    obs::TraceSink spans;
    model::RunResult result;
    {
      obs::ScopedActive on(&spans);
      result = model::run_simulation(c);
    }
    if (v == fsbm::Version::kV0Baseline) base_wall = result.wall_sec;
    std::printf("\n=== %s ===\n", fsbm::version_name(v));
    std::printf("wall: %.3f s (%.2fx vs baseline)\n", result.wall_sec,
                base_wall / result.wall_sec);
    std::printf("active cells: %llu   coal cells: %llu   precip: %.3e\n",
                static_cast<unsigned long long>(result.totals.fsbm.cells_active),
                static_cast<unsigned long long>(result.totals.fsbm.cells_coal),
                result.totals.fsbm.surface_precip);
    if (result.last_coal_kernel) {
      const auto& k = *result.last_coal_kernel;
      std::printf("device kernel '%s': modeled %.2f ms, occupancy %.2f%%, "
                  "L1 %.1f%%, L2 %.1f%%\n",
                  k.name.c_str(), k.modeled_time_ms,
                  100.0 * k.occupancy.achieved, 100.0 * k.l1_hit_rate,
                  100.0 * k.l2_hit_rate);
    }
    if (cfg.obs.trace()) {
      std::printf("flat profile: spans went to the trace %s\n",
                  cfg.obs.export_path().c_str());
    } else {
      std::printf("flat profile (gprof-style):\n%s",
                  obs::format_flat_profile(obs::flat_profile(spans.drain()))
                      .c_str());
    }
  }
  return 0;
}
