// Table VII / Figure 4 reproduction: total run time and speedup for the
// paper's four configurations (10 simulated minutes = 120 steps of the
// CONUS-12km case).
//
// Paper:
//   configuration   baseline (s)   all optimizations (s)   speedup
//   16 ranks          1211.45            581.2               2.08x
//   32 ranks           655.1             360.1               1.82x
//   64 ranks           471.7             303.03              1.56x
//   2 nodes            379.8             397.1               0.956x
//
// The work profile is measured from a functional run of the synthetic
// case and scaled to the CONUS grid; CPU ranks are priced with the
// Milan model, kernels with gpusim, the network with the alpha-beta
// model, and ranks-per-GPU with the device-memory footprint (which is
// what pins the 2-node GPU configuration at 5 ranks/GPU => 40 ranks).

#include <utility>

#include "model/knobs.hpp"
#include "offload_runner.hpp"

using namespace wrf;

int main() {
  bench::print_config_header("Table VII / Figure 4 — scaling study");

  // Work profile from a real (scaled) run of v1 and v0.
  model::RunConfig cfg = bench::bench_case(fsbm::Version::kV1LookupOnDemand, 2);
  const model::RunResult res1 = model::run_simulation(cfg);
  perfmodel::WorkProfile w16 = bench::profile_from_run(res1, cfg);
  {
    model::RunConfig c0 = bench::bench_case(fsbm::Version::kV0Baseline, 2);
    const model::RunResult res0 = model::run_simulation(c0);
    const perfmodel::WorkProfile w0 = bench::profile_from_run(res0, c0);
    w16.coal_flops_v0 = w0.coal_flops;
  }
  w16.coal_fraction_cloudy = 0.15;

  // Kernel time curve from gpusim: launch the collapse(3) kernel shape
  // at each candidate patch size using the measured per-cell work.
  const auto v3 = bench::run_conus_rank(fsbm::Version::kV3Offload3);
  const double flops_per_cell =
      v3.fsbm_stats.coal_flops / (107.0 * 75.0 * 50.0);
  const double bytes_per_cell =
      (v3.kernel->dram_read_gb + v3.kernel->dram_write_gb) * 1e9 /
      (107.0 * 75.0 * 50.0);
  gpu::Device dev(gpu::DeviceSpec::a100_40gb());
  dev.set_stack_limit(65536);
  dev.set_heap_limit(64ull << 20);
  auto kernel_ms = [&](double cells) {
    gpu::KernelDesc k;
    k.name = "coal_scaled";
    k.iterations = static_cast<std::int64_t>(cells);
    k.regs_per_thread = 90;
    k.flops_per_iter = flops_per_cell;
    k.bytes_per_iter = bytes_per_cell;
    return dev.launch(k).modeled_time_ms;
  };
  auto transfer_ms = [&](double cells) {
    // 7 bin fields + temp/pres/pred each way per step.
    const double bytes = cells * (7.0 * 33.0 * 4.0 * 2.0 + 12.0);
    return bytes / (gpu::DeviceSpec::a100_40gb().host_link_gbs * 1e6);
  };

  const auto rows = perfmodel::table7_rows(
      w16, /*nsteps=*/120, perfmodel::CpuSpec::milan(),
      perfmodel::NetworkSpec::slingshot(), gpu::DeviceSpec::a100_40gb(),
      perfmodel::DeviceFootprint{}, cfg.nkr, kernel_ms, transfer_ms);

  const double paper_base[4] = {1211.45, 655.1, 471.7, 379.8};
  const double paper_gpu[4] = {581.2, 360.1, 303.03, 397.1};
  const double paper_su[4] = {2.08, 1.82, 1.56, 0.956};

  std::printf("Figure 4 bars (modeled seconds, 120 steps):\n");
  std::printf("%-10s %7s %9s | %12s %12s %12s | %11s %11s\n", "config",
              "ranks", "rk/GPU", "baseline(s)", "lookup(s)", "GPU(s)",
              "speedup", "paper");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf("%-10s %7d %9d | %12.1f %12.1f %12.1f | %10.2fx %10.3fx\n",
                r.label.c_str(), r.ranks, r.ranks_per_gpu, r.baseline_sec,
                r.lookup_sec, r.gpu_sec, r.speedup, paper_su[i]);
  }
  std::printf("\npaper absolute times for reference: baseline {%.0f, %.0f, "
              "%.0f, %.0f} s, GPU {%.0f, %.0f, %.0f, %.0f} s\n",
              paper_base[0], paper_base[1], paper_base[2], paper_base[3],
              paper_gpu[0], paper_gpu[1], paper_gpu[2], paper_gpu[3]);

  std::printf("\nshape checks:\n");
  std::printf("  speedup decreases with rank count : %s (%.2f > %.2f > "
              "%.2f)\n",
              rows[0].speedup > rows[1].speedup &&
                      rows[1].speedup > rows[2].speedup
                  ? "yes"
                  : "NO",
              rows[0].speedup, rows[1].speedup, rows[2].speedup);
  std::printf("  2-node equal-resource case loses  : %s (%.3fx, paper "
              "0.956x)\n",
              rows[3].speedup < 1.1 ? "yes" : "NO", rows[3].speedup);
  std::printf("  ranks/GPU capped by memory at 2 nodes: %s (%d, paper 5)\n",
              rows[3].ranks_per_gpu <= 6 ? "yes" : "NO",
              rows[3].ranks_per_gpu);

  // ---- halo=sync vs halo=overlap: measured comms/compute overlap ----
  // Functional multi-rank runs of the scaled case; `halo wall` is the
  // summed per-rank time inside the exchange phases (pack/post + wait/
  // unpack) and `wait frac` the fraction of total rank time blocked in
  // simpi waits — the quantity overlap exists to shrink.  Results are
  // bitwise identical between the modes (asserted in tests).
  // Wall columns are min-over-reps aggregates (bench::measure_reps);
  // the modeled Table VII rows above are deterministic and stay
  // single-shot.
  const int halo_steps = 4;
  const int halo_reps = 3;
  std::printf("\nhalo exchange sweep (functional, %d steps, v1, %d reps):\n",
              halo_steps, halo_reps);
  std::printf("%8s %9s | %10s %7s %12s %10s %10s\n", "ranks", "mode",
              "wall(s)", "cv", "halo wall(s)", "wait(s)", "wait frac");
  const std::pair<int, int> grids[] = {{2, 1}, {2, 2}, {4, 2}};
  for (const auto& grid : grids) {
    for (const auto mode : {dyn::HaloMode::kSync, dyn::HaloMode::kOverlap}) {
      model::RunResult hr;
      const bench::RepAggregate wall =
          bench::measure_reps(halo_reps, [&]() {
            model::RunConfig hc = bench::bench_case(
                fsbm::Version::kV1LookupOnDemand, halo_steps, {}, mode);
            hc.npx = grid.first;
            hc.npy = grid.second;
            hr = model::run_simulation(hc);
            return hr.wall_sec;
          });
      const double wait = hr.comm.total_wait_sec();
      std::printf("%8d %9s | %10.3f %7.3f %12.3f %10.3f %9.1f%%\n",
                  grid.first * grid.second,
                  model::knob_name("halo", mode).c_str(),
                  wall.min, wall.cv, hr.totals.halo_wall_sec, wait,
                  hr.totals.wall_sec > 0.0
                      ? 100.0 * wait / hr.totals.wall_sec
                      : 0.0);
    }
  }
  return 0;
}
