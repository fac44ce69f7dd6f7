// Scenario example: the Section VII-A scaling study for an arbitrary
// machine shape — how many ranks per GPU still pay off, and where the
// equal-resource crossover falls.  This drives the same perfmodel the
// Table VII bench uses, but lets you vary GPUs and rank counts.
//
// Run: ./build/scaling_study [ngpus] [exec=threads:N|hetero:N]
//      [halo=sync|overlap] [obs=trace[:path]]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "model/driver.hpp"
#include "perfmodel/scaling.hpp"

using namespace wrf;

int main(int argc, char** argv) {
  int ngpus = 16;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]).find('=') != std::string::npos) continue;
    ngpus = std::atoi(argv[a]);
    break;
  }

  // Measure a work profile from a real scaled-down run.
  model::RunConfig cfg;
  cfg.nx = 64;
  cfg.ny = 48;
  cfg.nz = 24;
  cfg.npx = cfg.npy = 2;
  cfg.nsteps = 2;
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  cfg.exec = exec::exec_from_args(argc, argv);
  cfg.halo_mode = dyn::halo_mode_from_args(argc, argv);
  cfg.res = mem::residency_from_args(argc, argv);
  cfg.fuse = exec::fuse_from_args(argc, argv);
  cfg.obs = obs::obs_from_args(argc, argv);  // traces the calibration run
  cfg.tune = tune::tune_from_args(argc, argv);  // off | auto | file:<path>
  const model::RunResult res = model::run_simulation(cfg);

  perfmodel::WorkProfile w;
  const double rank_steps = cfg.nranks() * cfg.nsteps;
  w.cells = 425.0 * 300.0 * 50.0 / 16.0;
  const double scale =
      w.cells / (static_cast<double>(cfg.domain().cells()) / cfg.nranks());
  w.coal_flops = res.totals.fsbm.coal_flops / rank_steps * scale;
  w.coal_flops_v0 = w.coal_flops * 6.0;
  w.cond_nucl_flops =
      (res.totals.fsbm.cond_flops + res.totals.fsbm.nucl_flops) /
      rank_steps * scale;
  w.sed_flops = res.totals.fsbm.sed_flops / rank_steps * scale;
  w.adv_flops = (res.totals.dyn.tend.flops + res.totals.dyn.update.flops) /
                rank_steps * scale;
  w.halo_bytes = res.comm.total_bytes() / rank_steps * std::sqrt(scale);
  w.halo_messages = 8;

  const perfmodel::CpuSpec cpu = perfmodel::CpuSpec::milan();
  const perfmodel::NetworkSpec net = perfmodel::NetworkSpec::slingshot();
  const perfmodel::DeviceFootprint fp;
  const gpu::DeviceSpec dev = gpu::DeviceSpec::a100_40gb();

  gpu::Device device(dev);
  device.set_stack_limit(65536);
  device.set_heap_limit(64ull << 20);

  std::printf("scaling study: CONUS-12km, %d GPUs fixed, 120 steps\n", ngpus);
  std::printf("%8s %8s | %12s %12s | %9s | %s\n", "ranks", "rk/GPU",
              "CPU v1 (s)", "GPU v3 (s)", "speedup", "note");
  for (int ranks : {ngpus, 2 * ngpus, 4 * ngpus, 8 * ngpus}) {
    const perfmodel::WorkProfile wr =
        w.scaled_to(16.0 / ranks);
    const int max_rpg = fp.max_ranks_per_gpu(
        dev, static_cast<std::int64_t>(wr.cells), 33);
    int use_ranks = ranks;
    int rpg = (use_ranks + ngpus - 1) / ngpus;
    const bool capped = rpg > max_rpg;
    while (rpg > max_rpg && use_ranks > ngpus) {
      use_ranks -= ngpus;
      rpg = (use_ranks + ngpus - 1) / ngpus;
    }
    gpu::KernelDesc k;
    k.name = "coal_scaled";
    k.iterations = static_cast<std::int64_t>(wr.cells * 16.0 / use_ranks *
                                             (use_ranks / 16.0 > 0 ? 1 : 1));
    k.iterations = static_cast<std::int64_t>(w.cells * 16.0 / use_ranks);
    k.regs_per_thread = 90;
    k.flops_per_iter = w.coal_flops / w.cells;
    k.bytes_per_iter = 1800.0;
    const double kms = device.launch(k).modeled_time_ms;
    const double tms = k.iterations * (7.0 * 33 * 4 * 2) /
                       (dev.host_link_gbs * 1e6);

    const double cpu_s =
        perfmodel::cpu_step_time(w.scaled_to(16.0 / ranks), cpu, net, ranks,
                                 false)
            .total() *
        120;
    const double gpu_s =
        perfmodel::gpu_step_time(w.scaled_to(16.0 / use_ranks), cpu, net,
                                 use_ranks, rpg, kms, tms)
            .total() *
        120;
    std::printf("%8d %8d | %12.1f %12.1f | %8.2fx | %s\n", ranks, rpg, cpu_s,
                gpu_s, cpu_s / gpu_s,
                capped ? "rank count capped by GPU memory" : "");
  }
  std::printf("\n(paper Table VII with 16 GPUs: 2.08x @16, 1.82x @32, "
              "1.56x @64 ranks)\n");
  return 0;
}
