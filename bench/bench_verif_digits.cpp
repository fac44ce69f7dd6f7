// §VII-B reproduction: diffwrf-style verification of the GPU port.
//
// Paper: comparing a 3-hour run, diffwrf retains 3-6 digits for state
// variables (velocities, temperature, pressure) and 1-5 digits for
// microphysics variables; -gpu=autocompare shows 6-7 digits per step.
//
// Here: run the CPU (v1) and offloaded (v3, FMA-contracted device
// arithmetic) versions of the same case and report per-variable digits
// of agreement with the diffstate comparator.

#include "bench_common.hpp"

using namespace wrf;

int main() {
  bench::print_config_header("§VII-B — output verification (diffstate)");

  model::RunConfig cfg = bench::bench_case(fsbm::Version::kV1LookupOnDemand, 6);
  cfg.npx = cfg.npy = 1;
  const model::RunResult cpu = model::run_single(cfg);
  cfg.version = fsbm::Version::kV3Offload3;
  const model::RunResult gpu = model::run_single(cfg);

  // Single-step agreement first (the -gpu=autocompare analogue).
  model::RunConfig one = cfg;
  one.nsteps = 1;
  one.version = fsbm::Version::kV1LookupOnDemand;
  const model::RunResult cpu1 = model::run_single(one);
  one.version = fsbm::Version::kV3Offload3;
  const model::RunResult gpu1 = model::run_single(one);
  const io::DiffReport step_rep =
      io::diffstate(cpu1.snapshots[0], gpu1.snapshots[0], 1e-12);

  const io::DiffReport rep =
      io::diffstate(cpu.snapshots[0], gpu.snapshots[0], 1e-12);

  std::printf("per-variable agreement after %d steps (CPU v1 vs GPU v3):\n%s\n",
              cfg.nsteps, rep.format().c_str());
  std::printf("single-step agreement (autocompare analogue): worst %.2f "
              "digits (paper: 6-7)\n",
              step_rep.worst_digits);
  std::printf("multi-step agreement: worst %.2f digits (paper: 3-6 for "
              "state, 1-5 for microphysics)\n\n",
              rep.worst_digits);

  double state_worst = 16.0, micro_worst = 16.0;
  for (const auto& v : rep.vars) {
    if (v.name == "T" || v.name == "QVAPOR") {
      state_worst = std::min(state_worst, v.digits_min);
    } else if (v.name.rfind("Q_", 0) == 0) {
      micro_worst = std::min(micro_worst, v.digits_min);
    }
  }
  std::printf("shape checks:\n");
  std::printf("  not bitwise identical (FMA contraction)  : %s\n",
              !rep.identical ? "yes" : "NO");
  std::printf("  state variables keep >= 3 digits         : %s (%.2f)\n",
              state_worst >= 3.0 ? "yes" : "NO", state_worst);
  std::printf("  microphysics keeps >= 1 digit            : %s (%.2f)\n",
              micro_worst >= 1.0 ? "yes" : "NO", micro_worst);
  std::printf("  microphysics noisier than state          : %s\n",
              micro_worst <= state_worst ? "yes" : "NO");
  return 0;
}
