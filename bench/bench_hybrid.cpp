// Hybrid microphysics sweep: throughput vs bin fraction for the phys=
// knob on the CONUS-style storm patch (a compact storm in mostly calm
// air — the regime the hybrid is built for).
//
// Sweeps phys in {bulk, hybrid, bin} on the single-rank scaled case
// with the v1 host bin chain (the fidelity economics live on the host:
// every demoted cell skips the whole bin chain).  Reports per mode the
// whole-run wall aggregate (min/median/CV over reps, the three modes
// interleaved within each rep), the derived cell-step throughput, and
// the hybrid's population census.
//
// Shape target (exit-code gated in both output modes): hybrid
// throughput lands STRICTLY between pure bulk (everything cheap) and
// pure bin (everything expensive), while the hybrid census shows both
// populations genuinely live.  That is the tentpole's speed-for-
// fidelity trade in one number.
//
// Usage: bench_hybrid [nx ny nz nsteps] [--benchmark_format=json]
//   default grid: the 64x48x24 scaled CONUS case, 3 steps.
//   JSON mode emits one record per phys mode; scripts/bench_json.sh
//   distills the trajectory point BENCH_hybrid.json from it.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/knobs.hpp"

using namespace wrf;

namespace {

struct Mode {
  fsbm::PhysScheme phys;
  bench::RepAggregate wall;      // whole-run wall seconds over reps
  double cellsteps_per_s = 0;    // grid cell-steps / best wall second
  double bin_fraction = 0;       // cells_bin / (cells_bin + cells_bulk)
  std::uint64_t cells_active = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  double surface_precip = 0;
  double bulk_flops = 0;
  double bin_flops = 0;          // cond + nucl + coal + sed
};

/// Measure every mode with interleaved reps: each rep runs all modes
/// once, rotating which one goes first, so host drift over the
/// measurement lands on bulk, hybrid and bin alike instead of on
/// whichever mode happened to run during it.  Reps adapt as in
/// bench::measure_reps — at least `min_reps`, then stop once every
/// mode's wall CV is at or under the target, or at `max_reps`.
std::vector<Mode> measure(const std::vector<fsbm::PhysScheme>& phys, int nx,
                          int ny, int nz, int nsteps,
                          const bench::MeasurePolicy& policy) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  cfg.validate();
  const std::size_t n = phys.size();
  std::vector<model::RunConfig> cfgs(n, cfg);
  for (std::size_t m = 0; m < n; ++m) cfgs[m].phys = phys[m];
  std::vector<std::vector<double>> samples(n);
  std::vector<model::RunResult> last(n);
  const int lo = std::max(policy.min_reps, 1);
  const int hi = std::max(policy.max_reps, lo);
  for (int rep = 0; rep < hi; ++rep) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t m = (static_cast<std::size_t>(rep) + r) % n;
      last[m] = model::run_single(cfgs[m]);
      samples[m].push_back(last[m].wall_sec);
    }
    if (rep + 1 >= lo &&
        std::all_of(samples.begin(), samples.end(), [&](const auto& s) {
          return bench::aggregate_samples(s).cv <= policy.target_cv;
        })) {
      break;
    }
  }

  std::vector<Mode> modes(n);
  const double cellsteps = static_cast<double>(cfg.domain().cells()) *
                           static_cast<double>(nsteps);
  for (std::size_t m = 0; m < n; ++m) {
    Mode& out = modes[m];
    const fsbm::FsbmStats& st = last[m].totals.fsbm;
    out.phys = phys[m];
    out.wall = bench::aggregate_samples(samples[m]);
    out.cellsteps_per_s = cellsteps / out.wall.min;
    const double census = static_cast<double>(st.cells_bin + st.cells_bulk);
    out.bin_fraction = census > 0
                           ? static_cast<double>(st.cells_bin) / census
                           : 1.0;  // phys=bin keeps no census: all bin
    out.cells_active = st.cells_active;
    out.promotions = st.promotions;
    out.demotions = st.demotions;
    out.surface_precip = st.surface_precip;
    out.bulk_flops = st.bulk_flops;
    out.bin_flops =
        st.cond_flops + st.nucl_flops + st.coal_flops + st.sed_flops;
  }
  return modes;
}

void print_json(const std::vector<Mode>& modes, int nx, int ny, int nz,
                int nsteps) {
  std::printf("{\n  \"context\": {\"executable\": \"bench_hybrid\", "
              "\"grid\": \"%dx%dx%d\", \"nsteps\": %d, "
              "\"version\": \"v1-lookup-on-demand\"},\n",
              nx, ny, nz, nsteps);
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t n = 0; n < modes.size(); ++n) {
    const Mode& m = modes[n];
    std::printf(
        "    {\"name\": \"hybrid/phys=%s\", \"run_type\": \"aggregate\", "
        "\"wall_s_min\": %.4f, \"wall_s_median\": %.4f, \"wall_cv\": %.3f, "
        "\"reps\": %d, \"cellsteps_per_s\": %.0f, \"bin_fraction\": %.4f, "
        "\"cells_active\": %llu, \"promotions\": %llu, "
        "\"demotions\": %llu, \"surface_precip\": %.6e, "
        "\"bulk_flops\": %.4e, \"bin_flops\": %.4e}%s\n",
        model::knob_name("phys", m.phys).c_str(), m.wall.min, m.wall.median,
        m.wall.cv, m.wall.reps, m.cellsteps_per_s, m.bin_fraction,
        static_cast<unsigned long long>(m.cells_active),
        static_cast<unsigned long long>(m.promotions),
        static_cast<unsigned long long>(m.demotions), m.surface_precip,
        m.bulk_flops, m.bin_flops, n + 1 < modes.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int run(int argc, char** argv) {
  const bool json = bench::json_format(argc, argv);
  const auto [nx, ny, nz, nsteps] =
      bench::grid_args(argc, argv, {64, 48, 24, 3});
  // Adaptive reps: at least 3, growing to 8 until every mode's wall CV
  // drops under 10% — the same tune::MeasurePolicy discipline the
  // autotuner's rungs use, so a noisy host spends reps instead of
  // committing jitter.
  bench::MeasurePolicy policy;
  policy.max_reps = 8;

  const std::vector<Mode> modes =
      measure({fsbm::PhysScheme::kBulk, fsbm::PhysScheme::kHybrid,
               fsbm::PhysScheme::kBin},
              nx, ny, nz, nsteps, policy);
  const Mode& blk = modes[0];
  const Mode& hyb = modes[1];
  const Mode& bin = modes[2];

  // The acceptance gates, enforced through the exit code in BOTH output
  // modes so the CI smoke asserts them: strict bulk > hybrid > bin
  // throughput ordering, and a genuinely two-sided hybrid census on
  // this mostly-clear storm case.
  const bool ordered = blk.cellsteps_per_s > hyb.cellsteps_per_s &&
                       hyb.cellsteps_per_s > bin.cellsteps_per_s;
  const bool two_sided =
      hyb.bin_fraction > 0.0 && hyb.bin_fraction < 1.0;
  const int exit_code = ordered && two_sided ? 0 : 1;

  if (json) {
    print_json(modes, nx, ny, nz, nsteps);
    return exit_code;
  }

  bench::print_config_header("Hybrid microphysics — throughput vs fidelity");
  std::printf("scaled CONUS storm patch %dx%dx%d, %d steps, v1 host bin "
              "chain, adaptive wall reps (%d-%d, target CV %.2f)\n\n",
              nx, ny, nz, nsteps, policy.min_reps, policy.max_reps,
              policy.target_cv);
  std::printf("  %-8s %14s %12s %12s %10s %8s\n", "phys", "cellsteps/s",
              "wall min s", "wall med s", "bin frac", "wall CV");
  for (const Mode& m : modes) {
    std::printf("  %-8s %14.0f %12.4f %12.4f %10.3f %8.3f\n",
                model::knob_name("phys", m.phys).c_str(), m.cellsteps_per_s,
                m.wall.min, m.wall.median, m.bin_fraction, m.wall.cv);
  }
  std::printf("\nhybrid census: %.1f%% of cell-steps at bin fidelity "
              "(%llu promotions, %llu demotions over the run)\n",
              100.0 * hyb.bin_fraction,
              static_cast<unsigned long long>(hyb.promotions),
              static_cast<unsigned long long>(hyb.demotions));
  std::printf("speedup: hybrid %.2fx over pure bin (pure bulk bound: "
              "%.2fx)\n",
              hyb.cellsteps_per_s / bin.cellsteps_per_s,
              blk.cellsteps_per_s / bin.cellsteps_per_s);
  std::printf("shape check: bulk > hybrid > bin throughput, two-sided "
              "census (%s)\n", exit_code == 0 ? "yes" : "NO");
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) { return model::run_main(run, argc, argv); }
