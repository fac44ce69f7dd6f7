// Heterogeneous dispatch sweep (exec=hetero) of the collision pass per
// offloaded version: split fraction (device-shard cells / total),
// per-shard wall time, and the shard-granular transfer traffic vs the
// full-field re-maps.  The gate (exit code) asserts the coherence
// contract: device-shard h2d traffic scales with predicate-true cells
// EXACTLY (interior predicate-false cells never transfer), i.e.
// het_h2d * total_cells == base_h2d * device_cells, and the CONUS
// sounding splits nontrivially (rows above the 223.15 K coal gate stay
// on the host shard).
//
// Per-shard wall times are min/median/CV aggregates over N hetero reps
// (bench_common.hpp aggregate_samples — both shard walls come from the
// same rep, so they are collected side by side and aggregated per
// metric); the counter columns are deterministic and measured once.
//
// Usage: bench_hetero [nx ny nz nsteps] [--benchmark_format=json]
//   default: the CONUS rank patch of the paper tables (50 levels reach
//   20 km, so ~40% of each column sits above the coal gate).  JSON mode
//   emits one record per version; scripts/bench_json.sh distills
//   BENCH_hetero.json from it.

#include <algorithm>

#include "bench_common.hpp"

using namespace wrf;

namespace {

struct HeteroCell {
  fsbm::Version version;
  std::uint64_t dev_cells = 0, host_cells = 0;  // summed over steps
  double frac = 0.0;                            // device-shard fraction
  bench::RepAggregate wall_dev, wall_host;      // per-shard wall s over reps
  std::uint64_t het_h2d = 0, het_d2h = 0;    // hetero run, whole run
  std::uint64_t base_h2d = 0, base_d2h = 0;  // full-pass run, whole run
  double het_kernel_ms = 0.0, base_kernel_ms = 0.0;  // modeled, last step
  bool exact_scaling = false;  // het_h2d * total == base_h2d * dev_cells
};

HeteroCell measure_hetero(fsbm::Version v, int nx, int ny, int nz,
                          int nsteps, int reps) {
  auto run = [&](const exec::ExecConfig& e) {
    model::RunConfig cfg;
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.nz = nz;
    cfg.npx = cfg.npy = 1;
    cfg.nsteps = nsteps;
    cfg.version = v;
    cfg.exec = e;
    return model::run_single(cfg);
  };
  // Baseline: the whole collision pass on the device with per-launch
  // full-field maps (res=step, any host exec — serial here).
  const model::RunResult base = run(exec::ExecConfig{});
  exec::ExecConfig het;
  het.kind = exec::ExecKind::kHetero;
  // Rep loop: both shard walls come from the same run, so collect the
  // paired samples and aggregate each metric separately.  The counters
  // (shard cells, transfer bytes) are deterministic; keep the first run.
  const model::RunResult h = run(het);
  std::vector<double> dev_walls{h.totals.fsbm.shard_wall_device_sec};
  std::vector<double> host_walls{h.totals.fsbm.shard_wall_host_sec};
  for (int r = 1; r < reps; ++r) {
    const model::RunResult hr = run(het);
    dev_walls.push_back(hr.totals.fsbm.shard_wall_device_sec);
    host_walls.push_back(hr.totals.fsbm.shard_wall_host_sec);
  }

  HeteroCell c;
  c.version = v;
  c.dev_cells = h.totals.fsbm.shard_cells_device;
  c.host_cells = h.totals.fsbm.shard_cells_host;
  c.frac = h.device_shard_fraction();
  c.wall_dev = bench::aggregate_samples(std::move(dev_walls));
  c.wall_host = bench::aggregate_samples(std::move(host_walls));
  c.het_h2d = h.totals.fsbm.h2d_bytes;
  c.het_d2h = h.totals.fsbm.d2h_bytes;
  c.base_h2d = base.totals.fsbm.h2d_bytes;
  c.base_d2h = base.totals.fsbm.d2h_bytes;
  if (h.last_coal_kernel) c.het_kernel_ms = h.last_coal_kernel->modeled_time_ms;
  if (base.last_coal_kernel) {
    c.base_kernel_ms = base.last_coal_kernel->modeled_time_ms;
  }
  // The hetero upload ships the coal pass's per-cell footprint — the
  // predicate byte, temp + pres, and all seven bin slices — for
  // device-shard cells only: an exact integer identity, not a tolerance
  // check.  (The full-pass baseline re-maps whole memory buffers, halo
  // cells included, so it is strictly larger than footprint * cells.)
  const std::uint64_t cell_bytes =
      1 + 2 * sizeof(float) +
      static_cast<std::uint64_t>(fsbm::kNumSpecies) *
          static_cast<std::uint64_t>(model::RunConfig{}.nkr) * sizeof(float);
  c.exact_scaling =
      c.het_h2d == c.dev_cells * cell_bytes && c.het_d2h <= c.base_d2h;
  return c;
}

void print_hetero_json(const HeteroCell* cells, int n, int nx, int ny, int nz,
                       int nsteps) {
  std::printf("{\n  \"context\": {\"executable\": \"bench_hetero\", "
              "\"grid\": \"%dx%dx%d\", \"nsteps\": %d, \"sweep\": "
              "\"hetero\"},\n",
              nx, ny, nz, nsteps);
  std::printf("  \"benchmarks\": [\n");
  for (int i = 0; i < n; ++i) {
    const HeteroCell& c = cells[i];
    std::printf(
        "    {\"name\": \"hetero/%s\", \"run_type\": \"aggregate\", "
        "\"split_fraction\": %.6f, \"device_shard_cells\": %llu, "
        "\"host_shard_cells\": %llu, \"wall_device_shard_s_min\": %.6f, "
        "\"wall_device_shard_s_median\": %.6f, "
        "\"wall_device_shard_cv\": %.3f, "
        "\"wall_host_shard_s_min\": %.6f, "
        "\"wall_host_shard_s_median\": %.6f, "
        "\"wall_host_shard_cv\": %.3f, \"reps\": %d, "
        "\"hetero_h2d_bytes\": %llu, "
        "\"hetero_d2h_bytes\": %llu, \"full_h2d_bytes\": %llu, "
        "\"full_d2h_bytes\": %llu, \"hetero_kernel_ms\": %.4f, "
        "\"full_kernel_ms\": %.4f, \"exact_shard_scaling\": %s}%s\n",
        fsbm::version_name(c.version), c.frac,
        static_cast<unsigned long long>(c.dev_cells),
        static_cast<unsigned long long>(c.host_cells), c.wall_dev.min,
        c.wall_dev.median, c.wall_dev.cv, c.wall_host.min,
        c.wall_host.median, c.wall_host.cv, c.wall_dev.reps,
        static_cast<unsigned long long>(c.het_h2d),
        static_cast<unsigned long long>(c.het_d2h),
        static_cast<unsigned long long>(c.base_h2d),
        static_cast<unsigned long long>(c.base_d2h), c.het_kernel_ms,
        c.base_kernel_ms, c.exact_scaling ? "true" : "false",
        i + 1 < n ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int hetero_gate(const HeteroCell* cells, int n) {
  // The coherence contract the acceptance bar tracks: shard-granular
  // traffic scales exactly with predicate-true cells, and the split is
  // nontrivial (the sounding's cold upper rows stayed on the host).
  for (int i = 0; i < n; ++i) {
    if (!cells[i].exact_scaling) return 1;
    if (cells[i].dev_cells == 0 || cells[i].host_cells == 0) return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  const bool json = bench::json_format(argc, argv);
  const auto [nx, ny, nz, nsteps] =
      bench::grid_args(argc, argv, {107, 75, 50, 1});
  const int reps = 3;
  const HeteroCell het[2] = {
      measure_hetero(fsbm::Version::kV2Offload2, nx, ny, nz, nsteps, reps),
      measure_hetero(fsbm::Version::kV3Offload3, nx, ny, nz, nsteps, reps)};
  if (json) {
    print_hetero_json(het, 2, nx, ny, nz, nsteps);
    return hetero_gate(het, 2);
  }

  bench::print_config_header("heterogeneous dispatch (exec=hetero)");
  std::printf("%dx%dx%d, %d step%s, %d wall reps:\n", nx, ny, nz, nsteps,
              nsteps == 1 ? "" : "s", reps);
  std::printf("  %-24s %8s %12s %12s %8s %12s %12s %10s\n", "version",
              "split", "dev med s", "host med s", "wall CV", "h2d MB",
              "full h2d", "kern ms");
  for (const HeteroCell& c : het) {
    std::printf("  %-24s %7.1f%% %12.4f %12.4f %8.3f %12.2f %12.2f %10.3f\n",
                fsbm::version_name(c.version), 100.0 * c.frac,
                c.wall_dev.median, c.wall_host.median,
                std::max(c.wall_dev.cv, c.wall_host.cv),
                static_cast<double>(c.het_h2d) / 1e6,
                static_cast<double>(c.base_h2d) / 1e6, c.het_kernel_ms);
  }
  const int gate = hetero_gate(het, 2);
  std::printf("shape check: device-shard traffic scales exactly with "
              "predicate-true cells and the split is two-sided (%s)\n",
              gate == 0 ? "yes" : "NO");
  return gate;
}

}  // namespace

int main(int argc, char** argv) { return model::run_main(run, argc, argv); }
