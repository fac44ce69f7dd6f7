// Residency sweep: per-step host<->device traffic of the offloaded FSBM
// versions under res=step (per-launch `target data` re-maps, the paper's
// as-ported behavior) vs res=persist (device-resident fields with dirty
// tracking), on one CONUS-12km rank patch in the device-resident
// stepping configuration (exec=device: every host nest modeled as a
// device kernel, so between collision launches only halo strips and
// host-side diagnostics cross the link).
//
// Shape target: steady-state h2d+d2h bytes/step under persist shrink by
// >= 5x vs step (single-rank CONUS has no neighbors, so persist's steady
// state is ~zero — the first step pays the one-time enter-data upload).
//
// Wall-clock is reported as a min/median/CV aggregate over N reps
// (bench_common.hpp) — on a loaded CI host only the counter columns are
// stable; the CV column says how much to trust the wall ones.
//
// Usage: bench_residency [nx ny nz nsteps] [--benchmark_format=json]
//   default grid: the 107x75x50 per-rank CONUS patch of Tables IV-VI.
//   JSON mode emits one google-benchmark-style record per
//   (version, res) cell; scripts/bench_json.sh distills the trajectory
//   point BENCH_residency.json from it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wrf;

namespace {

struct Cell {
  fsbm::Version version;
  mem::ResidencyMode res;
  double h2d_first = 0, d2h_first = 0;    // bytes, first step
  double h2d_steady = 0, d2h_steady = 0;  // bytes per steady-state step
  double xfer_ms_steady = 0;              // modeled link ms per step
  double kernel_ms_step = 0;              // modeled kernel ms per step
  std::uint64_t resident_bytes = 0;
  bench::RepAggregate wall;               // whole-run wall seconds over reps
};

Cell measure(fsbm::Version v, mem::ResidencyMode res, int nx, int ny, int nz,
             int nsteps, int reps) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = v;
  cfg.res = res;
  cfg.exec.kind = exec::ExecKind::kDevice;  // device-resident stepping
  cfg.validate();

  const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
  model::RankModel rank(cfg, patches[0], nullptr);
  rank.init();
  std::vector<gpu::TransferStats> cum;
  cum.reserve(static_cast<std::size_t>(nsteps) + 1);
  cum.push_back(rank.device()->transfers());
  for (int s = 0; s < nsteps; ++s) {
    rank.step();
    cum.push_back(rank.device()->transfers());
  }

  Cell c;
  c.version = v;
  c.res = res;
  c.h2d_first = static_cast<double>(cum[1].h2d_bytes - cum[0].h2d_bytes);
  c.d2h_first = static_cast<double>(cum[1].d2h_bytes - cum[0].d2h_bytes);
  const int steady = nsteps - 1;
  if (steady > 0) {
    const auto& a = cum[1];
    const auto& z = cum[static_cast<std::size_t>(nsteps)];
    c.h2d_steady = static_cast<double>(z.h2d_bytes - a.h2d_bytes) / steady;
    c.d2h_steady = static_cast<double>(z.d2h_bytes - a.d2h_bytes) / steady;
    c.xfer_ms_steady = (z.modeled_time_ms - a.modeled_time_ms) / steady;
  }
  c.kernel_ms_step = rank.device()->total_kernel_ms() / nsteps;
  c.resident_bytes = rank.scheme().resident_bytes();

  // Wall pass: whole-run wall over `reps` repetitions, fresh rank each.
  c.wall = bench::measure_reps(reps, [&]() {
    return model::run_single(cfg).wall_sec;
  });
  return c;
}

double mb(double bytes) { return bytes / 1e6; }

void print_json(const std::vector<Cell>& cells, int nx, int ny, int nz,
                int nsteps) {
  std::printf("{\n  \"context\": {\"executable\": \"bench_residency\", "
              "\"grid\": \"%dx%dx%d\", \"nsteps\": %d, \"exec\": \"device\"},\n",
              nx, ny, nz, nsteps);
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t n = 0; n < cells.size(); ++n) {
    const Cell& c = cells[n];
    std::printf(
        "    {\"name\": \"residency/%s/res=%s\", \"run_type\": \"aggregate\", "
        "\"h2d_bytes_first_step\": %.0f, \"d2h_bytes_first_step\": %.0f, "
        "\"h2d_bytes_per_step\": %.0f, \"d2h_bytes_per_step\": %.0f, "
        "\"transfer_ms_per_step\": %.6f, \"kernel_ms_per_step\": %.4f, "
        "\"resident_mb\": %.2f, \"wall_s_min\": %.4f, "
        "\"wall_s_median\": %.4f, \"wall_cv\": %.3f, \"reps\": %d}%s\n",
        fsbm::version_name(c.version), mem::residency_name(c.res),
        c.h2d_first, c.d2h_first, c.h2d_steady, c.d2h_steady,
        c.xfer_ms_steady, c.kernel_ms_step,
        mb(static_cast<double>(c.resident_bytes)),
        c.wall.min, c.wall.median, c.wall.cv, c.wall.reps,
        n + 1 < cells.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  int nx = 107, ny = 75, nz = 50, nsteps = 3;
  bool json = false;
  int npos = 0;
  int pos[4] = {0, 0, 0, 0};
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--benchmark_format=json") == 0) {
      json = true;
    } else if (npos < 4 && std::strchr(argv[a], '=') == nullptr) {
      pos[npos++] = std::atoi(argv[a]);
    }
  }
  if (npos == 4 && pos[0] > 0) {
    nx = pos[0];
    ny = pos[1];
    nz = pos[2];
    nsteps = pos[3];
  } else if (npos != 0) {
    std::fprintf(stderr,
                 "bench_residency: want all four of nx ny nz nsteps "
                 "(got %d positional args)\n", npos);
    return 2;
  }
  if (nsteps < 2) nsteps = 2;  // steady state needs a second step
  const int reps = 3;

  std::vector<Cell> cells;
  for (const fsbm::Version v :
       {fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      cells.push_back(measure(v, res, nx, ny, nz, nsteps, reps));
    }
  }

  // Shape check on v3 — the acceptance bar for the residency subsystem;
  // enforced through the exit code in BOTH output modes so the CI smoke
  // (which runs via scripts/bench_json.sh) actually asserts it.
  auto find_cell = [&](fsbm::Version v, mem::ResidencyMode res) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.version == v && c.res == res) return c;
    }
    std::fprintf(stderr, "bench_residency: missing sweep cell\n");
    std::exit(2);
  };
  const Cell& step3 =
      find_cell(fsbm::Version::kV3Offload3, mem::ResidencyMode::kStep);
  const Cell& pers3 =
      find_cell(fsbm::Version::kV3Offload3, mem::ResidencyMode::kPersist);
  const double step_bytes = step3.h2d_steady + step3.d2h_steady;
  const double pers_bytes = pers3.h2d_steady + pers3.d2h_steady;
  const double reduction = step_bytes / (pers_bytes > 0 ? pers_bytes : 1.0);
  const int exit_code = reduction >= 5.0 ? 0 : 1;

  if (json) {
    print_json(cells, nx, ny, nz, nsteps);
    return exit_code;
  }

  bench::print_config_header("Residency sweep — res=step vs res=persist");
  std::printf("CONUS rank patch %dx%dx%d, %d steps, exec=device "
              "(device-resident stepping), %d wall reps\n\n",
              nx, ny, nz, nsteps, reps);
  std::printf("  %-24s %-8s %12s %12s %12s %10s %10s %8s\n", "version",
              "res", "h2d MB/st", "d2h MB/st", "first h2d", "xfer ms/st",
              "wall med s", "wall CV");
  for (const Cell& c : cells) {
    std::printf("  %-24s %-8s %12.3f %12.3f %12.1f %10.4f %10.3f %8.3f\n",
                fsbm::version_name(c.version), mem::residency_name(c.res),
                mb(c.h2d_steady), mb(c.d2h_steady), mb(c.h2d_first),
                c.xfer_ms_steady, c.wall.median, c.wall.cv);
  }
  std::printf("\n");

  std::printf("v3 steady-state traffic: step %.1f MB/step, persist %.3f "
              "MB/step -> %.0fx reduction (resident %.0f MB pinned)\n",
              mb(step_bytes), mb(pers_bytes), reduction,
              mb(static_cast<double>(pers3.resident_bytes)));
  std::printf("shape check: persist cuts steady-state h2d+d2h by >=5x "
              "(%s)\n", exit_code == 0 ? "yes" : "NO");
  return exit_code;
}
