// Fusion sweep: kernel-launch counts and inter-pass transfer traffic of
// the fused pass graph (fuse=auto, analyzer-verified cond+coal fusion)
// vs the paper's one-launch-per-pass layout (fuse=off), on one
// CONUS-12km rank patch with the condensation pass offloaded
// (v3 + offload_condensation, exec=device).
//
// Shape targets, enforced through the exit code in BOTH output modes:
//   (a) fuse=auto issues strictly fewer kernel launches per step than
//       fuse=off under both res=step and res=persist, and
//   (b) under res=step, fused steady-state h2d+d2h bytes/step drop
//       below unfused (the fused launch skips coal's re-map of
//       call_coal/ff/temp/pres and one full-ff d2h round-trip).
//
// Wall-clock is reported as a min/median/CV aggregate over N reps
// (bench_common.hpp) — on a loaded CI host only the counter columns are
// stable; the CV column says how much to trust the wall ones.
//
// Usage: bench_fusion [nx ny nz nsteps] [--benchmark_format=json]
//   default grid: the 107x75x50 per-rank CONUS patch of Tables IV-VI.
//   JSON mode emits one google-benchmark-style record per (fuse, res)
//   cell; scripts/bench_json.sh distills BENCH_fusion.json from it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wrf;

namespace {

struct Cell {
  exec::FuseMode fuse = exec::FuseMode::kOff;
  mem::ResidencyMode res = mem::ResidencyMode::kStep;
  double launches_step = 0;     // kernel launches per steady-state step
  double latency_ms_step = 0;   // modeled fixed launch latency per step
  double h2d_steady = 0, d2h_steady = 0;  // bytes per steady-state step
  bench::RepAggregate wall;     // whole-run wall seconds over reps
  std::string fused_pair;       // "a+b" when the schedule fused, else ""
};

model::RunConfig make_config(exec::FuseMode fuse, mem::ResidencyMode res,
                             int nx, int ny, int nz, int nsteps) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = fsbm::Version::kV3Offload3;
  cfg.fsbm_params.offload_condensation = true;
  cfg.res = res;
  cfg.fuse = fuse;
  cfg.exec.kind = exec::ExecKind::kDevice;
  cfg.validate();
  return cfg;
}

Cell measure(exec::FuseMode fuse, mem::ResidencyMode res, int nx, int ny,
             int nz, int nsteps, int reps) {
  const model::RunConfig cfg = make_config(fuse, res, nx, ny, nz, nsteps);

  Cell c;
  c.fuse = fuse;
  c.res = res;

  // Counter pass: step a fresh rank once, bracketing each step with the
  // device transfer counters (steady state = steps after the first).
  {
    const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
    model::RankModel rank(cfg, patches[0], nullptr);
    rank.init();
    std::vector<gpu::TransferStats> cum;
    cum.push_back(rank.device()->transfers());
    std::uint64_t launches = 0;
    double latency_ms = 0;
    for (int s = 0; s < nsteps; ++s) {
      const model::StepStats st = rank.step();
      if (s > 0) {  // steady state only
        launches += st.fsbm.kernel_launches;
        latency_ms += st.fsbm.launch_latency_ms;
      }
      cum.push_back(rank.device()->transfers());
    }
    const int steady = nsteps - 1;
    if (steady > 0) {
      const auto& a = cum[1];
      const auto& z = cum.back();
      c.h2d_steady = static_cast<double>(z.h2d_bytes - a.h2d_bytes) / steady;
      c.d2h_steady = static_cast<double>(z.d2h_bytes - a.d2h_bytes) / steady;
      c.launches_step = static_cast<double>(launches) / steady;
      c.latency_ms_step = latency_ms / steady;
    }
    const exec::PassGraph& g = rank.scheme().pass_graph();
    for (const exec::FusionDecision& d : rank.scheme().schedule().decisions) {
      if (d.fused) c.fused_pair = g.node(d.a).name + "+" + g.node(d.b).name;
    }
  }

  // Wall pass: whole-run wall over `reps` repetitions, fresh rank each.
  c.wall = bench::measure_reps(reps, [&]() {
    return model::run_single(cfg).wall_sec;
  });
  return c;
}

double mb(double bytes) { return bytes / 1e6; }

void print_json(const std::vector<Cell>& cells, int nx, int ny, int nz,
                int nsteps) {
  std::printf("{\n  \"context\": {\"executable\": \"bench_fusion\", "
              "\"grid\": \"%dx%dx%d\", \"nsteps\": %d, "
              "\"version\": \"v3_offload_collapse3\", "
              "\"offload_condensation\": true, \"exec\": \"device\"},\n",
              nx, ny, nz, nsteps);
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t n = 0; n < cells.size(); ++n) {
    const Cell& c = cells[n];
    std::printf(
        "    {\"name\": \"fusion/fuse=%s/res=%s\", \"run_type\": "
        "\"aggregate\", \"launches_per_step\": %.1f, "
        "\"launch_latency_ms_per_step\": %.4f, "
        "\"h2d_bytes_per_step\": %.0f, \"d2h_bytes_per_step\": %.0f, "
        "\"wall_s_min\": %.4f, \"wall_s_median\": %.4f, \"wall_cv\": %.3f, "
        "\"reps\": %d, \"fused_pair\": \"%s\"}%s\n",
        exec::fuse_name(c.fuse), mem::residency_name(c.res),
        c.launches_step, c.latency_ms_step, c.h2d_steady, c.d2h_steady,
        c.wall.min, c.wall.median, c.wall.cv, c.wall.reps,
        c.fused_pair.c_str(), n + 1 < cells.size() ? "," : "");
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
                 "bench_fusion: want all four of nx ny nz nsteps "
                 "(got %d positional args)\n", npos);
    return 2;
  }
  if (nsteps < 2) nsteps = 2;  // steady state needs a second step
  const int reps = 3;

  std::vector<Cell> cells;
  for (const exec::FuseMode fuse :
       {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      cells.push_back(measure(fuse, res, nx, ny, nz, nsteps, reps));
    }
  }

  auto find_cell = [&](exec::FuseMode f, mem::ResidencyMode r) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.fuse == f && c.res == r) return c;
    }
    std::fprintf(stderr, "bench_fusion: missing sweep cell\n");
    std::exit(2);
  };
  const Cell& off_step =
      find_cell(exec::FuseMode::kOff, mem::ResidencyMode::kStep);
  const Cell& auto_step =
      find_cell(exec::FuseMode::kAuto, mem::ResidencyMode::kStep);
  const Cell& off_pers =
      find_cell(exec::FuseMode::kOff, mem::ResidencyMode::kPersist);
  const Cell& auto_pers =
      find_cell(exec::FuseMode::kAuto, mem::ResidencyMode::kPersist);
  const bool fewer_launches =
      auto_step.launches_step < off_step.launches_step &&
      auto_pers.launches_step < off_pers.launches_step;
  const double off_bytes = off_step.h2d_steady + off_step.d2h_steady;
  const double auto_bytes = auto_step.h2d_steady + auto_step.d2h_steady;
  const bool fewer_bytes = auto_bytes < off_bytes;
  const int exit_code = (fewer_launches && fewer_bytes) ? 0 : 1;

  if (json) {
    print_json(cells, nx, ny, nz, nsteps);
    return exit_code;
  }

  bench::print_config_header("Pass fusion sweep — fuse=off vs fuse=auto");
  std::printf("CONUS rank patch %dx%dx%d, %d steps, v3 + "
              "offload_condensation, exec=device, %d wall reps\n\n",
              nx, ny, nz, nsteps, reps);
  std::printf("  %-6s %-8s %12s %12s %12s %12s %10s %8s\n", "fuse", "res",
              "launch/st", "lat ms/st", "h2d MB/st", "d2h MB/st",
              "wall med s", "wall CV");
  for (const Cell& c : cells) {
    std::printf("  %-6s %-8s %12.1f %12.4f %12.3f %12.3f %10.3f %8.3f\n",
                exec::fuse_name(c.fuse), mem::residency_name(c.res),
                c.launches_step, c.latency_ms_step, mb(c.h2d_steady),
                mb(c.d2h_steady), c.wall.median, c.wall.cv);
  }
  std::printf("\n");
  std::printf("fused pair (fuse=auto): %s\n",
              auto_step.fused_pair.empty() ? "(none!)"
                                           : auto_step.fused_pair.c_str());
  std::printf("launches/step: off %.1f -> auto %.1f (step); off %.1f -> "
              "auto %.1f (persist)\n",
              off_step.launches_step, auto_step.launches_step,
              off_pers.launches_step, auto_pers.launches_step);
  std::printf("res=step inter-pass traffic: off %.1f MB/step -> auto "
              "%.1f MB/step\n", mb(off_bytes), mb(auto_bytes));
  std::printf("shape check: fused launches strictly below unfused under "
              "both res modes (%s); fused h2d+d2h below unfused at "
              "res=step (%s)\n",
              fewer_launches ? "yes" : "NO", fewer_bytes ? "yes" : "NO");
  return exit_code;
}
