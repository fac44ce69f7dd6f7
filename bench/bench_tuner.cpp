// Autotuner bench: what does perfmodel-guided knob tuning buy on the
// CONUS rank patch, and is the decision statistically defensible?
//
// Runs tune::Tuner on the single-rank CONUS-12km patch (v3 offload by
// default), writes the versioned tuned.json artifact, then measures the
// SAME shape twice with adaptive reps: once with the untuned default
// knobs, once loaded back through `tune=file:<artifact>` — so the
// comparison exercises the exact artifact round trip users run.
//
// Exit-code gates (both output modes):
//   1. tuned throughput >= untuned throughput (small noise allowance —
//      when the winner IS the default knobs the two runs are the same
//      config measured twice);
//   2. the deciding rung's winner CV <= the target (a winner picked on
//      jitter is not a winner);
//   3. the tune=file: run is bitwise identical (model::state_hash) to
//      the same knobs set explicitly — tuning may never change physics.
//
// Usage: bench_tuner [nx ny nz nsteps] [version=v1|v2|v3|v3naive]
//                    [artifact=<path>] [keep=N] [target_cv=X]
//                    [--benchmark_format=json]
//   default: the 107x75x50 CONUS rank patch, v3, 2 comparison steps,
//   artifact written to ./tuned.json.  scripts/bench_json.sh distills
//   BENCH_tuner.json from the JSON mode.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tune/tuner.hpp"

using namespace wrf;

namespace {

struct Side {
  const char* name;
  bench::RepAggregate wall;
  double cellsteps_per_s = 0;
  std::uint64_t hash = 0;
};

Side measure_side(const char* name, const model::RunConfig& cfg,
                  const tune::MeasurePolicy& policy) {
  Side s;
  s.name = name;
  model::RunResult last;
  s.wall = bench::measure_reps(policy, [&]() {
    last = model::run_single(cfg);
    return last.wall_sec;
  });
  s.cellsteps_per_s = static_cast<double>(cfg.domain().cells()) *
                      static_cast<double>(cfg.nsteps) / s.wall.min;
  s.hash = model::state_hash(last);
  return s;
}

void print_json(const tune::TuneReport& rep, const Side& untuned,
                const Side& tuned, const std::string& artifact_path,
                const model::RunConfig& base, int compare_steps,
                bool bitwise_ok) {
  const tune::MachineFingerprint& m = rep.artifact.machine;
  std::printf("{\n  \"context\": {\"executable\": \"bench_tuner\", "
              "\"grid\": \"%dx%dx%d\", \"nsteps\": %d, "
              "\"version\": \"%s\", \"device\": \"%s\", "
              "\"hw_threads\": %d, \"artifact\": \"%s\", "
              "\"artifact_schema\": %d},\n",
              base.nx, base.ny, base.nz, compare_steps,
              fsbm::version_name(base.version), m.device.c_str(),
              m.hw_threads, artifact_path.c_str(),
              tune::kArtifactSchemaVersion);
  std::printf("  \"benchmarks\": [\n");
  const Side* sides[2] = {&untuned, &tuned};
  for (int i = 0; i < 2; ++i) {
    const Side& s = *sides[i];
    std::printf(
        "    {\"name\": \"tuner/%s\", \"run_type\": \"aggregate\", "
        "\"wall_s_min\": %.4f, \"wall_s_median\": %.4f, "
        "\"wall_cv\": %.3f, \"reps\": %d, \"cellsteps_per_s\": %.0f},\n",
        s.name, s.wall.min, s.wall.median, s.wall.cv, s.wall.reps,
        s.cellsteps_per_s);
  }
  const tune::TunedEntry& e = rep.entry;
  std::printf(
      "    {\"name\": \"tuner/winner\", \"run_type\": \"meta\", "
      "\"knobs\": \"%s\", \"shape\": \"%s\", \"deciding_steps\": %d, "
      "\"deciding_cv\": %.3f, \"space_size\": %d, "
      "\"measured_points\": %d, \"measured_runs\": %d, "
      "\"rungs\": %d, \"speedup\": %.3f, \"bitwise_identical\": %s}\n",
      e.knobs.c_str(), e.shape.c_str(), e.steps, e.wall.cv, rep.space_size,
      rep.measured_points, rep.measured_runs,
      static_cast<int>(e.ladder.size()),
      untuned.cellsteps_per_s > 0
          ? tuned.cellsteps_per_s / untuned.cellsteps_per_s
          : 0.0,
      bitwise_ok ? "true" : "false");
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  int nx = 107, ny = 75, nz = 50, compare_steps = 2;
  std::string artifact_path = "tuned.json";
  fsbm::Version version = fsbm::Version::kV3Offload3;
  bool json = false;
  tune::TunerOptions opts;
  opts.prior_keep = 10;
  opts.policy.max_reps = 8;

  int npos = 0;
  int pos[4] = {0, 0, 0, 0};
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strcmp(arg, "--benchmark_format=json") == 0) {
      json = true;
    } else if (std::strncmp(arg, "artifact=", 9) == 0) {
      artifact_path = arg + 9;
    } else if (std::strncmp(arg, "keep=", 5) == 0) {
      opts.prior_keep = std::atoi(arg + 5);
    } else if (std::strncmp(arg, "target_cv=", 10) == 0) {
      opts.policy.target_cv = std::atof(arg + 10);
    } else if (std::strncmp(arg, "version=", 8) == 0) {
      const char* v = arg + 8;
      if (std::strcmp(v, "v0") == 0) version = fsbm::Version::kV0Baseline;
      else if (std::strcmp(v, "v1") == 0)
        version = fsbm::Version::kV1LookupOnDemand;
      else if (std::strcmp(v, "v2") == 0)
        version = fsbm::Version::kV2Offload2;
      else if (std::strcmp(v, "v3") == 0)
        version = fsbm::Version::kV3Offload3;
      else if (std::strcmp(v, "v3naive") == 0)
        version = fsbm::Version::kV3NaiveCollapse3;
      else {
        std::fprintf(stderr, "bench_tuner: unknown version '%s'\n", v);
        return 2;
      }
    } else if (npos < 4 && std::strchr(arg, '=') == nullptr) {
      pos[npos++] = std::atoi(arg);
    }
  }
  if (npos == 4 && pos[0] > 0) {
    nx = pos[0];
    ny = pos[1];
    nz = pos[2];
    compare_steps = pos[3];
  } else if (npos != 0) {
    std::fprintf(stderr,
                 "bench_tuner: want all four of nx ny nz nsteps "
                 "(got %d positional args)\n", npos);
    return 2;
  }

  model::RunConfig base = bench::conus_rank_patch(version, compare_steps);
  base.nx = nx;
  base.ny = ny;
  base.nz = nz;
  base.validate();

  const tune::Tuner tuner(opts);
  const tune::TuneReport rep = tuner.tune(base);
  tune::write_artifact(artifact_path, rep.artifact);

  // Tuned side goes through the artifact file, not the in-memory
  // winner: the comparison exercises the exact tune=file: round trip.
  model::RunConfig untuned = base;
  untuned.nsteps = compare_steps;
  model::RunConfig tuned_cfg = base;
  tuned_cfg.nsteps = compare_steps;
  tuned_cfg.tune = tune::TuneSpec::parse("file:" + artifact_path);

  const Side untuned_side =
      measure_side("untuned", untuned, tuner.options().policy);
  const Side tuned_side =
      measure_side("tuned", tuned_cfg, tuner.options().policy);

  // Bitwise gate: the artifact-loaded run equals the explicit-knob run.
  model::RunConfig explicit_cfg = rep.winner;
  explicit_cfg.nsteps = compare_steps;
  const std::uint64_t explicit_hash =
      model::state_hash(model::run_single(explicit_cfg));
  const bool bitwise_ok = tuned_side.hash == explicit_hash;

  // Throughput gate with a small allowance for the degenerate case
  // (winner == default knobs → the same config measured twice).
  const bool faster =
      tuned_side.cellsteps_per_s * 1.02 >= untuned_side.cellsteps_per_s;
  const bool stable = rep.entry.wall.cv <= opts.policy.target_cv;
  const int exit_code = faster && stable && bitwise_ok ? 0 : 1;

  if (json) {
    print_json(rep, untuned_side, tuned_side, artifact_path, base,
               compare_steps, bitwise_ok);
    return exit_code;
  }

  bench::print_config_header("Knob autotuner — tuned vs untuned");
  std::printf("shape: %s\n", rep.entry.shape.c_str());
  std::printf("space: %d points enumerated, %d advanced past the prior, "
              "%d timed runs total\n\n",
              rep.space_size, rep.measured_points, rep.measured_runs);

  for (const tune::Rung& rung : rep.entry.ladder) {
    std::printf("rung %d (%d steps, target CV %.2f):\n", rung.rung,
                rung.steps, rung.target_cv);
    for (const tune::RungPoint& pt : rung.points) {
      std::printf("  %c %-64s %9.4fs cv=%.3f reps=%d\n",
                  pt.survived ? '*' : ' ', pt.knobs.c_str(), pt.wall.min,
                  pt.wall.cv, pt.wall.reps);
    }
  }
  std::printf("\nwinner: %s\n", rep.entry.knobs.c_str());
  std::printf("artifact: %s (schema v%d, %s, %d hw threads)\n",
              artifact_path.c_str(), tune::kArtifactSchemaVersion,
              rep.artifact.machine.device.c_str(),
              rep.artifact.machine.hw_threads);
  std::printf("\n  %-10s %14s %12s %12s %8s %6s\n", "side", "cellsteps/s",
              "wall min s", "wall med s", "CV", "reps");
  for (const Side* s : {&untuned_side, &tuned_side}) {
    std::printf("  %-10s %14.0f %12.4f %12.4f %8.3f %6d\n", s->name,
                s->cellsteps_per_s, s->wall.min, s->wall.median, s->wall.cv,
                s->wall.reps);
  }
  std::printf("\nspeedup (tuned/untuned): %.2fx\n",
              untuned_side.cellsteps_per_s > 0
                  ? tuned_side.cellsteps_per_s / untuned_side.cellsteps_per_s
                  : 0.0);
  std::printf("gates: tuned>=untuned %s | deciding-rung CV<=%.2f %s | "
              "tune=file: bitwise identical %s\n",
              faster ? "yes" : "NO", opts.policy.target_cv,
              stable ? "yes" : "NO", bitwise_ok ? "yes" : "NO");
  return exit_code;
}
