// Tune the performance-neutral knobs (exec, halo, res, fuse) of one
// shape on this machine and write the tuned.json artifact that
// `tune=file:<path>` and `tune=auto` apply.
//
//   tune_cli [nx ny nz nsteps] [version=v0|v1|v2|v3|v3naive]
//            [artifact=<path>] [keep=N] [target_cv=X] [knob=value ...]
//
// Default: the 107x75x50 CONUS rank patch, v3, 2 steps, ./tuned.json,
// 10 candidates past the perfmodel prior, CV target 0.1.  Other knobs
// of the table (phys=, ...) set the shape being tuned.  Prints the
// successive-halving ladder and the winner.  A bad argument exits 2.

#include <cstdio>
#include <string>
#include <vector>

#include "model/knobs.hpp"
#include "tune/tuner.hpp"

using namespace wrf;

namespace {

fsbm::Version parse_version(const std::string& v) {
  const std::pair<const char*, fsbm::Version> names[] = {
      {"v0", fsbm::Version::kV0Baseline},
      {"v1", fsbm::Version::kV1LookupOnDemand},
      {"v2", fsbm::Version::kV2Offload2},
      {"v3", fsbm::Version::kV3Offload3},
      {"v3naive", fsbm::Version::kV3NaiveCollapse3}};
  for (const auto& [name, version] : names) {
    if (v == name) return version;
  }
  throw ConfigError("version=" + v + ": want v0 | v1 | v2 | v3 | v3naive");
}

int run(int argc, char** argv) {
  model::RunConfig base;
  base.nx = 107;
  base.ny = 75;
  base.nz = 50;
  base.npx = base.npy = 1;
  base.nsteps = 2;
  base.version = fsbm::Version::kV3Offload3;
  const auto own = model::apply_knob_args(
      base, argc, argv, {"artifact", "keep", "target_cv", "version"});
  std::vector<std::string> pos;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]).find('=') == std::string::npos) {
      pos.emplace_back(argv[a]);
    }
  }
  if (!pos.empty()) {
    if (pos.size() != 4) {
      throw ConfigError("want all four of nx ny nz nsteps (got " +
                        std::to_string(pos.size()) + " positional args)");
    }
    base.nx = model::parse_count("nx", pos[0]);
    base.ny = model::parse_count("ny", pos[1]);
    base.nz = model::parse_count("nz", pos[2]);
    base.nsteps = model::parse_count("nsteps", pos[3]);
  }
  tune::TunerOptions opts;
  opts.prior_keep = 10;
  opts.policy.max_reps = 8;
  if (own.count("keep")) {
    opts.prior_keep = model::parse_count("keep", own.at("keep"));
  }
  if (own.count("target_cv")) {
    opts.policy.target_cv = model::parse_real("target_cv", own.at("target_cv"));
  }
  if (own.count("version")) base.version = parse_version(own.at("version"));
  const std::string path =
      own.count("artifact") ? own.at("artifact") : "tuned.json";
  base.validate();

  const tune::TuneReport rep = tune::Tuner(opts).tune(base);
  tune::write_artifact(path, rep.artifact);

  std::printf("shape: %s\n", rep.entry.shape.c_str());
  std::printf("space: %d points enumerated, %d advanced past the prior, "
              "%d timed runs\n\n",
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
  std::printf("\nwinner: %s (deciding CV %.3f)\n", rep.entry.knobs.c_str(),
              rep.entry.wall.cv);
  std::printf("artifact: %s (schema v%d, %s, %d hw threads)\n", path.c_str(),
              tune::kArtifactSchemaVersion,
              rep.artifact.machine.device.c_str(),
              rep.artifact.machine.hw_threads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return model::run_main(run, argc, argv); }
