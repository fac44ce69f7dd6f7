// The repo benchmark's measuring program.  Runs one named workload with
// a seed for a time budget and prints one JSON report line: every metric
// with its unit and clock, the traffic properties behind them, and the
// output checks.  run.py builds this program and turns the report into
// the result line.
//
//   wrfbench --workload storm_bin|storm_hybrid|service_mix --seed N
//            --seconds S --trace 0|1 [--smoke]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  wrfbench::Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string k = argv[a];
    const char* v = a + 1 < argc ? argv[a + 1] : nullptr;
    if (k == "--smoke") {
      o.smoke = true;
    } else if (v != nullptr && k == "--workload") {
      o.workload = v, ++a;
    } else if (v != nullptr && k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10), ++a;
    } else if (v != nullptr && k == "--seconds") {
      o.seconds = std::atof(v), ++a;
    } else if (v != nullptr && k == "--trace") {
      o.trace = std::atoi(v) != 0, ++a;
    } else {
      std::fprintf(stderr, "wrfbench: bad argument '%s'\n", k.c_str());
      return 2;
    }
  }
  try {
    wrfbench::Report r;
    if (o.workload == "storm_bin") {
      r = wrfbench::run_storm(o, o.workload, wrf::fsbm::PhysScheme::kBin);
    } else if (o.workload == "storm_hybrid") {
      r = wrfbench::run_storm(o, o.workload, wrf::fsbm::PhysScheme::kHybrid);
    } else if (o.workload == "service_mix") {
      r = wrfbench::run_service(o);
    } else {
      std::fprintf(stderr, "wrfbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
    std::printf("%s\n", r.json().c_str());
    return r.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wrfbench: %s\n", e.what());
    return 1;
  }
}
