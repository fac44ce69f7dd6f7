// Scenario example: the CONUS-12km-style thunderstorm case, integrated
// for a stretch of simulated time with the optimized (v3) scheme, with
// storm diagnostics and a diffwrf-style verification against the CPU
// build — the Section IV / VII-B workflow as a user would run it.
//
// Run: ./build/conus_thunderstorm [nx ny nz nsteps] [exec=threads:N|hetero:N]
//      [halo=sync|overlap] [phys=bin|bulk|hybrid] [obs=trace[:path]]
//      [out=path]   (history file; default build/conus_thunderstorm_out.bin)
// Any knob of the table (model/knobs.hpp) is accepted; a bad one exits 2.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "model/driver.hpp"
#include "model/knobs.hpp"
#include "obs/export.hpp"

using namespace wrf;

int run(int argc, char** argv) {
  // Positional [nx ny nz nsteps]; any key=value knob may sit anywhere.
  int pos[4] = {72, 54, 30, 12};  // nsteps default: one simulated minute
  const char* const names[4] = {"nx", "ny", "nz", "nsteps"};
  int npos = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]).find('=') != std::string::npos) continue;
    if (npos == 4) throw ConfigError("want at most nx ny nz nsteps");
    pos[npos] = model::parse_count(names[npos], argv[a]);
    ++npos;
  }
  model::RunConfig cfg;
  cfg.nx = pos[0];
  cfg.ny = pos[1];
  cfg.nz = pos[2];
  cfg.nsteps = pos[3];
  cfg.npx = 2;
  cfg.npy = 2;
  cfg.version = fsbm::Version::kV3Offload3;
  const auto own = model::apply_knob_args(cfg, argc, argv, {"out"});
  const std::string out_path = own.count("out")
                                   ? own.at("out")
                                   : "build/conus_thunderstorm_out.bin";
  cfg.validate();

  std::printf("CONUS-like thunderstorm\n=======================\n%s\n\n",
              cfg.describe().c_str());

  // Per-step storm diagnostics on a single-patch twin so we can reach
  // into the state conveniently.
  model::RunConfig solo = cfg;
  solo.npx = solo.npy = 1;
  const grid::Patch patch =
      grid::decompose(solo.domain(), 1, 1, solo.halo)[0];
  model::RankModel storm(solo, patch, nullptr);
  storm.init();

  // The storm loop drives RankModel directly (not run_single), so the
  // example owns its trace sink: installed after init() so the recorded
  // window matches what FsbmStats charges, exported after the loop.
  std::unique_ptr<obs::TraceSink> sink;
  std::unique_ptr<obs::ScopedActive> active;
  if (!solo.obs.off()) {
    sink = std::make_unique<obs::TraceSink>();
    if (solo.obs.trace()) {
      active = std::make_unique<obs::ScopedActive>(sink.get());
    }
  }
  model::StepStats totals;

  std::printf("%6s %14s %14s %14s %12s\n", "step", "cloud frac",
              "max liquid", "total precip", "wall (s)");
  for (int s = 0; s < solo.nsteps; ++s) {
    const model::StepStats st = storm.step();
    if (sink) {
      obs::StepRecord rec;
      rec.step = s;
      rec.rank = 0;
      rec.wall_sec = st.wall_sec;
      rec.fsbm_wall_sec = st.fsbm.wall_total_sec;
      rec.coal_wall_sec = st.fsbm.wall_coal_sec;
      rec.halo_wall_sec = st.halo_wall_sec;
      rec.halo_bytes = st.halo_bytes;
      rec.h2d_bytes = st.fsbm.h2d_bytes;
      rec.d2h_bytes = st.fsbm.d2h_bytes;
      rec.kernel_launches = st.fsbm.kernel_launches;
      rec.shard_cells_device = st.fsbm.shard_cells_device;
      rec.shard_cells_host = st.fsbm.shard_cells_host;
      rec.cells_bin = st.fsbm.cells_bin;
      rec.cells_bulk = st.fsbm.cells_bulk;
      sink->record_step(rec);
    }
    totals.merge(st);
    const auto& state = storm.state();
    float max_liq = 0.0f;
    double precip = 0.0;
    for (int j = patch.jp.lo; j <= patch.jp.hi; ++j) {
      for (int i = patch.ip.lo; i <= patch.ip.hi; ++i) {
        precip += state.precip(i, 0, j);
        for (int k = patch.k.lo; k <= patch.k.hi; ++k) {
          const float* sl = state.ff[0].slice(i, k, j);
          float q = 0.0f;
          for (int n = 0; n < solo.nkr; ++n) q += sl[n];
          max_liq = std::max(max_liq, q);
        }
      }
    }
    std::printf("%6d %14.4f %14.3e %14.3e %12.3f\n", s + 1,
                model::cloudy_fraction(state), max_liq, precip, st.wall_sec);
  }

  // Export before anything else runs: the verification twin below would
  // otherwise emit into (or, with its own obs knob, overwrite) the
  // storm's trace.
  active.reset();
  if (sink) {
    const std::string obs_path = solo.obs.export_path();
    if (solo.obs.trace()) {
      obs::write_chrome_trace(*sink, obs_path);
    } else {
      obs::Registry reg;
      totals.fsbm.publish(reg);
      obs::write_metrics_jsonl(*sink, reg, obs_path);
    }
    std::printf("\nobs %s written to %s (%llu events)\n",
                solo.obs.trace() ? "trace" : "metrics", obs_path.c_str(),
                static_cast<unsigned long long>(sink->event_count()));
  }

  if (storm.device() != nullptr) {
    const auto& launches = storm.device()->launches();
    if (!launches.empty()) {
      const auto& k = launches.back();
      std::printf("\nlast collision kernel: %lld lanes, modeled %.2f ms, "
                  "occupancy %.1f%% (%s-limited)\n",
                  static_cast<long long>(k.iterations), k.modeled_time_ms,
                  100.0 * k.occupancy.achieved, k.occupancy.limiter);
    }
  }

  // Verification against the CPU build (diffwrf workflow).  The twin
  // runs with obs off — its run must not disturb the storm's exports.
  std::printf("\nverification vs CPU build (diffstate):\n");
  model::RunConfig cpu_cfg = solo;
  cpu_cfg.version = fsbm::Version::kV1LookupOnDemand;
  cpu_cfg.obs = obs::ObsConfig{};
  const model::RunResult cpu = model::run_single(cpu_cfg);
  const io::DiffReport rep =
      io::diffstate(cpu.snapshots[0], storm.snapshot(), 1e-12);
  std::printf("%s", rep.format().c_str());
  std::printf("worst agreement: %.2f digits (paper §VII-B: 3-6 digits)\n",
              rep.worst_digits);

  // Write the history file like a real run would (out= overrides; the
  // default keeps run artifacts out of the source tree, under build/).
  const std::filesystem::path op(out_path);
  if (op.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(op.parent_path(), ec);
  }
  storm.snapshot().write(out_path);
  std::printf("\nhistory written to %s\n", out_path.c_str());
  return 0;
}

int main(int argc, char** argv) { return model::run_main(run, argc, argv); }
