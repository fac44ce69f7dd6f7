// Forecast service demo: many scenario jobs, one shared pool.
//
// An operational center does not run one forecast at a time.  It runs a
// mixed stream — an on-demand nowcast with a deadline, a perturbed
// ensemble, low-priority reanalysis — over one fixed allocation of
// ranks and GPUs.  This example drives svc::Scheduler through exactly
// that stream and then *audits* the service guarantees:
//
//   * the over-DRAM scenario is rejected at admission with a typed
//     reason (never killed mid-run by the residency OOM check);
//   * same-shape ensemble members ride shared lane dispatches;
//   * every completed job's state hash is bitwise identical to a
//     standalone model::run_single of the recorded config.
//
// Exits non-zero if any guarantee fails, so CI can run it as a check.
//
// Build & run:
//   cmake --build build && ./build/forecast_service [lanes=N]
//                                                   [obs=metrics|trace[:path]]
//                                                   [tune=auto|file:tuned.json]
//
// With obs on, the scheduler writes obs_service.prom (Prometheus text) at
// shutdown; obs=trace additionally writes a Chrome/Perfetto trace with one
// track per lane.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "svc/scheduler.hpp"

using namespace wrf;

namespace {

model::RunConfig scenario(int nx, int ny, int nz, int nsteps,
                          fsbm::Version v, mem::ResidencyMode res,
                          std::uint64_t seed) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.nsteps = nsteps;
  cfg.npx = cfg.npy = 1;
  cfg.version = v;
  cfg.res = res;
  cfg.seed = seed;
  return cfg;
}

int lanes_from_args(int argc, char** argv) {
  for (int n = 1; n < argc; ++n) {
    if (std::strncmp(argv[n], "lanes=", 6) == 0) {
      return std::atoi(argv[n] + 6);
    }
  }
  return 2;
}

const char* outcome_name(svc::JobOutcome o) {
  switch (o) {
    case svc::JobOutcome::kCompleted: return "completed";
    case svc::JobOutcome::kRejected: return "REJECTED";
    case svc::JobOutcome::kFailed: return "FAILED";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  svc::SchedulerConfig sc;
  sc.lanes = lanes_from_args(argc, argv);
  sc.batch_max = 4;
  sc.start_paused = true;  // submit the whole stream, then release it
  sc.obs = obs::obs_from_args(argc, argv);  // off | metrics | trace[:path]
  sc.tune = tune::tune_from_args(argc, argv);  // off | auto | file:<path>

  std::printf("miniWRF-SBM forecast service\n============================\n");
  std::printf("pool: %d lanes of %s (%.1f GB DRAM each)\n",
              sc.lanes, sc.lane_spec.name.c_str(),
              static_cast<double>(sc.lane_spec.dram_bytes) / (1u << 30));
  std::printf("fair-share weights: interactive %.0f / ensemble %.0f / "
              "batch %.0f, batch_max %d\n\n",
              sc.class_weights[0], sc.class_weights[1], sc.class_weights[2],
              sc.batch_max);

  svc::Scheduler sched(sc);
  std::vector<svc::Ticket> tickets;

  // --- the stream -------------------------------------------------------
  // Two on-demand nowcasts with deadlines.
  for (int n = 0; n < 2; ++n) {
    svc::Job job;
    job.name = "nowcast-" + std::to_string(n);
    job.cls = svc::JobClass::kInteractive;
    job.deadline_sec = 120.0;
    job.config = scenario(24, 16, 10, 2, fsbm::Version::kV3Offload3,
                          mem::ResidencyMode::kPersist, 100 + n);
    tickets.push_back(sched.submit(job));
  }
  // A four-member perturbed ensemble: same shape, different seeds —
  // candidates for batched lane dispatches.
  for (int n = 0; n < 4; ++n) {
    svc::Job job;
    job.name = "member-" + std::to_string(n);
    job.cls = svc::JobClass::kEnsemble;
    job.config = scenario(20, 14, 8, 2, fsbm::Version::kV2Offload2,
                          mem::ResidencyMode::kStep, 200 + n);
    tickets.push_back(sched.submit(job));
  }
  // Background reanalysis, host-only, no deadline.
  for (int n = 0; n < 2; ++n) {
    svc::Job job;
    job.name = "reanalysis-" + std::to_string(n);
    job.cls = svc::JobClass::kBatch;
    job.config = scenario(16, 12, 8, 3, fsbm::Version::kV1LookupOnDemand,
                          mem::ResidencyMode::kStep, 300 + n);
    tickets.push_back(sched.submit(job));
  }
  // A continental-scale v3 scenario that cannot fit one lane's device:
  // admission must bounce it with a typed reason before any allocation.
  {
    svc::Job job;
    job.name = "continental-oversize";
    job.cls = svc::JobClass::kBatch;
    job.config = scenario(4000, 3000, 50, 1, fsbm::Version::kV3Offload3,
                          mem::ResidencyMode::kPersist, 400);
    tickets.push_back(sched.submit(job));
  }

  std::printf("submitted %zu jobs", tickets.size());
  int rejected_at_admission = 0;
  for (const svc::Ticket& t : tickets) {
    if (!t.admitted) {
      ++rejected_at_admission;
      std::printf("\n  admission rejected job %llu (%s):\n    %s",
                  static_cast<unsigned long long>(t.id),
                  svc::reject_reason_name(t.reason), t.message.c_str());
    }
  }
  std::printf("\n\n");

  sched.drain();
  const svc::ServiceStats stats = sched.stats();
  sched.shutdown();
  std::vector<svc::JobResult> results = sched.take_results();

  // --- per-job table ----------------------------------------------------
  std::printf("%-22s %-12s %-10s %5s %5s %6s %9s %9s  %s\n",
              "job", "class", "outcome", "lane", "batch", "size",
              "wait_s", "run_s", "deadline");
  for (const svc::JobResult& r : results) {
    if (r.outcome == svc::JobOutcome::kRejected) {
      std::printf("%-22s %-12s %-10s %5s %5s %6s %9s %9s  -\n",
                  r.name.c_str(), svc::job_class_name(r.cls),
                  outcome_name(r.outcome), "-", "-", "-", "-", "-");
      continue;
    }
    std::printf("%-22s %-12s %-10s %5d %5llu %6d %9.3f %9.3f  %s\n",
                r.name.c_str(), svc::job_class_name(r.cls),
                outcome_name(r.outcome), r.lane,
                static_cast<unsigned long long>(r.batch_seq), r.batch_size,
                r.wait_sec(), r.service_sec(),
                !r.has_deadline() ? "-" : r.deadline_met() ? "met" : "MISSED");
  }

  // --- service view -----------------------------------------------------
  std::printf("\nservice stats: %llu submitted, %llu completed, "
              "%llu rejected, %llu failed\n",
              static_cast<unsigned long long>(stats.submitted()),
              static_cast<unsigned long long>(stats.completed()),
              static_cast<unsigned long long>(stats.rejected()),
              static_cast<unsigned long long>(stats.failed()));
  std::printf("dispatches: %llu (%llu batched jobs in %llu batches)\n",
              static_cast<unsigned long long>(stats.dispatches),
              static_cast<unsigned long long>(stats.batched_jobs),
              static_cast<unsigned long long>(stats.batches));
  std::printf("makespan %.3f s, pool parallelism %.2f of %d lanes "
              "(occupancy %.0f%%)\n",
              stats.makespan_sec(), stats.pool_parallelism(), stats.lanes,
              100.0 * stats.occupancy());
  for (int c = 0; c < svc::kNumClasses; ++c) {
    const svc::ClassStats& cs = stats.cls[static_cast<std::size_t>(c)];
    if (cs.submitted == 0) continue;
    const std::uint64_t done = cs.completed + cs.failed;
    std::printf("  %-12s %llu done, mean wait %.3f s (max %.3f), "
                "deadlines met %llu/%llu\n",
                svc::job_class_name(static_cast<svc::JobClass>(c)),
                static_cast<unsigned long long>(done),
                done > 0 ? cs.wait_total_sec / static_cast<double>(done) : 0.0,
                cs.wait_max_sec,
                static_cast<unsigned long long>(cs.deadline_met),
                static_cast<unsigned long long>(cs.deadline_jobs));
  }

  // --- audit the guarantees --------------------------------------------
  int failures = 0;
  if (rejected_at_admission != 1) {
    std::printf("\nFAIL: expected exactly 1 admission rejection, saw %d\n",
                rejected_at_admission);
    ++failures;
  }
  if (stats.batches == 0) {
    std::printf("\nFAIL: no ensemble members were batched\n");
    ++failures;
  }
  std::printf("\nre-running every completed job standalone "
              "(bitwise determinism gate)...\n");
  for (const svc::JobResult& r : results) {
    if (r.outcome != svc::JobOutcome::kCompleted) continue;
    const model::RunResult solo = model::run_single(r.config);
    const std::uint64_t solo_hash = model::state_hash(solo);
    const bool ok = solo_hash == r.state_hash &&
                    solo.totals.fsbm.surface_precip ==
                        r.run.totals.fsbm.surface_precip &&
                    solo.totals.fsbm.cells_active == r.run.totals.fsbm.cells_active;
    std::printf("  %-22s hash %016llx  %s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.state_hash),
                ok ? "== standalone" : "MISMATCH vs standalone");
    if (!ok) ++failures;
  }
  if (stats.failed() != 0) {
    std::printf("FAIL: %llu jobs failed mid-run\n",
                static_cast<unsigned long long>(stats.failed()));
    ++failures;
  }

  std::printf("\n%s\n", failures == 0 ? "all service guarantees hold"
                                      : "SERVICE GUARANTEES VIOLATED");
  return failures == 0 ? 0 : 1;
}
