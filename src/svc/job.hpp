#pragma once
// Forecast-service job model: one scenario run as a schedulable unit.
//
// The examples hardcode one scenario per binary — grid dims, case knobs
// (`exec/res/halo/fuse`), step count — and run it to completion.
// `svc::Job` captures exactly that tuple plus the service-level facts a
// production scheduler needs: a priority class (interactive vs ensemble
// vs batch), an optional deadline, and a name.  `svc::JobResult` carries
// the full `model::RunResult` (every RunStats/FsbmStats counter) plus the
// queue/admission/service timestamps, so the service is observable from
// day one and every job can be audited against a standalone run of the
// same config (the bitwise determinism gate, `model::state_hash`).

#include <cstdint>
#include <string>

#include "model/driver.hpp"

namespace wrf::svc {

/// Priority classes of the fair-share tree, heaviest first.  Interactive
/// is the on-demand forecast a user is waiting on; ensemble members are
/// the bread-and-butter bulk traffic; batch is reanalysis/backfill work
/// that soaks up whatever is left.
enum class JobClass : int { kInteractive = 0, kEnsemble = 1, kBatch = 2 };
inline constexpr int kNumClasses = 3;

const char* job_class_name(JobClass c);
/// Parse "interactive" | "ensemble" | "batch"; throws ConfigError.
JobClass parse_job_class(const std::string& s);

/// One scenario job: what `examples/` hardcode today, as data.
struct Job {
  model::RunConfig config;  ///< grid, case, knobs, step count, seed
  JobClass cls = JobClass::kBatch;
  /// Seconds after submit by which the job should finish; <= 0 = none.
  /// Deadlines order jobs *within* a class (earliest first) and break
  /// fair-share ties *between* classes; they are scheduling hints, not
  /// guarantees — `JobResult::deadline_met()` reports the outcome.
  double deadline_sec = 0.0;
  std::string name;
};

/// Why admission refused a job — typed, so callers can branch on the
/// reason instead of parsing a message.
enum class RejectReason : int {
  kNone = 0,
  /// The job's device footprint exceeds a lane's DeviceSpec::dram_bytes:
  /// it could never run without the residency subsystem's paper-style
  /// out-of-memory error, so it is refused up front, never mid-run.
  kOverDeviceMemory = 1,
  kBadConfig = 2,     ///< RunConfig::validate rejected the namelist
  kShuttingDown = 3,  ///< submitted after shutdown began
};
const char* reject_reason_name(RejectReason r);

enum class JobOutcome : int {
  kCompleted = 0,
  kRejected = 1,  ///< refused at admission; `reject` says why
  kFailed = 2,    ///< threw mid-run (e.g. the §VI-B device heap error)
};
const char* job_outcome_name(JobOutcome o);

/// Everything the service knows about one job after it leaves the
/// system.  Timestamps are seconds since the scheduler's epoch.
struct JobResult {
  std::uint64_t id = 0;
  std::string name;
  JobClass cls = JobClass::kBatch;
  /// The effective config the job ran with: single-rank normalized and
  /// carrying the lane's DeviceSpec (lanes are the hardware; a job
  /// inherits the device it lands on).  Re-running this config through
  /// `model::run_single` standalone must reproduce `state_hash` exactly.
  model::RunConfig config;
  JobOutcome outcome = JobOutcome::kRejected;
  RejectReason reject = RejectReason::kNone;
  std::string error;  ///< what() of a mid-run throw (kFailed)

  model::RunResult run;         ///< full run stats (kCompleted only)
  std::uint64_t state_hash = 0; ///< model::state_hash of `run`
  std::uint64_t footprint_bytes = 0;  ///< admission estimate

  double submit_sec = 0.0;
  double start_sec = 0.0;   ///< dispatch onto a lane (kCompleted/kFailed)
  double finish_sec = 0.0;
  double deadline_abs_sec = 0.0;  ///< submit + deadline; 0 = none

  int lane = -1;
  std::uint64_t dispatch_seq = 0;  ///< global dispatch order (1-based)
  std::uint64_t batch_seq = 0;     ///< which lane dispatch carried it
  int batch_size = 1;              ///< jobs co-scheduled in that dispatch

  double wait_sec() const noexcept { return start_sec - submit_sec; }
  double service_sec() const noexcept { return finish_sec - start_sec; }
  bool has_deadline() const noexcept { return deadline_abs_sec > 0.0; }
  bool deadline_met() const noexcept {
    return !has_deadline() || finish_sec <= deadline_abs_sec;
  }
};

/// Admission-control footprint: the device bytes one rank of `cfg` pins
/// (or, under res=step, transiently demands) — the same inventory the
/// residency subsystem allocates, priced through the shared
/// perfmodel::resident_footprint_bytes helper so the scheduler and the
/// paper's ranks-per-GPU model agree on per-rank bytes.  Exact for the
/// mini scheme: equals RunResult::resident_bytes_per_rank +
/// pool_bytes_per_rank of a res=persist run of the same config
/// (asserted in tests/test_svc.cpp).  0 for host-only configurations.
std::uint64_t job_footprint_bytes(const model::RunConfig& cfg);

/// Batching key: two jobs with equal keys run the same shape and knob
/// set (grid, nkr, version, exec/halo/res/fuse, step count) and may
/// share one lane dispatch.  Seeds are deliberately excluded — ensemble
/// members differ only by their perturbation seed.
std::string job_shape_key(const model::RunConfig& cfg);

}  // namespace wrf::svc
