#pragma once
// The forecast-service scheduler: many scenario jobs, one shared pool.
//
// A `Scheduler` owns N worker *lanes* — each lane models one execution
// slot of the shared machine (one rank's worth of host threads plus, for
// offloaded jobs, one simulated GPU of `lane_spec`).  Clients submit
// `svc::Job`s; the scheduler:
//
//  * admits a job only if its device footprint estimate (the shared
//    perfmodel::resident_footprint_bytes formula, via
//    svc::job_footprint_bytes) fits a lane's DeviceSpec::dram_bytes —
//    oversized jobs are rejected up front with a typed reason, never
//    killed mid-run by the residency subsystem's OOM;
//  * picks the next job by hierarchical fair-share between the job
//    classes (weights in SchedulerConfig::class_weights), with
//    deadline-aware tie-breaking (svc/fairshare.hpp);
//  * batches small same-shape ensemble members onto one lane dispatch,
//    as long as their summed footprints co-fit the lane's DRAM;
//  * runs each job through `model::run_single`, which keeps no state
//    across runs, so per-job results are bitwise identical to a
//    standalone run of the same RunConfig (the determinism gate:
//    model::state_hash equality, asserted in tests/test_svc.cpp and
//    examples/forecast_service.cpp).
//
// Every job leaves as a `JobResult` carrying the full RunStats/FsbmStats
// plus queue/admission/service timestamps; `ServiceStats` aggregates the
// service-level view (per-class wall and wait, pool occupancy).

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gpu/device.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "svc/fairshare.hpp"
#include "svc/job.hpp"
#include "tune/artifact.hpp"

namespace wrf::svc {

struct SchedulerConfig {
  int lanes = 2;
  /// Device model every lane exposes; a job's config is normalized to
  /// run against it, and admission checks against its dram_bytes.
  gpu::DeviceSpec lane_spec = gpu::DeviceSpec::a100_40gb();
  /// Max ensemble members co-dispatched onto one lane (1 = no batching).
  int batch_max = 4;
  /// Fair-share weights per class, indexed by JobClass.
  std::array<double, kNumClasses> class_weights{8.0, 3.0, 1.0};
  /// Construct with dispatch paused: jobs queue but no lane picks any
  /// until resume().  Lets callers (and tests) submit a whole stream
  /// first, so dispatch order is a pure function of the queue contents.
  bool start_paused = false;
  /// Service-level observability.  `metrics` writes a Prometheus text
  /// snapshot at shutdown; `trace` additionally installs a TraceSink for
  /// the scheduler's lifetime — lifecycle instants (submit/admit/
  /// dispatch/batch/complete) plus every lane-run job's internal spans,
  /// one track per lane thread — and writes Chrome trace JSON.  Job
  /// configs are normalized to obs=off either way (the scheduler's sink
  /// sees their spans; jobs never write their own export files), so
  /// shape keys, state hashes, and results stay identical to obs=off.
  obs::ObsConfig obs;
  /// Service-level autotuning.  file:<path> loads a tuned.json artifact
  /// at construction (errors throw there, never on a lane); auto loads
  /// ./tuned.json when present.  At submit, a job whose shape matches a
  /// tuned entry gets the winning performance-neutral knobs applied as
  /// part of normalization — before shape keys, footprints, and
  /// admission — and its JobResult::config records the explicit tuned
  /// knobs with tune=off, so the standalone-rerun determinism gate
  /// holds unchanged.  A job carrying its own tune= spec wins over the
  /// scheduler's artifact.  Lanes never touch the filesystem for this:
  /// the artifact is read once, here.
  tune::TuneSpec tune;
};

/// What submit() returns: the job's id and its admission verdict.  A
/// rejected job never reaches a lane; its JobResult (outcome kRejected)
/// is still recorded for take_results().
struct Ticket {
  std::uint64_t id = 0;
  bool admitted = false;
  RejectReason reason = RejectReason::kNone;
  std::string message;
};

/// Per-class service aggregates.
struct ClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double wait_total_sec = 0.0;     ///< queue wait, completed+failed jobs
  double wait_max_sec = 0.0;
  double service_total_sec = 0.0;  ///< lane time, completed+failed jobs
  double service_max_sec = 0.0;
  double wall_total_sec = 0.0;     ///< RunResult::wall_sec, completed jobs
  std::uint64_t deadline_jobs = 0;
  std::uint64_t deadline_met = 0;
  /// Every completed/failed job's queue wait, in recording order — the
  /// sample set behind the wait quantiles below.
  std::vector<double> wait_samples_sec;

  /// Linear-interpolated quantile of wait_samples_sec (q in [0, 1]);
  /// 0 when the class has no finished jobs yet.
  double wait_quantile_sec(double q) const;
  double wait_p50_sec() const { return wait_quantile_sec(0.50); }
  double wait_p95_sec() const { return wait_quantile_sec(0.95); }
};

/// Aggregate service view, a snapshot of Scheduler::stats().
struct ServiceStats {
  std::array<ClassStats, kNumClasses> cls;
  int lanes = 0;
  std::uint64_t dispatches = 0;    ///< lane pick-ups (a batch counts once)
  std::uint64_t batches = 0;       ///< dispatches carrying > 1 job
  std::uint64_t batched_jobs = 0;  ///< jobs that rode a batch of > 1
  double lane_busy_sec = 0.0;      ///< summed busy wall across lanes
  double first_start_sec = 0.0;    ///< earliest dispatch timestamp
  double last_finish_sec = 0.0;    ///< latest completion timestamp
  bool any_dispatched = false;

  std::uint64_t submitted() const noexcept;
  std::uint64_t admitted() const noexcept;
  std::uint64_t rejected() const noexcept;
  std::uint64_t completed() const noexcept;
  std::uint64_t failed() const noexcept;

  /// Busy span of the pool, first dispatch to last completion.
  double makespan_sec() const noexcept {
    return any_dispatched ? last_finish_sec - first_start_sec : 0.0;
  }
  /// Average lanes concurrently busy over the makespan (<= lanes).  On
  /// any host — even a single hardware thread timeslicing the lanes —
  /// this approaches `lanes` when the pool is saturated, because lane
  /// busy windows overlap in wall time.
  double pool_parallelism() const noexcept {
    const double span = makespan_sec();
    return span > 0.0 ? lane_busy_sec / span : 0.0;
  }
  /// pool_parallelism normalized by pool width, in [0, 1].
  double occupancy() const noexcept {
    return lanes > 0 ? pool_parallelism() / lanes : 0.0;
  }

  /// publish() contract (obs/registry.hpp): fold the service view into
  /// `reg` — per-class job counts (state label), wait/service/wall
  /// second totals and wait p50/p95 gauges, plus pool-level dispatch/
  /// batch counters and makespan/occupancy gauges, all under wrf_svc_*
  /// names.  Counter values equal the fields above exactly.
  void publish(obs::Registry& reg) const;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& config);
  ~Scheduler();  ///< shutdown() if the caller has not

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validate, normalize (single-rank, lane device spec), and admit or
  /// reject `job`.  Thread-safe; returns immediately.
  Ticket submit(Job job);

  /// Release dispatch after SchedulerConfig::start_paused.
  void resume();

  /// Block until every admitted job has left the system (queue empty,
  /// all lanes idle).  Implies resume().
  void drain();

  /// Stop accepting work, finish queued jobs, join the lanes.  Runs the
  /// queue dry first — call take_results() afterwards for the tail.
  void shutdown();

  /// Move out all JobResults recorded so far (completed, failed, and
  /// rejected), in recording order.  Thread-safe.
  std::vector<JobResult> take_results();

  /// Snapshot of the aggregate counters.  Thread-safe.
  ServiceStats stats() const;

  /// Seconds since the scheduler's epoch (its construction) — the
  /// clock JobResult timestamps are expressed in.
  double now_sec() const;

  const SchedulerConfig& config() const noexcept { return config_; }

  /// The scheduler's trace sink (null when SchedulerConfig::obs is off).
  /// Read it only after shutdown() — lanes emit into it while running.
  const obs::TraceSink* trace_sink() const noexcept { return sink_.get(); }

 private:
  struct Pending {
    Job job;             ///< normalized config inside
    JobResult result;    ///< pre-filled identity + submit timestamp
  };

  void lane_loop(int lane);
  /// Record a finished (or rejected) result and fold it into stats_.
  /// Caller holds mu_.
  void record_locked(JobResult&& result);

  SchedulerConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  /// Loaded once in the ctor from SchedulerConfig::tune; applied to
  /// matching-shape jobs during submit-time normalization.
  std::optional<tune::Artifact> tuned_;
  /// Observability: the sink outlives the lanes; the ScopedActive makes
  /// it the process-wide sink for the scheduler's lifetime (trace mode),
  /// so lane-run jobs' internal spans land here.  Exports happen in
  /// shutdown(), after the lanes have joined.
  std::unique_ptr<obs::TraceSink> sink_;
  std::unique_ptr<obs::ScopedActive> active_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< lanes wait: work or shutdown
  std::condition_variable idle_cv_;   ///< drain() waits: all quiet
  bool paused_ = false;
  bool stopping_ = false;
  int busy_lanes_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_dispatch_ = 1;  ///< lane pick-ups (JobResult::batch_seq)
  std::uint64_t next_job_dispatch_ = 1;  ///< jobs leaving the queue
  FairShareTree tree_;                ///< one leaf per JobClass
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<JobResult> results_;
  ServiceStats stats_;

  std::vector<std::thread> lanes_;
};

}  // namespace wrf::svc
