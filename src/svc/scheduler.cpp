#include "svc/scheduler.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/export.hpp"
#include "util/error.hpp"

namespace wrf::svc {
namespace {

int class_index(JobClass c) { return static_cast<int>(c); }

/// Deterministic scheduling cost of one job: domain cells x steps.
/// Charging cost units instead of wall seconds makes the dispatch
/// sequence a pure function of the queue contents — the property the
/// test_svc fair-share laws rely on (and why a paused-submit stream
/// dispatches in the same order on any machine, at any pool width).
double job_cost(const model::RunConfig& cfg) {
  return static_cast<double>(cfg.domain().cells()) *
         static_cast<double>(cfg.nsteps);
}

}  // namespace

double ClassStats::wait_quantile_sec(double q) const {
  if (wait_samples_sec.empty()) return 0.0;
  std::vector<double> v = wait_samples_sec;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void ServiceStats::publish(obs::Registry& reg) const {
  for (int c = 0; c < kNumClasses; ++c) {
    const ClassStats& cs = cls[static_cast<std::size_t>(c)];
    const std::string name = job_class_name(static_cast<JobClass>(c));
    auto J = [&](const char* state, std::uint64_t n) {
      reg.counter("wrf_svc_jobs_total", static_cast<double>(n),
                  {{"class", name}, {"state", state}});
    };
    J("submitted", cs.submitted);
    J("admitted", cs.admitted);
    J("rejected", cs.rejected);
    J("completed", cs.completed);
    J("failed", cs.failed);
    reg.counter("wrf_svc_wait_seconds_total", cs.wait_total_sec,
                {{"class", name}});
    reg.counter("wrf_svc_service_seconds_total", cs.service_total_sec,
                {{"class", name}});
    reg.counter("wrf_svc_run_wall_seconds_total", cs.wall_total_sec,
                {{"class", name}});
    reg.counter("wrf_svc_deadline_jobs_total",
                static_cast<double>(cs.deadline_jobs), {{"class", name}});
    reg.counter("wrf_svc_deadline_met_total",
                static_cast<double>(cs.deadline_met), {{"class", name}});
    reg.gauge("wrf_svc_wait_seconds", cs.wait_p50_sec(),
              {{"class", name}, {"quantile", "0.5"}});
    reg.gauge("wrf_svc_wait_seconds", cs.wait_p95_sec(),
              {{"class", name}, {"quantile", "0.95"}});
    reg.gauge("wrf_svc_wait_max_seconds", cs.wait_max_sec,
              {{"class", name}});
    reg.gauge("wrf_svc_service_max_seconds", cs.service_max_sec,
              {{"class", name}});
  }
  reg.gauge("wrf_svc_lanes", static_cast<double>(lanes));
  reg.counter("wrf_svc_dispatches_total", static_cast<double>(dispatches));
  reg.counter("wrf_svc_batches_total", static_cast<double>(batches));
  reg.counter("wrf_svc_batched_jobs_total",
              static_cast<double>(batched_jobs));
  reg.counter("wrf_svc_lane_busy_seconds_total", lane_busy_sec);
  reg.gauge("wrf_svc_makespan_seconds", makespan_sec());
  reg.gauge("wrf_svc_occupancy", occupancy());
}

std::uint64_t ServiceStats::submitted() const noexcept {
  std::uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.submitted;
  return n;
}

std::uint64_t ServiceStats::admitted() const noexcept {
  std::uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.admitted;
  return n;
}

std::uint64_t ServiceStats::rejected() const noexcept {
  std::uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.rejected;
  return n;
}

std::uint64_t ServiceStats::completed() const noexcept {
  std::uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.completed;
  return n;
}

std::uint64_t ServiceStats::failed() const noexcept {
  std::uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.failed;
  return n;
}

Scheduler::Scheduler(const SchedulerConfig& config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  if (config_.lanes < 1) {
    throw ConfigError("svc::Scheduler: need at least one lane");
  }
  if (config_.batch_max < 1) {
    throw ConfigError("svc::Scheduler: batch_max must be >= 1");
  }
  for (int c = 0; c < kNumClasses; ++c) {
    // Throws ConfigError on a non-positive weight.
    tree_.add_leaf(job_class_name(static_cast<JobClass>(c)),
                   config_.class_weights[static_cast<std::size_t>(c)]);
  }
  paused_ = config_.start_paused;
  stats_.lanes = config_.lanes;
  if (!config_.tune.off()) {
    // One artifact read for the scheduler's lifetime.  file: is strict
    // (a missing or malformed artifact throws here, before any lane
    // starts); auto treats a missing ./tuned.json as "not tuned yet".
    const std::string path = config_.tune.artifact_path();
    if (config_.tune.mode == tune::TuneMode::kFile ||
        std::ifstream(path).good()) {
      tuned_ = tune::load_artifact(path);
    }
  }
  if (!config_.obs.off()) {
    sink_ = std::make_unique<obs::TraceSink>();
    if (config_.obs.trace()) {
      // Process-wide install: the spans every lane-run job emits (pass
      // dispatches, kernels, transfers) flow into the service trace,
      // one track per lane thread.
      active_ = std::make_unique<obs::ScopedActive>(sink_.get());
    }
  }
  lanes_.reserve(static_cast<std::size_t>(config_.lanes));
  for (int l = 0; l < config_.lanes; ++l) {
    lanes_.emplace_back([this, l] { lane_loop(l); });
  }
}

Scheduler::~Scheduler() { shutdown(); }

double Scheduler::now_sec() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Ticket Scheduler::submit(Job job) {
  // Normalize outside the lock: the service runs every job single-rank
  // on one lane, against the lane's device model.  JobResult::config
  // records this effective config, so re-running it standalone through
  // model::run_single reproduces the job bit for bit.  Observability is
  // the scheduler's, never the job's: forcing obs=off keeps lane runs
  // from writing export files or re-installing sinks (the scheduler's
  // own sink still sees their spans) and keeps shape keys stable.
  job.config.npx = 1;
  job.config.npy = 1;
  job.config.device_spec = config_.lane_spec;
  job.config.obs = obs::ObsConfig{};

  RejectReason why = RejectReason::kNone;
  std::string message;
  try {
    // Tuning is part of normalization, ahead of shape keys, footprint,
    // and admission: the recorded config carries the explicit tuned
    // knobs with tune=off, so re-running it standalone needs no
    // artifact and reproduces the job bit for bit.  A job-supplied
    // tune= spec wins over the scheduler's artifact; either failing
    // (missing file, malformed artifact) is a kBadConfig rejection.
    if (!job.config.tune.off()) {
      tune::apply(job.config);
      job.config.tune = tune::TuneSpec{};
    } else if (tuned_) {
      tune::apply_artifact(job.config, *tuned_);
    }
    job.config.validate();
  } catch (const std::exception& e) {
    why = RejectReason::kBadConfig;
    message = e.what();
  }
  std::uint64_t footprint = 0;
  if (why == RejectReason::kNone) {
    footprint = job_footprint_bytes(job.config);
    if (footprint > config_.lane_spec.dram_bytes) {
      why = RejectReason::kOverDeviceMemory;
      message = "job '" + job.name + "' needs " +
                std::to_string(footprint) + " device bytes but the lane's " +
                config_.lane_spec.name + " has " +
                std::to_string(config_.lane_spec.dram_bytes) +
                " (would fail the residency out-of-memory check mid-run)";
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (why == RejectReason::kNone && stopping_) {
    why = RejectReason::kShuttingDown;
    message = "scheduler is shutting down";
  }

  Ticket ticket;
  ticket.id = next_id_++;
  ClassStats& cs = stats_.cls[static_cast<std::size_t>(class_index(job.cls))];
  ++cs.submitted;
  if (sink_) {
    sink_->instant("svc", "submit",
                   {{"id", ticket.id},
                    {"class", job_class_name(job.cls)},
                    {"job", job.name}});
  }

  const double now = now_sec();
  JobResult result;
  result.id = ticket.id;
  result.name = job.name;
  result.cls = job.cls;
  result.config = job.config;
  result.footprint_bytes = footprint;
  result.submit_sec = now;
  result.deadline_abs_sec =
      job.deadline_sec > 0.0 ? now + job.deadline_sec : 0.0;

  if (why != RejectReason::kNone) {
    ticket.admitted = false;
    ticket.reason = why;
    ticket.message = message;
    result.outcome = JobOutcome::kRejected;
    result.reject = why;
    result.error = message;
    record_locked(std::move(result));
    return ticket;
  }

  ++cs.admitted;
  if (sink_) {
    sink_->instant("svc", "admit",
                   {{"id", ticket.id},
                    {"class", job_class_name(job.cls)},
                    {"footprint_bytes", footprint}});
  }
  QueueEntry entry;
  entry.id = ticket.id;
  entry.seq = next_seq_++;
  entry.deadline = result.deadline_abs_sec;
  entry.cost = job_cost(job.config);
  entry.footprint_bytes = footprint;
  entry.shape_key = job_shape_key(job.config);

  Pending pending;
  pending.job = std::move(job);
  pending.result = std::move(result);
  const int leaf = class_index(pending.job.cls);
  pending_.emplace(ticket.id, std::move(pending));
  tree_.push(leaf, std::move(entry));

  ticket.admitted = true;
  work_cv_.notify_one();
  return ticket;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Scheduler::drain() {
  resume();
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return tree_.empty() && busy_lanes_ == 0; });
}

void Scheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ && lanes_.empty()) return;  // idempotent
    stopping_ = true;
    paused_ = false;  // queued jobs still run dry before the lanes exit
  }
  work_cv_.notify_all();
  for (std::thread& t : lanes_) {
    if (t.joinable()) t.join();
  }
  lanes_.clear();

  // Lanes are joined: the sink is quiescent, exports are safe.  The
  // Prometheus snapshot is the forecast service's scrape file; trace
  // mode additionally writes the Chrome trace (obs path override).
  active_.reset();
  if (sink_) {
    obs::Registry reg;
    stats().publish(reg);
    obs::write_prometheus(reg, "obs_service.prom");
    if (config_.obs.trace()) {
      const std::string path = config_.obs.path.empty()
                                   ? "obs_service_trace.json"
                                   : config_.obs.path;
      obs::write_chrome_trace(*sink_, path);
    }
  }
}

std::vector<JobResult> Scheduler::take_results() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobResult> out = std::move(results_);
  results_.clear();
  return out;
}

ServiceStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Scheduler::record_locked(JobResult&& result) {
  ClassStats& cs =
      stats_.cls[static_cast<std::size_t>(class_index(result.cls))];
  switch (result.outcome) {
    case JobOutcome::kRejected:
      ++cs.rejected;
      break;
    case JobOutcome::kCompleted:
    case JobOutcome::kFailed: {
      if (result.outcome == JobOutcome::kCompleted) {
        ++cs.completed;
        cs.wall_total_sec += result.run.wall_sec;
      } else {
        ++cs.failed;
      }
      const double wait = result.wait_sec();
      const double service = result.service_sec();
      cs.wait_total_sec += wait;
      cs.wait_samples_sec.push_back(wait);
      if (wait > cs.wait_max_sec) cs.wait_max_sec = wait;
      cs.service_total_sec += service;
      if (service > cs.service_max_sec) cs.service_max_sec = service;
      if (result.has_deadline()) {
        ++cs.deadline_jobs;
        if (result.deadline_met()) ++cs.deadline_met;
      }
      if (result.finish_sec > stats_.last_finish_sec) {
        stats_.last_finish_sec = result.finish_sec;
      }
      if (sink_) {
        sink_->instant("svc", "complete",
                       {{"id", result.id},
                        {"lane", result.lane},
                        {"class", job_class_name(result.cls)},
                        {"outcome", job_outcome_name(result.outcome)}});
      }
      break;
    }
  }
  results_.push_back(std::move(result));
}

void Scheduler::lane_loop(int lane) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] {
      return stopping_ || (!paused_ && !tree_.empty());
    });
    if (tree_.empty()) {
      if (stopping_) return;
      continue;  // spurious wake vs a faster lane; re-wait
    }

    // Pick the next job by fair-share, then grow the dispatch into a
    // batch: same class, same shape key (grid + knobs + step count —
    // ensemble members differing only by seed), as long as the summed
    // footprints co-fit the lane's device memory.
    int leaf = -1;
    std::vector<QueueEntry> picked;
    picked.push_back(tree_.pop_next(&leaf));
    std::uint64_t budget =
        config_.lane_spec.dram_bytes - picked.front().footprint_bytes;
    while (static_cast<int>(picked.size()) < config_.batch_max) {
      QueueEntry extra;
      if (!tree_.pop_matching(leaf, picked.front().shape_key, budget,
                              &extra)) {
        break;
      }
      budget -= extra.footprint_bytes;
      picked.push_back(std::move(extra));
    }

    const std::uint64_t batch_seq = next_dispatch_++;
    ++stats_.dispatches;
    if (picked.size() > 1) {
      ++stats_.batches;
      stats_.batched_jobs += picked.size();
    }
    std::vector<Pending> batch;
    batch.reserve(picked.size());
    for (QueueEntry& e : picked) {
      auto it = pending_.find(e.id);
      Pending p = std::move(it->second);
      pending_.erase(it);
      p.result.lane = lane;
      p.result.dispatch_seq = next_job_dispatch_++;
      p.result.batch_seq = batch_seq;
      p.result.batch_size = static_cast<int>(picked.size());
      batch.push_back(std::move(p));
    }
    ++busy_lanes_;
    const double batch_start = now_sec();
    if (!stats_.any_dispatched || batch_start < stats_.first_start_sec) {
      stats_.first_start_sec = batch_start;
      stats_.any_dispatched = true;
    }
    if (sink_) {
      sink_->instant("svc", "dispatch",
                     {{"lane", lane},
                      {"batch_seq", batch_seq},
                      {"jobs", batch.size()},
                      {"class", job_class_name(batch.front().job.cls)}});
      if (batch.size() > 1) {
        sink_->instant("svc", "batch",
                       {{"lane", lane},
                        {"batch_seq", batch_seq},
                        {"jobs", batch.size()}});
      }
    }
    lk.unlock();

    // Run the batch back to back on this lane, scheduler unlocked.  Each
    // job's RunResult is exactly what a standalone model::run_single of
    // the same config produces.
    for (Pending& p : batch) {
      JobResult& r = p.result;
      r.start_sec = now_sec();
      {
        // Span the whole lane occupancy of this job; its internal run
        // spans nest underneath on the same (lane-thread) track.
        obs::Span job_span(sink_.get(), "svc",
                           sink_ ? r.name : std::string(),
                           {{"id", r.id},
                            {"lane", lane},
                            {"batch_seq", batch_seq}});
        try {
          r.run = model::run_single(r.config);
          r.state_hash = model::state_hash(r.run);
          r.outcome = JobOutcome::kCompleted;
        } catch (const std::exception& e) {
          r.outcome = JobOutcome::kFailed;
          r.error = e.what();
        }
        job_span.arg("outcome", job_outcome_name(r.outcome));
      }
      r.finish_sec = now_sec();
      std::lock_guard<std::mutex> rec(mu_);
      record_locked(std::move(r));
    }

    lk.lock();
    --busy_lanes_;
    stats_.lane_busy_sec += now_sec() - batch_start;
    if (tree_.empty() && busy_lanes_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace wrf::svc
