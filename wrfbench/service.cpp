// service_mix: a closed-loop forecast service on a 2-lane svc::Scheduler
// (batch_max 4), driven only through submit / take_results / stats.
// Three clients are simulated from this one thread:
//   interactive  v3 res=persist with a deadline, one job outstanding;
//   ensemble     four same-shape v2 res=step members submitted together,
//                then a wait for all four;
//   batch        v1 host-only, one job outstanding.
// The run is a sequence of epochs, each a fixed job quota per client, so
// every epoch does the same work and the class mix behind the latency
// percentiles is fixed.

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <thread>

#include "harness.hpp"
#include "layers.hpp"
#include "svc/scheduler.hpp"
#include "workloads.hpp"

namespace wrfbench {
namespace {

using namespace wrf;

constexpr int kEnsembleMembers = 4;
/// Jobs per epoch: interactive, ensemble rounds (x members), batch.
constexpr int kInteractivePerEpoch = 8;
constexpr int kEnsembleRoundsPerEpoch = 2;
constexpr int kBatchPerEpoch = 4;
constexpr int kJobsPerEpoch = kInteractivePerEpoch +
                              kEnsembleRoundsPerEpoch * kEnsembleMembers +
                              kBatchPerEpoch;
constexpr double kInteractiveDeadlineSec = 0.5;
constexpr int kSetupTrials = 5;

/// Generates the job stream: fixed shapes per class, per-job case seeds
/// drawn from the benchmark seed.
class JobStream {
 public:
  JobStream(const Options& o) : o_(o) {}

  svc::Job next(svc::JobClass cls) { return make(cls, n_++); }

  /// Job number `index` of the stream, were it of class `cls`.
  svc::Job make(svc::JobClass cls, std::uint64_t index) const {
    svc::Job j;
    model::RunConfig& c = j.config;
    c.npx = c.npy = 1;
    c.seed = derive_seed(o_.seed, 1000 + index);
    j.cls = cls;
    switch (cls) {
      case svc::JobClass::kInteractive:
        shape(c, 16, 12, 10, 2);
        c.version = fsbm::Version::kV3Offload3;
        c.res = mem::ResidencyMode::kPersist;
        j.deadline_sec = kInteractiveDeadlineSec;
        j.name = "interactive";
        break;
      case svc::JobClass::kEnsemble:
        shape(c, 12, 12, 10, 2);
        c.version = fsbm::Version::kV2Offload2;
        c.res = mem::ResidencyMode::kStep;
        j.name = "ensemble";
        break;
      case svc::JobClass::kBatch:
        shape(c, 16, 12, 10, 2);
        c.version = fsbm::Version::kV1LookupOnDemand;
        j.name = "batch";
        break;
    }
    return j;
  }

 private:
  void shape(model::RunConfig& c, int nx, int ny, int nz, int nsteps) const {
    c.nx = nx;
    c.ny = ny;
    c.nz = nz;
    c.nsteps = o_.smoke ? 1 : nsteps;
    if (o_.smoke) {
      c.nx = 12;
      c.ny = 12;
      c.nz = 8;
    }
  }
  Options o_;
  std::uint64_t n_ = 0;
};

svc::SchedulerConfig scheduler_config(bool traced) {
  svc::SchedulerConfig sc;
  sc.lanes = 2;
  sc.batch_max = kEnsembleMembers;
  if (traced) sc.obs = obs::ObsConfig::parse("trace:obs_service_trace.json");
  return sc;
}

/// One finished job as the bench saw it.
struct Done {
  svc::JobResult result;
  double latency_s = 0.0;  ///< submit to finish
};

/// The three closed-loop clients.  `run_epoch` submits each client's
/// quota, one job (or one ensemble round) outstanding per client, and
/// returns when every job of the epoch has finished.
class Clients {
 public:
  Clients(svc::Scheduler& s, JobStream& stream, obs::TraceSink* sink)
      : s_(s), stream_(stream), sink_(sink) {}

  /// `members` is the ensemble round size (kEnsembleMembers, or 1 for
  /// the one-job-per-class warm-up).
  std::vector<Done> run_epoch(int interactive, int rounds, int batch,
                              int members = kEnsembleMembers) {
    std::array<int, svc::kNumClasses> left{interactive, rounds, batch};
    std::array<int, svc::kNumClasses> outstanding{0, 0, 0};
    std::vector<Done> done;
    for (;;) {
      for (int c = 0; c < svc::kNumClasses; ++c) {
        const auto cls = static_cast<svc::JobClass>(c);
        if (outstanding[c] > 0 || left[c] == 0) continue;
        const int n = cls == svc::JobClass::kEnsemble ? members : 1;
        for (int m = 0; m < n; ++m) submit(stream_.next(cls));
        outstanding[c] = n;
        --left[c];
      }
      if (outstanding[0] + outstanding[1] + outstanding[2] == 0) break;
      std::vector<svc::JobResult> got;
      {
        obs::Span span(sink_, "bench", "take_results");
        got = s_.take_results();
      }
      if (got.empty()) {
        // Poll gently: the client thread shares the CPUs with the lanes.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      for (svc::JobResult& r : got) {
        --outstanding[static_cast<int>(r.cls)];
        Done d;
        d.latency_s = r.finish_sec - r.submit_sec;
        d.result = std::move(r);
        done.push_back(std::move(d));
      }
    }
    return done;
  }

 private:
  void submit(svc::Job job) {
    obs::Span span(sink_, "bench", "submit");
    s_.submit(std::move(job));
  }
  svc::Scheduler& s_;
  JobStream& stream_;
  obs::TraceSink* sink_;
};

struct Epochs {
  std::vector<double> wall_s;
  std::vector<Done> jobs;
};

/// Run epochs until `seconds` have passed and at least `min_epochs` ran.
Epochs run_epochs(Clients& clients, double seconds, int min_epochs,
                  int max_epochs, int quota_scale) {
  Epochs e;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(e.wall_s.size()) < max_epochs &&
         (static_cast<int>(e.wall_s.size()) < min_epochs ||
          seconds_between(t0, Clock::now()) < seconds)) {
    const Clock::time_point a = Clock::now();
    std::vector<Done> d = clients.run_epoch(
        kInteractivePerEpoch / quota_scale,
        std::max(1, kEnsembleRoundsPerEpoch / quota_scale),
        kBatchPerEpoch / quota_scale);
    e.wall_s.push_back(seconds_between(a, Clock::now()));
    for (Done& x : d) e.jobs.push_back(std::move(x));
  }
  return e;
}

/// Output checks on every job; counts attempts and failures.
void check_jobs(Report& r, const std::vector<Done>& jobs) {
  for (const Done& d : jobs) {
    const svc::JobResult& j = d.result;
    ++r.attempted;
    bool ok = r.check(j.outcome == svc::JobOutcome::kCompleted,
                      "job " + std::to_string(j.id) + " ended " +
                          svc::job_outcome_name(j.outcome) + ": " + j.error);
    if (ok) {
      for (const io::Snapshot& s : j.run.snapshots) {
        const std::string why = check_snapshot(s);
        ok &= r.check(why.empty(), "job " + std::to_string(j.id) + ": " + why);
      }
    }
    if (!ok) ++r.failed;
  }
}

/// Modeled device ms of one job: launch latency and transfers exactly;
/// kernels from the job's last launch times its launch count (RunResult
/// keeps only the last KernelStats).
double job_modeled_ms(const model::RunResult& run) {
  double kernel = 0.0;
  if (run.last_coal_kernel) {
    kernel = run.last_coal_kernel->modeled_time_ms *
             static_cast<double>(run.kernel_launches());
  }
  return kernel + modeled_overhead_ms(run.totals.fsbm);
}

std::vector<double> latencies(const std::vector<Done>& jobs) {
  std::vector<double> v;
  for (const Done& d : jobs) v.push_back(d.latency_s);
  return v;
}

/// The scheduler's determinism gate on a fixed sample — the first job of
/// each class: a standalone model::run_single of the job's recorded
/// config must reproduce its state hash bit for bit.
void verify_service_determinism(Report& r, const std::vector<Done>& jobs) {
  std::set<int> seen;
  for (const Done& d : jobs) {
    const svc::JobResult& j = d.result;
    if (!seen.insert(static_cast<int>(j.cls)).second) continue;
    prof::Profiler prof;
    const std::uint64_t h =
        model::state_hash(model::run_single(j.config, prof));
    r.check(h == j.state_hash, std::string("job ") + std::to_string(j.id) +
                                   " (" + svc::job_class_name(j.cls) +
                                   "): state hash differs from run_single");
  }
  r.props["verify_hash_jobs"] = static_cast<double>(seen.size());
}

}  // namespace

Report run_service(const Options& o) {
  Report r;
  r.workload = "service_mix";
  JobStream stream(o);

  // Set-up: scheduler construction plus one warm-up job per class run to
  // completion — a cold start of the service — several times.
  std::vector<double> setups;
  std::unique_ptr<svc::Scheduler> sched;
  for (int t = 0; t < (o.smoke ? 1 : kSetupTrials); ++t) {
    sched.reset();
    const Clock::time_point a = Clock::now();
    sched = std::make_unique<svc::Scheduler>(scheduler_config(false));
    Clients warm(*sched, stream, nullptr);
    const std::vector<Done> w = warm.run_epoch(1, 1, 1, 1);
    setups.push_back(seconds_between(a, Clock::now()));
    check_jobs(r, w);
  }
  for (int c = 0; c < svc::kNumClasses; ++c) {
    const auto cls = static_cast<svc::JobClass>(c);
    r.notes[std::string("config_") + svc::job_class_name(cls)] =
        stream.make(cls, 0).config.describe();
  }

  const int min_epochs =
      o.smoke ? 1
              : o.trace ? kMinTracedReps
                        : (kMinOpSamples + kJobsPerEpoch - 1) / kJobsPerEpoch;
  const int max_epochs = o.smoke ? 1 : 1000;
  const int quota_scale = o.smoke ? 4 : 1;
  const double budget = o.trace ? o.seconds / 2.0 : o.seconds;

  Clients clients(*sched, stream, nullptr);
  const Epochs plain =
      run_epochs(clients, budget, min_epochs, max_epochs, quota_scale);
  const svc::ServiceStats plain_stats = sched->stats();
  sched.reset();
  const double rss = peak_rss_mb();
  put_rusage(r);
  check_jobs(r, plain.jobs);

  const std::vector<double> lat = latencies(plain.jobs);
  double epoch_total = 0.0;
  for (const double w : plain.wall_s) epoch_total += w;
  double modeled_ms = 0.0, model_steps = 0.0;
  std::array<double, svc::kNumClasses> per_class{};
  for (const Done& d : plain.jobs) {
    modeled_ms += job_modeled_ms(d.result.run);
    model_steps += d.result.config.nsteps;
    per_class[static_cast<int>(d.result.cls)] += 1.0;
  }

  if (!o.trace) {
    r.put("setup_s", median(setups), "s", kWall);
    r.put("run_s", median(plain.wall_s), "s", kWall);
    r.put("latency_p50_s", quantile(lat, 0.50), "s", kWall);
    r.put("latency_p90_s", quantile(lat, 0.90), "s", kWall);
    r.put("ops_per_s", static_cast<double>(plain.jobs.size()) / epoch_total,
          "1/s", kWall);
    r.put("modeled_device_ms_per_step", modeled_ms / model_steps, "ms",
          kModeled);
    r.put("peak_rss_mb", rss, "MB", kWall);
  } else {
    // Traced phase: a scheduler with obs=trace (its sink records every
    // lane-run job's pass/kernel spans), the bench's own spans around
    // submit/take_results/stats, and the same number of epochs.
    obs::TraceSink* sink = nullptr;
    Epochs traced;
    svc::ServiceStats stats;
    std::set<std::int64_t> measured;
    std::vector<obs::TrackEvents> tracks;
    {
      svc::Scheduler ts(scheduler_config(true));
      sink = obs::active();
      Clients warm(ts, stream, sink);
      check_jobs(r, warm.run_epoch(1, 1, 1, 1));
      const svc::ServiceStats before = ts.stats();
      Clients tc(ts, stream, sink);
      const int n = static_cast<int>(plain.wall_s.size());
      traced = run_epochs(tc, 0.0, n, n, quota_scale);
      {
        obs::Span span(sink, "bench", "stats");
        stats = ts.stats();
      }
      stats.dispatches -= before.dispatches;
      stats.batched_jobs -= before.batched_jobs;
      ts.shutdown();
      tracks = ts.trace_sink()->drain();
    }
    check_jobs(r, traced.jobs);
    for (const Done& d : traced.jobs) {
      measured.insert(static_cast<std::int64_t>(d.result.id));
    }

    Layers l;
    std::vector<double> waits, services;
    double deadline_jobs = 0.0, deadline_met = 0.0;
    double l2_sum = 0.0, l2_n = 0.0;
    for (const Done& d : traced.jobs) {
      const svc::JobResult& j = d.result;
      l.totals.merge(j.run.totals);
      l.setup_s += j.run.wall_sec - j.run.totals.wall_sec;
      l.step_s += j.run.totals.wall_sec;
      l.halo_wall_s += j.run.totals.halo_wall_sec;
      l.halo_bytes += static_cast<double>(j.run.totals.halo_bytes);
      l.resident_bytes = std::max(
          l.resident_bytes, static_cast<double>(j.run.resident_bytes_per_rank));
      l.pool_bytes = std::max(l.pool_bytes,
                              static_cast<double>(j.run.pool_bytes_per_rank));
      if (j.run.last_coal_kernel) {
        const gpu::KernelStats& k = *j.run.last_coal_kernel;
        const double n = static_cast<double>(j.run.kernel_launches());
        l.dram_gb += (k.dram_read_gb + k.dram_write_gb) * n;
        l2_sum += k.l2_hit_rate * n;
        l2_n += n;
      }
      waits.push_back(j.wait_sec());
      services.push_back(j.service_sec());
      if (j.has_deadline()) {
        deadline_jobs += 1.0;
        if (j.deadline_met()) deadline_met += 1.0;
      }
    }
    l.l2_hit_rate = l2_n > 0.0 ? l2_sum / l2_n : 0.0;
    l.wait_p50_s = quantile(waits, 0.50);
    l.wait_p90_s = quantile(waits, 0.90);
    l.service_p50_s = median(services);
    l.dispatches = static_cast<double>(stats.dispatches);
    l.batched_jobs = static_cast<double>(stats.batched_jobs);
    l.occupancy = stats.occupancy();
    l.deadline_met = deadline_jobs > 0.0 ? deadline_met / deadline_jobs : 1.0;
    l.rejected = static_cast<double>(stats.rejected());
    l.failed = static_cast<double>(stats.failed());
    l.ledger = build_ledger(
        tracks, [&measured](const obs::TraceEvent& e, std::string* layer) {
          if (std::string(e.cat) == "svc") {
            return measured.count(event_arg(e, "id")) ? Role::kEnvelope
                                                      : Role::kIgnore;
          }
          *layer = model_layer(e);
          return layer->empty() ? Role::kIgnore : Role::kLayer;
        });
    l.kernel_modeled_ms = l.ledger.kernel_modeled_ms;
    l.kernel_host_ms = static_cast<double>(l.ledger.kernel_us) * 1e-3;
    l.launches = static_cast<double>(l.ledger.launches);
    l.trace_overhead = median(traced.wall_s) / median(plain.wall_s) - 1.0;
    put_layers(r, l, static_cast<double>(traced.wall_s.size()));
    r.props["traced_epochs"] = static_cast<double>(traced.wall_s.size());
  }

  // Traffic properties behind the numbers.
  r.props["nproc"] = host_cpus();
  r.props["affinity_cpus"] = affinity_cpus();
  r.props["lanes"] = 2;
  r.props["epochs"] = static_cast<double>(plain.wall_s.size());
  r.props["jobs_per_epoch"] = kJobsPerEpoch / quota_scale;
  for (int c = 0; c < svc::kNumClasses; ++c) {
    const std::string cls = svc::job_class_name(static_cast<svc::JobClass>(c));
    std::vector<double> v;
    for (const Done& d : plain.jobs) {
      if (static_cast<int>(d.result.cls) == c) v.push_back(d.latency_s);
    }
    r.props["jobs_" + cls] = per_class[static_cast<std::size_t>(c)];
    r.props["latency_p50_" + cls + "_s"] = median(v);
  }
  r.props["latency_samples"] = static_cast<double>(lat.size());
  r.props["latency_samples_beyond_p90"] =
      static_cast<double>(samples_beyond(lat, 0.90));
  r.props["setup_samples"] = static_cast<double>(setups.size());
  r.notes["run_s_samples"] = join(plain.wall_s);
  r.notes["setup_s_samples"] = join(setups);
  r.props["batches"] = static_cast<double>(plain_stats.batches);
  r.props["deadline_met_share"] =
      plain_stats.cls[0].deadline_jobs > 0
          ? static_cast<double>(plain_stats.cls[0].deadline_met) /
                static_cast<double>(plain_stats.cls[0].deadline_jobs)
          : 1.0;
  r.props["llc_bytes"] = static_cast<double>(llc_bytes());

  verify_service_determinism(r, plain.jobs);
  return r;
}

}  // namespace wrfbench
