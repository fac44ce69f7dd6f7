#pragma once
// Shared pieces of the repo benchmark: the metric report every workload
// fills, output checks, percentiles, host facts, and the span ledger that
// turns a traced run into per-layer self times.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "obs/trace.hpp"

namespace wrfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options; the seed is the only source of input variation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes, one rep: the benchmark's own tests
};

/// Clocks a metric can be measured on.
inline constexpr const char* kWall = "wall";        ///< emulator host wall
inline constexpr const char* kModeled = "modeled";  ///< gpusim model
inline constexpr const char* kCount = "count";      ///< no clock

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;
};

/// Everything one run reports.  Metrics go to the result line; props
/// (numbers) and notes (strings) are the traffic properties that explain
/// the metrics; check failures make the run exit non-zero.
struct Report {
  std::string workload;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> props;
  std::map<std::string, std::string> notes;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< operations (rank-steps or jobs)
  std::uint64_t failed = 0;     ///< operations that threw or failed a check
  std::uint64_t checks = 0;     ///< output checks evaluated

  void put(const std::string& name, double v, const char* unit,
           const char* clock) {
    metrics[name] = Metric{v, unit, clock};
  }
  /// Record one output check; returns `ok`.
  bool check(bool ok, const std::string& what);
  std::string json() const;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Comma-separated samples, for the report's notes.
std::string join(const std::vector<double>& v);

/// Number of samples strictly above the q-quantile — the support behind
/// a tail percentile.
std::size_t samples_beyond(const std::vector<double>& v, double q);

/// Output check on one snapshot: every value finite, every condensate
/// (Q_*) non-negative.  Returns "" on pass, else what failed.
std::string check_snapshot(const wrf::io::Snapshot& s);

/// Sum of the RAINNC surface precipitation field (0 when absent).
double snapshot_precip(const wrf::io::Snapshot& s);

/// Process peak resident set size, MB (getrusage).
double peak_rss_mb();
/// Process CPU time, page faults and context switches so far (getrusage),
/// as report props.
void put_rusage(Report& r);
/// Online CPUs and the CPUs this process may run on.
int host_cpus();
int affinity_cpus();
/// Last-level cache size in bytes (sysconf; 0 when unknown).
std::uint64_t llc_bytes();

/// Per-layer self times of a traced run.  Layers: model (halo pack/unpack
/// and the halo rounds), dyn (rk_* passes), par (barriers and halo waits),
/// fsbm (fast_sbm and its host passes), gpu (device launches).  The
/// envelope spans define the step wall; whatever an envelope does not
/// hand to a child span is `unattributed_us`.  Times are integer
/// microseconds, so layers + unattributed == envelope exactly.
struct Ledger {
  std::map<std::string, std::int64_t> layer_us;
  std::int64_t envelope_us = 0;
  std::int64_t unattributed_us = 0;
  std::int64_t kernel_us = 0;       ///< inclusive kernel span wall
  double kernel_modeled_ms = 0.0;   ///< from kernel span modeled_us args
  std::uint64_t launches = 0;

  double seconds(const std::string& layer) const;
};

/// How a span takes part in the ledger.
enum class Role { kIgnore, kEnvelope, kLayer };

/// Classify a span from its begin event: envelope spans open a ledger
/// window; layer spans inside one are charged to `*layer`.
using Classifier = std::function<Role(const wrf::obs::TraceEvent& begin,
                                      std::string* layer)>;

/// Walk every track and build the ledger.  Child spans of a layer span
/// are charged to their own layer; the parent keeps only its self time.
Ledger build_ledger(const std::vector<wrf::obs::TrackEvents>& tracks,
                    const Classifier& classify);

/// The layer of a model-internal span (pass/kernel/halo/fsbm), or "" when
/// the span is not a model layer span.
std::string model_layer(const wrf::obs::TraceEvent& e);

/// Integer arg of an event (0 when absent).
std::int64_t event_arg(const wrf::obs::TraceEvent& e, const char* key);

}  // namespace wrfbench
