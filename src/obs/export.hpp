#pragma once
// Observability: the three exporters and the flat-profile fold.
//
//   * Chrome trace-event JSON — load in chrome://tracing or Perfetto
//     (ui.perfetto.dev > "Open trace file").  One track (tid) per
//     emitting thread/lane; spans are balanced B/E pairs with
//     monotonically non-decreasing timestamps per track (gated in
//     tests/test_obs.cpp and the ci.sh span-balance check).
//   * Metrics JSONL — one {"type":"step",...} record per model step
//     (the rebalancer-facing time series), followed by one
//     {"type":"metric",...} line per registry entry.
//   * Prometheus text exposition — a snapshot of a Registry, written by
//     the forecast service (svc::Scheduler::shutdown).
//   * gprof-style flat profile — a pure fold over drained spans (the
//     paper's Table I view): calls, inclusive, exclusive and % exclusive
//     per `cat/name` row.  It reads the same spans as the trace, so the
//     two can never disagree.
//
// The write_* helpers create parent directories as needed and throw
// util Error on I/O failure, so a mistyped obs=trace:path fails loudly
// instead of silently dropping the trace.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace wrf::obs {

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

/// Render tracks as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}; pid 0, tid = track id).
std::string chrome_trace_json(const std::vector<TrackEvents>& tracks);

/// Drain `sink` and write the Chrome trace to `path`.
void write_chrome_trace(const TraceSink& sink, const std::string& path);

/// Render the step series + registry as metrics JSONL.
std::string metrics_jsonl(const std::vector<StepRecord>& steps,
                          const Registry& reg);

void write_metrics_jsonl(const TraceSink& sink, const Registry& reg,
                         const std::string& path);

/// Render a Registry in Prometheus text exposition format
/// (# TYPE comments; counters end in _total).
std::string prometheus_text(const Registry& reg);

void write_prometheus(const Registry& reg, const std::string& path);

/// One row of a flat profile: every span with one `cat/name` key.
struct FlatRow {
  std::string name;  ///< "cat/name", e.g. "fsbm/fast_sbm"
  std::uint64_t calls = 0;
  double inclusive_sec = 0.0;
  double exclusive_sec = 0.0;  ///< inclusive minus nested child spans
  double percent_exclusive = 0.0;  ///< of total exclusive time
};

/// Fold drained tracks into a flat profile, sorted by exclusive time
/// descending.  Each track's B/E stack attributes a span's inclusive
/// time to its parent's children, so exclusive time is the span's own;
/// a span nested in a same-named one counts as a second call, as gprof
/// counts recursion.  Rows sum over tracks (the "all ranks aggregated"
/// view); percentages are of the summed exclusive time, which is how
/// gprof normalizes its "% time" column.  Throws Error naming the track
/// when a track's spans do not balance or its timestamps go backwards.
std::vector<FlatRow> flat_profile(const std::vector<TrackEvents>& tracks);

/// The row keyed `key` ("cat/name"); an all-zero row when absent.
FlatRow flat_row(const std::vector<FlatRow>& rows, const std::string& key);

/// Render rows as a gprof-like text table.
std::string format_flat_profile(const std::vector<FlatRow>& rows);

}  // namespace wrf::obs
