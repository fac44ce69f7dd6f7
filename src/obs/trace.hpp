#pragma once
// Observability: the low-overhead trace recorder and the obs= knob.
//
// A TraceSink records spans (begin/end pairs) and instant events into
// per-thread buffers: each emitting thread appends to its own buffer
// (registered once, under a mutex; appends are lock-free thereafter),
// so concurrent emitters — simpi rank threads, the hetero host-shard
// thread, scheduler lanes — never contend or race.  One buffer becomes
// one track in the Chrome-trace export, which is also why per-track
// timestamps are monotone by construction: buffer order is emission
// order.
//
// Instrumentation sites use the zero-cost-when-off OBS_SPAN macro: it
// reads the process-wide active-sink pointer (one atomic load) and does
// nothing when no sink is installed, so `obs=off` runs execute the same
// instructions as a build without the hooks — the bitwise-identity
// guarantee tests/test_obs.cpp gates on.  Installing a sink only adds
// timestamping and buffer appends; no event ever feeds back into the
// physics, so `obs=trace` leaves state hashes and stats untouched.
//
// Event taxonomy (category / name / args):
//   step     solve_interval   one RankModel::step (RK3 + fast_sbm) — the
//                             denominator of the Table I flat profile
//   pass     <pass name>      pass dispatch through an exec space
//                             (space, tiles, iters; shard lists too)
//   pass     rk_stage0        dyn::Rk3's stage-0 copy fused with the
//                             live-bin hull scan (host loop, no args)
//   kernel   <kernel name>    simulated device launch (iters,
//                             fused_passes, modeled_us)
//   xfer     h2d | d2h        device-level transfer accounting — the
//                             reconciliation source: summed bytes equal
//                             gpu::TransferStats and FsbmStats exactly
//   region   <field name>     DataRegion verb (dir, bytes, spans)
//   halo     begin | finish   one halo round (round, bytes, wait_us)
//   fidelity census           hybrid promote/demote sweep result
//   fsbm     fast_sbm         one microphysics step
//   svc      submit | admit | dispatch | batch | complete | <job name>
//                             scheduler lifecycle (lane, id, class)

#include <array>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wrf::obs {

// ------------------------------------------------------------ obs= knob

enum class ObsMode { kOff, kMetrics, kTrace };

/// The `obs=off|metrics|trace[:path]` knob.  `off` records nothing;
/// `metrics` collects the per-step time series + registry totals and
/// writes metrics JSONL; `trace` additionally installs the active
/// TraceSink and writes Chrome trace-event JSON.  The optional `:path`
/// overrides the export file.
struct ObsConfig {
  ObsMode mode = ObsMode::kOff;
  std::string path;  ///< export file override; "" = mode default

  bool off() const noexcept { return mode == ObsMode::kOff; }
  bool trace() const noexcept { return mode == ObsMode::kTrace; }

  /// Effective export path for the selected mode.
  std::string export_path() const;

  /// Parse "off" | "metrics[:path]" | "trace[:path]"; throws ConfigError.
  static ObsConfig parse(const std::string& s);
  std::string describe() const;
};

// --------------------------------------------------------------- events

/// POD argument for hot-path spans: keys and string values must be
/// string literals (or otherwise outlive the sink), so constructing one
/// on the obs=off path costs nothing.
struct Arg {
  const char* key;
  bool is_str;
  std::int64_t i;
  const char* s;
  template <std::integral T>
  constexpr Arg(const char* k, T v)
      : key(k), is_str(false), i(static_cast<std::int64_t>(v)), s(nullptr) {}
  constexpr Arg(const char* k, const char* v)
      : key(k), is_str(true), i(0), s(v) {}
};

/// Owned argument as stored on an event (string values copied, so
/// dynamic names like job ids are safe).
struct ArgVal {
  const char* key = "";
  bool is_str = false;
  std::int64_t i = 0;
  std::string s;
  ArgVal() = default;
  template <std::integral T>
  ArgVal(const char* k, T v)
      : key(k), is_str(false), i(static_cast<std::int64_t>(v)) {}
  ArgVal(const char* k, std::string v)
      : key(k), is_str(true), s(std::move(v)) {}
  ArgVal(const char* k, const char* v) : key(k), is_str(true), s(v) {}
  ArgVal(const Arg& a)  // NOLINT(google-explicit-constructor)
      : key(a.key), is_str(a.is_str), i(a.i), s(a.is_str ? a.s : "") {}
};

/// One trace event: 'B' (span begin), 'E' (span end), or 'i' (instant),
/// with a microsecond timestamp relative to the sink's epoch.
struct TraceEvent {
  std::string name;
  const char* cat = "";
  char phase = 'i';
  std::uint64_t ts_us = 0;
  std::vector<ArgVal> args;
};

/// One per-thread buffer, drained as one export track.
struct TrackEvents {
  int track = 0;
  std::vector<TraceEvent> events;
};

/// One line of the per-step metrics time series (metrics JSONL): the
/// rebalancer-facing slice of StepStats, recorded by the run helpers.
struct StepRecord {
  int step = 0;
  int rank = 0;
  double wall_sec = 0.0;
  double fsbm_wall_sec = 0.0;
  double coal_wall_sec = 0.0;
  double halo_wall_sec = 0.0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t shard_cells_device = 0;
  std::uint64_t shard_cells_host = 0;
  std::uint64_t cells_bin = 0;
  std::uint64_t cells_bulk = 0;
};

// ---------------------------------------------------------------- sink

/// The trace recorder.  Thread-safe for concurrent emission (per-thread
/// buffers); drain() and steps() must not race live emitters — call
/// them after the run's worker threads have been joined (or are
/// quiescent through a join/barrier edge).
class TraceSink {
 public:
  TraceSink();
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Microseconds since this sink's construction.
  std::uint64_t now_us() const noexcept;

  /// Append a fully-formed event to the calling thread's buffer.
  void append(TraceEvent e);

  /// Emit an instant event.
  void instant(const char* cat, std::string name,
               std::vector<ArgVal> args = {});

  /// Record one step of the metrics time series (mutex-guarded; cold).
  void record_step(const StepRecord& r);

  /// Copy out every thread's events, one track per thread, in each
  /// track's emission (= time) order.
  std::vector<TrackEvents> drain() const;

  /// Copy of the step series, sorted by (step, rank).
  std::vector<StepRecord> steps() const;

  /// Total events currently buffered (diagnostic).
  std::size_t event_count() const;

  /// One thread's buffer (implementation detail, public only for the
  /// TLS registry in trace.cpp).
  struct ThreadBuf {
    int track = 0;
    std::vector<TraceEvent> events;
  };

 private:
  friend class Span;
  ThreadBuf& tls() const;

  std::uint64_t gen_;  ///< global generation, detects stale TLS entries
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex reg_mu_;                         ///< buffer registry
  mutable std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  mutable std::mutex step_mu_;
  std::vector<StepRecord> steps_;
};

// --------------------------------------------------------- active sink

/// The process-wide active sink OBS_SPAN instruments against; nullptr
/// (the default) means every hook is a single load-and-branch.
TraceSink* active() noexcept;
void set_active(TraceSink* sink) noexcept;

/// RAII install/restore of the active sink.
class ScopedActive {
 public:
  explicit ScopedActive(TraceSink* sink);
  ~ScopedActive();
  ScopedActive(const ScopedActive&) = delete;
  ScopedActive& operator=(const ScopedActive&) = delete;

 private:
  TraceSink* prev_;
};

// ----------------------------------------------------------------- span

/// RAII span: emits 'B' at construction (with the ctor args) and 'E' at
/// destruction (with any arg() added in between).  A null sink makes
/// every member a no-op.
class Span {
 public:
  Span(TraceSink* sink, const char* cat, const char* name);
  Span(TraceSink* sink, const char* cat, const char* name,
       std::initializer_list<Arg> args);
  /// Dynamic-name variant (job names); guard the call site with
  /// active() if constructing the name is itself costly.
  Span(TraceSink* sink, const char* cat, std::string name,
       std::initializer_list<Arg> args = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach an argument to the closing 'E' event.
  void arg(const char* key, std::int64_t v);
  void arg(const char* key, const char* v);

 private:
  void open(const char* cat, std::string name,
            std::initializer_list<Arg> args);
  TraceSink* sink_;
  const char* cat_ = "";
  std::string name_;
  std::array<ArgVal, 6> end_args_;
  int n_end_args_ = 0;
};

#define WRF_OBS_CAT2_(a, b) a##b
#define WRF_OBS_CAT_(a, b) WRF_OBS_CAT2_(a, b)

/// The instrumentation hook: a scoped span against the active sink.
///   OBS_SPAN("pass", p.name);
///   OBS_SPAN("halo", "begin", {{"round", r}, {"bytes", b}});
/// Zero-cost when no sink is installed (one atomic load + branch; the
/// POD args carry only literals and integers).
#define OBS_SPAN(...)                                      \
  ::wrf::obs::Span WRF_OBS_CAT_(obs_span_, __LINE__) {     \
    ::wrf::obs::active(), __VA_ARGS__                      \
  }

}  // namespace wrf::obs
