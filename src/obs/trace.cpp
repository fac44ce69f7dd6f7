#include "obs/trace.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "util/error.hpp"

namespace wrf::obs {

// ------------------------------------------------------------ obs= knob

namespace {
constexpr const char* kModeNames[] = {"off", "metrics", "trace"};
}

std::string ObsConfig::export_path() const {
  if (!path.empty()) return path;
  return mode == ObsMode::kTrace ? "obs_trace.json" : "obs_metrics.jsonl";
}

ObsConfig ObsConfig::parse(const std::string& s) {
  const std::size_t colon = s.find(':');
  const auto name = std::find(std::begin(kModeNames), std::end(kModeNames),
                              s.substr(0, colon));
  if (name == std::end(kModeNames)) {
    throw ConfigError("ObsConfig: unknown obs mode '" + s +
                      "' (want off | metrics[:path] | trace[:path])");
  }
  ObsConfig cfg;
  cfg.mode = static_cast<ObsMode>(name - std::begin(kModeNames));
  if (colon != std::string::npos) {
    cfg.path = s.substr(colon + 1);
    if (cfg.path.empty() || cfg.off()) {
      throw ConfigError("ObsConfig: obs='" + s +
                        "' (a path must be non-empty, after metrics or trace)");
    }
  }
  return cfg;
}

std::string ObsConfig::describe() const {
  std::string out = kModeNames[static_cast<int>(mode)];
  if (!path.empty()) out += ":" + path;
  return out;
}

// ---------------------------------------------------------------- sink

namespace {

std::atomic<std::uint64_t> g_sink_gen{1};
std::atomic<TraceSink*> g_active{nullptr};

struct TlsEntry {
  std::uint64_t gen = 0;
  TraceSink::ThreadBuf* buf = nullptr;
};
// Per-thread map from sink instance to its buffer.  The buffers belong
// to their sink, so a dying thread frees only its map and never touches
// a live sink.  Stale entries — a new sink at a recycled address — are
// detected by the generation stamp.
thread_local std::unordered_map<const TraceSink*, TlsEntry> t_bufs;

}  // namespace

TraceSink::TraceSink()
    : gen_(g_sink_gen.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceSink::~TraceSink() {
  if (active() == this) set_active(nullptr);
}

std::uint64_t TraceSink::now_us() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceSink::ThreadBuf& TraceSink::tls() const {
  TlsEntry& e = t_bufs[this];
  if (e.buf == nullptr || e.gen != gen_) {
    std::lock_guard<std::mutex> lk(reg_mu_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->track = static_cast<int>(bufs_.size());
    e.buf = buf.get();
    e.gen = gen_;
    bufs_.push_back(std::move(buf));
  }
  return *e.buf;
}

void TraceSink::append(TraceEvent e) { tls().events.push_back(std::move(e)); }

void TraceSink::instant(const char* cat, std::string name,
                        std::vector<ArgVal> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = 'i';
  e.ts_us = now_us();
  e.args = std::move(args);
  append(std::move(e));
}

void TraceSink::record_step(const StepRecord& r) {
  std::lock_guard<std::mutex> lk(step_mu_);
  steps_.push_back(r);
}

std::vector<TrackEvents> TraceSink::drain() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::vector<TrackEvents> out;
  out.reserve(bufs_.size());
  for (const auto& b : bufs_) {
    if (b->events.empty()) continue;
    TrackEvents t;
    t.track = b->track;
    t.events = b->events;
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<StepRecord> TraceSink::steps() const {
  std::vector<StepRecord> out;
  {
    std::lock_guard<std::mutex> lk(step_mu_);
    out = steps_;
  }
  std::sort(out.begin(), out.end(),
            [](const StepRecord& a, const StepRecord& b) {
              return a.step != b.step ? a.step < b.step : a.rank < b.rank;
            });
  return out;
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b->events.size();
  return n;
}

// --------------------------------------------------------- active sink

TraceSink* active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void set_active(TraceSink* sink) noexcept {
  g_active.store(sink, std::memory_order_release);
}

ScopedActive::ScopedActive(TraceSink* sink) : prev_(active()) {
  set_active(sink);
}

ScopedActive::~ScopedActive() { set_active(prev_); }

// ----------------------------------------------------------------- span

void Span::open(const char* cat, std::string name,
                std::initializer_list<Arg> args) {
  cat_ = cat;
  name_ = std::move(name);
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.phase = 'B';
  e.ts_us = sink_->now_us();
  e.args.reserve(args.size());
  for (const Arg& a : args) e.args.emplace_back(a);
  sink_->append(std::move(e));
}

Span::Span(TraceSink* sink, const char* cat, const char* name)
    : sink_(sink) {
  if (sink_ != nullptr) open(cat, name, {});
}

Span::Span(TraceSink* sink, const char* cat, const char* name,
           std::initializer_list<Arg> args)
    : sink_(sink) {
  if (sink_ != nullptr) open(cat, name, args);
}

Span::Span(TraceSink* sink, const char* cat, std::string name,
           std::initializer_list<Arg> args)
    : sink_(sink) {
  if (sink_ != nullptr) open(cat, std::move(name), args);
}

Span::~Span() {
  if (sink_ == nullptr) return;
  TraceEvent e;
  e.name = std::move(name_);
  e.cat = cat_;
  e.phase = 'E';
  e.ts_us = sink_->now_us();
  e.args.assign(end_args_.begin(), end_args_.begin() + n_end_args_);
  sink_->append(std::move(e));
}

void Span::arg(const char* key, std::int64_t v) {
  if (sink_ == nullptr ||
      n_end_args_ >= static_cast<int>(end_args_.size())) {
    return;
  }
  end_args_[static_cast<std::size_t>(n_end_args_++)] = ArgVal(key, v);
}

void Span::arg(const char* key, const char* v) {
  if (sink_ == nullptr ||
      n_end_args_ >= static_cast<int>(end_args_.size())) {
    return;
  }
  end_args_[static_cast<std::size_t>(n_end_args_++)] = ArgVal(key, v);
}

}  // namespace wrf::obs
