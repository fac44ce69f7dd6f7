#include "prof/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "util/error.hpp"

namespace wrf::prof {

Profiler::ThreadData& Profiler::tls() const {
  // Per-thread, per-profiler-instance scratch.  Keyed by instance so
  // tests can use private Profiler objects alongside the global one.
  // The map owns its entries (references into an unordered_map survive
  // rehashing), so a thread's scratch is freed when the thread exits;
  // ThreadData never points back at its profiler, so destruction order
  // between dying threads and live profilers does not matter.
  thread_local std::unordered_map<const Profiler*, ThreadData> t_tls;
  return t_tls[this];
}

void Profiler::push_range(const std::string& name) {
  ThreadData& td = tls();
  td.stack.push_back(OpenRange{name, std::chrono::steady_clock::now(), 0.0});
}

void Profiler::pop_range() {
  ThreadData& td = tls();
  if (td.stack.empty()) {
    throw Error("Profiler::pop_range with no open range on this thread");
  }
  const auto now = std::chrono::steady_clock::now();
  OpenRange r = td.stack.back();
  td.stack.pop_back();
  const double incl =
      std::chrono::duration<double>(now - r.start).count();
  Agg& a = td.pending[r.name];
  a.calls += 1;
  a.inclusive += incl;
  a.exclusive += incl - r.child_time;
  if (!td.stack.empty()) {
    td.stack.back().child_time += incl;
  } else {
    merge(td);
  }
}

void Profiler::add_range_time(const std::string& name, std::uint64_t calls,
                              double seconds) {
  ThreadData& td = tls();
  Agg& a = td.pending[name];
  a.calls += calls;
  a.inclusive += seconds;
  a.exclusive += seconds;
  if (!td.stack.empty()) {
    // Credit the open parent, clamped to its elapsed wall so far: a
    // parallel dispatch can accumulate more summed worker seconds than
    // the parent's wall time, and crediting past that would drive the
    // parent's exclusive time negative.  (gprof-style thread-summed CPU
    // time for `name`, wall-bounded child attribution for the parent.)
    OpenRange& parent = td.stack.back();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      parent.start)
            .count();
    const double headroom = elapsed - parent.child_time;
    parent.child_time +=
        seconds < headroom ? seconds : (headroom > 0.0 ? headroom : 0.0);
  } else {
    merge(td);
  }
}

void Profiler::merge(ThreadData& td) const {
  if (td.pending.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, agg] : td.pending) {
    Agg& dst = table_[name];
    dst.calls += agg.calls;
    dst.inclusive += agg.inclusive;
    dst.exclusive += agg.exclusive;
  }
  td.pending.clear();
}

void Profiler::flush() const { merge(tls()); }

void Profiler::add_counter(const std::string& name, std::uint64_t v) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_[name] += v;
}

std::uint64_t Profiler::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<FlatRow> Profiler::flat_report() const {
  flush();
  std::lock_guard<std::mutex> lk(mu_);
  double total_excl = 0.0;
  for (const auto& [name, agg] : table_) total_excl += agg.exclusive;
  std::vector<FlatRow> rows;
  rows.reserve(table_.size());
  for (const auto& [name, agg] : table_) {
    FlatRow r;
    r.name = name;
    r.calls = agg.calls;
    r.inclusive_sec = agg.inclusive;
    r.exclusive_sec = agg.exclusive;
    r.percent_exclusive =
        total_excl > 0.0 ? 100.0 * agg.exclusive / total_excl : 0.0;
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(), [](const FlatRow& a, const FlatRow& b) {
    return a.exclusive_sec > b.exclusive_sec;
  });
  return rows;
}

double Profiler::inclusive_sec(const std::string& name) const {
  flush();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = table_.find(name);
  return it == table_.end() ? 0.0 : it->second.inclusive;
}

double Profiler::exclusive_sec(const std::string& name) const {
  flush();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = table_.find(name);
  return it == table_.end() ? 0.0 : it->second.exclusive;
}

std::uint64_t Profiler::calls(const std::string& name) const {
  flush();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = table_.find(name);
  return it == table_.end() ? 0 : it->second.calls;
}

void Profiler::reset() {
  tls();  // ensure TLS exists so stale pending data is dropped coherently
  std::lock_guard<std::mutex> lk(mu_);
  table_.clear();
  counters_.clear();
}

std::string Profiler::format_flat_report() const {
  auto rows = flat_report();
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%8s %12s %12s %10s  ", "%time",
                "excl(s)", "incl(s)", "calls");
  out += buf;
  out += "name\n";
  for (const auto& r : rows) {
    // Numeric columns through snprintf (fixed width keeps them aligned);
    // the name appended unformatted, so a range name of any length —
    // nested pass labels, per-job ranges — never truncates the row.
    std::snprintf(buf, sizeof(buf), "%8.2f %12.4f %12.4f %10llu  ",
                  r.percent_exclusive, r.exclusive_sec, r.inclusive_sec,
                  static_cast<unsigned long long>(r.calls));
    out += buf;
    out += r.name;
    out += '\n';
  }
  return out;
}

Profiler& global() {
  static Profiler p;
  return p;
}

}  // namespace wrf::prof
