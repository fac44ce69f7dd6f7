#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "util/error.hpp"

namespace wrf::obs {

namespace {

/// Shortest float formatting that is still JSON/Prometheus-valid.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_args(std::string& out, const std::vector<ArgVal>& args) {
  out += "\"args\":{";
  bool first = true;
  for (const ArgVal& a : args) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(a.key);
    out += "\":";
    if (a.is_str) {
      out += '"';
      out += json_escape(a.s);
      out += '"';
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRId64, a.i);
      out += buf;
    }
  }
  out += '}';
}

void write_file(const std::string& path, const std::string& content) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // A pre-existing directory is fine; a real failure surfaces below.
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("obs: cannot open '" + path + "' for writing");
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  if (!out) throw Error("obs: short write to '" + path + "'");
}

std::string labels_json(const Metric& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m.labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<TrackEvents>& tracks) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TrackEvents& t : tracks) {
    for (const TraceEvent& e : t.events) {
      if (!first) out += ",\n";
      first = false;
      char head[96];
      std::snprintf(head, sizeof(head),
                    "{\"pid\":0,\"tid\":%d,\"ph\":\"%c\",\"ts\":%" PRIu64 ",",
                    t.track, e.phase, e.ts_us);
      out += head;
      out += "\"cat\":\"";
      out += json_escape(e.cat);
      out += "\",\"name\":\"";
      out += json_escape(e.name);
      out += "\",";
      append_args(out, e.args);
      out += '}';
    }
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const TraceSink& sink, const std::string& path) {
  write_file(path, chrome_trace_json(sink.drain()));
}

std::string metrics_jsonl(const std::vector<StepRecord>& steps,
                          const Registry& reg) {
  std::string out;
  for (const StepRecord& r : steps) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"type\":\"step\",\"step\":%d,\"rank\":%d,\"wall_sec\":%s,"
        "\"fsbm_wall_sec\":%s,\"coal_wall_sec\":%s,\"halo_wall_sec\":%s,"
        "\"halo_bytes\":%" PRIu64 ",\"h2d_bytes\":%" PRIu64
        ",\"d2h_bytes\":%" PRIu64 ",\"kernel_launches\":%" PRIu64
        ",\"shard_cells_device\":%" PRIu64 ",\"shard_cells_host\":%" PRIu64
        ",\"cells_bin\":%" PRIu64 ",\"cells_bulk\":%" PRIu64 "}\n",
        r.step, r.rank, num(r.wall_sec).c_str(),
        num(r.fsbm_wall_sec).c_str(), num(r.coal_wall_sec).c_str(),
        num(r.halo_wall_sec).c_str(), r.halo_bytes, r.h2d_bytes,
        r.d2h_bytes, r.kernel_launches, r.shard_cells_device,
        r.shard_cells_host, r.cells_bin, r.cells_bulk);
    out += buf;
  }
  for (const Metric& m : reg.snapshot()) {
    out += "{\"type\":\"metric\",\"name\":\"";
    out += json_escape(m.name);
    out += "\",\"kind\":\"";
    out += m.is_counter ? "counter" : "gauge";
    out += "\",\"labels\":";
    out += labels_json(m);
    out += ",\"value\":";
    out += num(m.value);
    out += "}\n";
  }
  return out;
}

void write_metrics_jsonl(const TraceSink& sink, const Registry& reg,
                         const std::string& path) {
  write_file(path, metrics_jsonl(sink.steps(), reg));
}

std::string prometheus_text(const Registry& reg) {
  std::string out;
  std::string last_name;
  for (const Metric& m : reg.snapshot()) {
    if (m.name != last_name) {
      out += "# TYPE ";
      out += m.name;
      out += m.is_counter ? " counter\n" : " gauge\n";
      last_name = m.name;
    }
    out += m.name;
    if (!m.labels.empty()) {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : m.labels) {
        if (!first) out += ',';
        first = false;
        out += k;
        out += "=\"";
        out += json_escape(v);  // Prometheus escaping is a JSON subset
        out += '"';
      }
      out += '}';
    }
    out += ' ';
    out += num(m.value);
    out += '\n';
  }
  return out;
}

void write_prometheus(const Registry& reg, const std::string& path) {
  write_file(path, prometheus_text(reg));
}

std::vector<FlatRow> flat_profile(const std::vector<TrackEvents>& tracks) {
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t inclusive_us = 0;
    std::uint64_t exclusive_us = 0;
  };
  struct Open {
    std::string key;
    std::uint64_t begin_us = 0;
    std::uint64_t child_us = 0;  // inclusive time of closed children
  };
  std::map<std::string, Agg> table;
  for (const TrackEvents& t : tracks) {
    const std::string where =
        "obs::flat_profile: track " + std::to_string(t.track) + ": ";
    std::vector<Open> stack;
    std::uint64_t last_us = 0;
    for (const TraceEvent& e : t.events) {
      if (e.ts_us < last_us) throw Error(where + "timestamps go backwards");
      last_us = e.ts_us;
      if (e.phase == 'B') {
        stack.push_back({std::string(e.cat) + '/' + e.name, e.ts_us, 0});
        continue;
      }
      if (e.phase != 'E') continue;
      const std::string key = std::string(e.cat) + '/' + e.name;
      if (stack.empty() || stack.back().key != key) {
        throw Error(where + "span '" + key + "' ends " +
                    (stack.empty() ? std::string("with no span open")
                                   : "inside '" + stack.back().key + "'"));
      }
      const Open o = std::move(stack.back());
      stack.pop_back();
      const std::uint64_t incl = e.ts_us - o.begin_us;
      Agg& a = table[key];
      a.calls += 1;
      a.inclusive_us += incl;
      a.exclusive_us += incl - o.child_us;
      if (!stack.empty()) stack.back().child_us += incl;
    }
    if (!stack.empty()) {
      throw Error(where + "span '" + stack.back().key + "' never ends");
    }
  }
  std::uint64_t total_excl = 0;
  for (const auto& [key, agg] : table) total_excl += agg.exclusive_us;
  std::vector<FlatRow> rows;
  rows.reserve(table.size());
  for (const auto& [key, agg] : table) {
    FlatRow r;
    r.name = key;
    r.calls = agg.calls;
    r.inclusive_sec = static_cast<double>(agg.inclusive_us) * 1e-6;
    r.exclusive_sec = static_cast<double>(agg.exclusive_us) * 1e-6;
    r.percent_exclusive =
        total_excl > 0 ? 100.0 * static_cast<double>(agg.exclusive_us) /
                             static_cast<double>(total_excl)
                       : 0.0;
    rows.push_back(std::move(r));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const FlatRow& a, const FlatRow& b) {
                     return a.exclusive_sec > b.exclusive_sec;
                   });
  return rows;
}

FlatRow flat_row(const std::vector<FlatRow>& rows, const std::string& key) {
  for (const FlatRow& r : rows) {
    if (r.name == key) return r;
  }
  FlatRow none;
  none.name = key;
  return none;
}

std::string format_flat_profile(const std::vector<FlatRow>& rows) {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%8s %12s %12s %10s  ", "%time",
                "excl(s)", "incl(s)", "calls");
  out += buf;
  out += "name\n";
  for (const FlatRow& r : rows) {
    // Numeric columns through snprintf (fixed width keeps them aligned);
    // the name appended unformatted, so a row key of any length —
    // nested pass labels, per-job spans — never truncates the row.
    std::snprintf(buf, sizeof(buf), "%8.2f %12.4f %12.4f %10llu  ",
                  r.percent_exclusive, r.exclusive_sec, r.inclusive_sec,
                  static_cast<unsigned long long>(r.calls));
    out += buf;
    out += r.name;
    out += '\n';
  }
  return out;
}

}  // namespace wrf::obs
