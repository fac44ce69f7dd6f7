#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sched.h>
#include <sstream>
#include <thread>

namespace wrfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool Report::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) failures.push_back(what);
  return ok;
}

std::string Report::json() const {
  std::ostringstream o;
  o << "{\"workload\":\"" << json_escape(workload) << "\",\"attempted\":"
    << attempted << ",\"failed\":" << failed << ",\"checks\":" << checks
    << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(failures[i]) << '"';
  }
  o << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ",") << '"' << json_escape(name) << "\":{\"value\":"
      << json_number(m.value) << ",\"unit\":\"" << m.unit
      << "\",\"clock\":\"" << m.clock << "\"}";
    first = false;
  }
  o << "},\"props\":{";
  first = true;
  for (const auto& [name, v] : props) {
    o << (first ? "" : ",") << '"' << json_escape(name)
      << "\":" << json_number(v);
    first = false;
  }
  o << "},\"notes\":{";
  first = true;
  for (const auto& [name, v] : notes) {
    o << (first ? "" : ",") << '"' << json_escape(name) << "\":\""
      << json_escape(v) << '"';
    first = false;
  }
  o << "}}";
  return o.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

std::size_t samples_beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

std::string check_snapshot(const wrf::io::Snapshot& s) {
  for (const wrf::io::Variable& var : s.variables()) {
    const bool condensate = var.name.rfind("Q_", 0) == 0;
    for (const float x : var.data) {
      if (!std::isfinite(x)) return var.name + " has a non-finite value";
      if (condensate && x < 0.0f) return var.name + " has negative condensate";
    }
  }
  return "";
}

double snapshot_precip(const wrf::io::Snapshot& s) {
  const wrf::io::Variable* v = s.find("RAINNC");
  double sum = 0.0;
  if (v != nullptr) {
    for (const float x : v->data) sum += x;
  }
  return sum;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void put_rusage(Report& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  r.props["cpu_user_s"] = sec(ru.ru_utime);
  r.props["cpu_sys_s"] = sec(ru.ru_stime);
  r.props["minor_faults"] = static_cast<double>(ru.ru_minflt);
  r.props["voluntary_switches"] = static_cast<double>(ru.ru_nvcsw);
  r.props["involuntary_switches"] = static_cast<double>(ru.ru_nivcsw);
}

int host_cpus() { return static_cast<int>(std::thread::hardware_concurrency()); }

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return host_cpus();
  return CPU_COUNT(&set);
}

std::uint64_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long n = sysconf(name);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 0;
}

double Ledger::seconds(const std::string& layer) const {
  const auto it = layer_us.find(layer);
  return it == layer_us.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
}

std::int64_t event_arg(const wrf::obs::TraceEvent& e, const char* key) {
  for (const wrf::obs::ArgVal& a : e.args) {
    if (!a.is_str && std::string(a.key) == key) return a.i;
  }
  return 0;
}

std::string model_layer(const wrf::obs::TraceEvent& e) {
  const std::string cat = e.cat;
  if (cat == "kernel") return "gpu";
  if (cat == "halo") return "model";
  if (cat == "fsbm") return "fsbm";
  if (cat == "pass") {
    if (e.name.rfind("rk_", 0) == 0) return "dyn";
    if (e.name.rfind("halo_", 0) == 0) return "model";
    return "fsbm";
  }
  return "";
}

Ledger build_ledger(const std::vector<wrf::obs::TrackEvents>& tracks,
                    const Classifier& classify) {
  struct Open {
    std::int64_t begin_us = 0;
    std::int64_t child_us = 0;
    Role role = Role::kIgnore;
    std::string layer;
    bool in_envelope = false;
    bool kernel = false;
  };
  Ledger led;
  for (const wrf::obs::TrackEvents& track : tracks) {
    std::vector<Open> stack;
    for (const wrf::obs::TraceEvent& e : track.events) {
      if (e.phase == 'B') {
        Open o;
        o.begin_us = static_cast<std::int64_t>(e.ts_us);
        o.role = classify(e, &o.layer);
        o.in_envelope = !stack.empty() && (stack.back().role == Role::kEnvelope ||
                                           stack.back().in_envelope);
        o.kernel = std::string(e.cat) == "kernel";
        stack.push_back(std::move(o));
        continue;
      }
      if (e.phase != 'E' || stack.empty()) continue;
      const Open o = std::move(stack.back());
      stack.pop_back();
      const std::int64_t dur = static_cast<std::int64_t>(e.ts_us) - o.begin_us;
      const std::int64_t self = dur - o.child_us;
      if (!stack.empty()) stack.back().child_us += dur;
      if (o.role == Role::kEnvelope) {
        led.envelope_us += dur;
        led.unattributed_us += self;
        continue;
      }
      if (!o.in_envelope) continue;
      if (o.kernel) {
        led.kernel_us += dur;
        led.kernel_modeled_ms +=
            static_cast<double>(event_arg(e, "modeled_us")) * 1e-3;
        ++led.launches;
      }
      if (o.role != Role::kLayer) {
        // Keep the ledger closed: an unclassified span inside a step is
        // time no layer claims.
        led.unattributed_us += self;
        continue;
      }
      // A halo round's blocked wait is par time; the rest is the layer's.
      const std::int64_t wait =
          std::clamp<std::int64_t>(event_arg(e, "wait_us"), 0, self);
      led.layer_us[o.layer] += self - wait;
      if (wait > 0) led.layer_us["par"] += wait;
    }
  }
  return led;
}

}  // namespace wrfbench
