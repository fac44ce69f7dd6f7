#include "model/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <type_traits>

#include "util/error.hpp"

namespace wrf::model {

namespace {

std::string joined(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += sep;
    out += n;
  }
  return out;
}

template <auto Field>
using FieldType =
    std::remove_cvref_t<decltype(std::declval<RunConfig&>().*Field)>;

/// An enum knob: value v is named choices[v].
template <auto Field>
Knob choice_row(const char* key, bool tunable,
                std::vector<std::string> choices) {
  Knob k{key, tunable, true, choices, {}, {}, {}};
  k.parse = [choices](RunConfig& cfg, const std::string& v) {
    const auto it = std::find(choices.begin(), choices.end(), v);
    if (it == choices.end()) {
      throw ConfigError("want " + joined(choices, " | "));
    }
    cfg.*Field = static_cast<FieldType<Field>>(it - choices.begin());
  };
  k.print = [choices](const RunConfig& cfg) {
    const auto i = static_cast<std::size_t>(cfg.*Field);
    return i < choices.size() ? choices[i] : std::string("?");
  };
  k.validate = [n = choices.size()](const RunConfig& cfg) {
    if (static_cast<std::size_t>(cfg.*Field) >= n) {
      throw ConfigError("enum value out of range");
    }
  };
  return k;
}

/// A knob whose field type owns its value syntax (static parse and
/// describe): exec's ":N", obs's and tune's ":path".
template <auto Field>
Knob value_row(const char* key, bool tunable, bool shown_at_default) {
  Knob k{key, tunable, shown_at_default, {}, {}, {}, [](const RunConfig&) {}};
  k.parse = [](RunConfig& cfg, const std::string& v) {
    cfg.*Field = FieldType<Field>::parse(v);
  };
  k.print = [](const RunConfig& cfg) { return (cfg.*Field).describe(); };
  return k;
}

std::vector<Knob> build_table() {
  Knob exec_row = value_row<&RunConfig::exec>("exec", true, true);
  exec_row.validate = [](const RunConfig& cfg) {
    const int n = cfg.exec.nthreads;
    if ((cfg.exec.kind == exec::ExecKind::kThreads ||
         cfg.exec.kind == exec::ExecKind::kHetero) &&
        (n < 0 || n > kMaxExecThreads)) {
      throw ConfigError("thread count " + std::to_string(n) +
                        " outside [0, " + std::to_string(kMaxExecThreads) +
                        "]");
    }
  };
  return {
      std::move(exec_row),
      choice_row<&RunConfig::halo_mode>("halo", true, {"sync", "overlap"}),
      choice_row<&RunConfig::phys>("phys", false, {"bin", "bulk", "hybrid"}),
      choice_row<&RunConfig::res>("res", true, {"step", "persist"}),
      choice_row<&RunConfig::fuse>("fuse", true, {"off", "auto"}),
      value_row<&RunConfig::obs>("obs", false, false),
      value_row<&RunConfig::tune>("tune", false, false),
  };
}

}  // namespace

void Knob::set(RunConfig& cfg, const std::string& value) const {
  try {
    parse(cfg, value);
  } catch (const ConfigError& e) {
    throw ConfigError(key + "=" + value + ": " + e.what());
  }
  check(cfg);
}

void Knob::check(const RunConfig& cfg) const {
  try {
    validate(cfg);
  } catch (const ConfigError& e) {
    throw ConfigError(token(cfg) + ": " + e.what());
  }
}

std::string Knob::token(const RunConfig& cfg) const {
  return key + "=" + print(cfg);
}

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> table = build_table();
  return table;
}

namespace {

const Knob* find_knob(const std::string& key) {
  for (const Knob& k : knobs()) {
    if (k.key == key) return &k;
  }
  return nullptr;
}

/// Names every key the caller accepts: the rows, then `own_keys`.
ConfigError unknown_knob(const std::string& key,
                         const std::vector<std::string>& own_keys) {
  std::vector<std::string> keys;
  for (const Knob& k : knobs()) keys.push_back(k.key);
  std::string msg = "unknown knob '" + key + "' (knobs: " + joined(keys, " ");
  if (!own_keys.empty()) msg += "; program keys: " + joined(own_keys, " ");
  return ConfigError(msg + ")");
}

}  // namespace

const Knob& knob(const std::string& key) {
  const Knob* k = find_knob(key);
  if (k == nullptr) throw unknown_knob(key, {});
  return *k;
}

std::map<std::string, std::string> apply_knob_args(
    RunConfig& cfg, int argc, char** argv,
    const std::vector<std::string>& own_keys) {
  std::map<std::string, std::string> own;
  std::set<std::string> seen;
  for (int a = 1; a < argc; ++a) {
    const std::string token = argv[a];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;  // positional
    const std::string key = token.substr(0, eq);
    if (!seen.insert(key).second) {
      throw ConfigError("duplicate knob '" + key + "' ('" + token + "')");
    }
    if (std::find(own_keys.begin(), own_keys.end(), key) != own_keys.end()) {
      own[key] = token.substr(eq + 1);
    } else if (const Knob* k = find_knob(key)) {
      k->set(cfg, token.substr(eq + 1));
    } else {
      throw unknown_knob(key, own_keys);
    }
  }
  return own;
}

int parse_count(const std::string& name, const std::string& text, int max) {
  bool digits = !text.empty() && text[0] != '0';
  for (const char c : text) digits = digits && c >= '0' && c <= '9';
  if (!digits) {
    throw ConfigError(name + " '" + text + "': want a decimal count >= 1");
  }
  // Ten digits cannot overflow a long long; more are over any int cap.
  if (text.size() > 10 || std::stoll(text) > max) {
    throw ConfigError(name + " '" + text + "': want at most " +
                      std::to_string(max));
  }
  return static_cast<int>(std::stoll(text));
}

double parse_real(const std::string& name, const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v) ||
      v < 0.0) {
    throw ConfigError(name + " '" + text + "': want a finite number >= 0");
  }
  return v;
}

int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  } catch (const IoError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  }
  return 2;
}

}  // namespace wrf::model
