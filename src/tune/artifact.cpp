#include "tune/artifact.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "util/error.hpp"

namespace wrf::tune {

MachineFingerprint local_fingerprint(const std::string& device_name) {
  MachineFingerprint m;
  m.hw_threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  m.device = device_name;
  return m;
}

const TunedEntry* Artifact::find(const std::string& shape) const noexcept {
  for (const TunedEntry& e : entries) {
    if (e.shape == shape) return &e;
  }
  return nullptr;
}

void Artifact::upsert(TunedEntry entry) {
  for (TunedEntry& e : entries) {
    if (e.shape == entry.shape) {
      e = std::move(entry);
      return;
    }
  }
  entries.push_back(std::move(entry));
}

// ------------------------------------------------------------- writing

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void write_aggregate_fields(std::ostream& os, const RepAggregate& a) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"wall_min_s\": %.6f, \"wall_median_s\": %.6f, "
                "\"wall_cv\": %.4f, \"reps\": %d",
                a.min, a.median, a.cv, a.reps);
  os << buf;
}

}  // namespace

void write_artifact(const std::string& path, const Artifact& artifact) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << artifact.schema_version << ",\n";
  os << "  \"machine\": {\"hw_threads\": " << artifact.machine.hw_threads
     << ", \"device\": \"" << json_escape(artifact.machine.device)
     << "\"},\n";
  os << "  \"entries\": [\n";
  for (std::size_t n = 0; n < artifact.entries.size(); ++n) {
    const TunedEntry& e = artifact.entries[n];
    os << "    {\n";
    os << "      \"shape\": \"" << json_escape(e.shape) << "\",\n";
    os << "      \"knobs\": \"" << json_escape(e.knobs) << "\",\n";
    os << "      \"steps\": " << e.steps << ",\n      ";
    write_aggregate_fields(os, e.wall);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"cellsteps_per_s\": %.1f,\n"
                  "      \"baseline_cellsteps_per_s\": %.1f,\n",
                  e.cellsteps_per_s, e.baseline_cellsteps_per_s);
    os << buf;
    os << "      \"ladder\": [\n";
    for (std::size_t r = 0; r < e.ladder.size(); ++r) {
      const Rung& rung = e.ladder[r];
      std::snprintf(buf, sizeof(buf),
                    "        {\"rung\": %d, \"steps\": %d, "
                    "\"target_cv\": %.3f, \"points\": [\n",
                    rung.rung, rung.steps, rung.target_cv);
      os << buf;
      for (std::size_t p = 0; p < rung.points.size(); ++p) {
        const RungPoint& pt = rung.points[p];
        os << "          {\"knobs\": \"" << json_escape(pt.knobs)
           << "\", ";
        write_aggregate_fields(os, pt.wall);
        std::snprintf(buf, sizeof(buf),
                      ", \"cellsteps_per_s\": %.1f, "
                      "\"prior_ms_per_step\": %.4f, \"survived\": %s}",
                      pt.cellsteps_per_s, pt.prior_ms_per_step,
                      pt.survived ? "true" : "false");
        os << buf << (p + 1 < rung.points.size() ? ",\n" : "\n");
      }
      os << "        ]}" << (r + 1 < e.ladder.size() ? ",\n" : "\n");
    }
    os << "      ]\n";
    os << "    }" << (n + 1 < artifact.entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";

  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("tuned artifact: cannot open '" + path + "'");
  out << os.str();
  if (!out.flush()) {
    throw IoError("tuned artifact: write to '" + path + "' failed");
  }
}

// ------------------------------------------------------------- parsing

namespace {

/// Minimal JSON value for the artifact's known schema (objects, arrays,
/// strings, numbers, bools).  A hand-rolled parser keeps the loader
/// dependency-free; it reports the byte offset of the first violation
/// and, inside the document, the node's key path (`/entries/0/steps`).
struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* get(const std::string& key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("tuned artifact: " +
                      (node_.empty() ? "" : "node " + node_ + ": ") + what +
                      " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json value() {
    const char c = peek();
    Json v;
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.kind = Json::kStr;
      v.str = string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Json::kBool;
      v.b = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Json::kBool;
      v.b = false;
      return v;
    }
    if (consume_literal("null")) return v;
    return number();
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::kObj;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key string");
      std::string key = string();
      expect(':');
      const std::size_t mark = node_.size();
      node_.append("/").append(key);
      v.obj.emplace_back(std::move(key), value());
      node_.resize(mark);
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::kArr;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      const std::size_t mark = node_.size();
      node_.append("/").append(std::to_string(v.arr.size()));
      v.arr.push_back(value());
      node_.resize(mark);
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        if (e == 'n') {
          out.push_back('\n');
        } else if (e == '"' || e == '\\' || e == '/') {
          out.push_back(e);
        } else {
          fail(std::string("unsupported escape '\\") + e + "'");
        }
        continue;
      }
      out.push_back(c);
    }
    fail("unterminated string");
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.kind = Json::kNum;
    // The whole token must be one finite number: "4-7" is not 4.
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, end, v.num);
    if (ec != std::errc() || ptr != end) {
      const std::string token = text_.substr(start, pos_ - start);
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string node_;  ///< key path of the value being parsed
};

const char* kind_name(Json::Kind kind) {
  constexpr const char* names[] = {"null",   "bool",  "number",
                                   "string", "array", "object"};
  return names[kind];
}

/// The member `key` of the object at key path `node`, of type `kind`.
const Json& require(const Json& obj, const std::string& node,
                    const std::string& key, Json::Kind kind) {
  const Json* v = obj.get(key);
  if (v == nullptr || v->kind != kind) {
    throw ConfigError("tuned artifact: node " + node + "/" + key +
                      (v == nullptr ? " is missing" : " has invalid type") +
                      ": expected " + kind_name(kind) +
                      (v == nullptr ? "" : std::string(", actual ") +
                                               kind_name(v->kind)));
  }
  return *v;
}

/// An integer member: integral and within int range, never a cast of
/// whatever double the document holds.
int integer(const Json& obj, const std::string& node, const std::string& key) {
  const double v = require(obj, node, key, Json::kNum).num;
  if (v != std::trunc(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    throw ConfigError("tuned artifact: node " + node + "/" + key +
                      " has invalid value " + buf +
                      ": expected an integer in int range");
  }
  return static_cast<int>(v);
}

RepAggregate aggregate_of(const Json& obj, const std::string& node) {
  RepAggregate a;
  a.min = require(obj, node, "wall_min_s", Json::kNum).num;
  a.median = require(obj, node, "wall_median_s", Json::kNum).num;
  a.cv = require(obj, node, "wall_cv", Json::kNum).num;
  a.reps = integer(obj, node, "reps");
  a.mean = a.median;  // mean is not persisted; median is the fallback
  return a;
}

/// The artifact in `text`; a ConfigError names the node at fault.
Artifact parse_artifact(const std::string& text) {
  const Json root = JsonParser(text).parse();
  if (root.kind != Json::kObj) {
    throw ConfigError("tuned artifact: document is not an object");
  }
  Artifact art;
  art.schema_version = integer(root, "", "schema_version");
  if (art.schema_version != kArtifactSchemaVersion) {
    throw ConfigError("tuned artifact: schema_version " +
                      std::to_string(art.schema_version) +
                      " (this build reads version " +
                      std::to_string(kArtifactSchemaVersion) + ")");
  }
  const Json& machine = require(root, "", "machine", Json::kObj);
  art.machine.hw_threads = integer(machine, "/machine", "hw_threads");
  art.machine.device = require(machine, "/machine", "device", Json::kStr).str;

  const std::vector<Json>& entries =
      require(root, "", "entries", Json::kArr).arr;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Json& je = entries[i];
    const std::string en = "/entries/" + std::to_string(i);
    TunedEntry e;
    e.shape = require(je, en, "shape", Json::kStr).str;
    e.knobs = require(je, en, "knobs", Json::kStr).str;
    e.steps = integer(je, en, "steps");
    e.wall = aggregate_of(je, en);
    e.cellsteps_per_s = require(je, en, "cellsteps_per_s", Json::kNum).num;
    e.baseline_cellsteps_per_s =
        require(je, en, "baseline_cellsteps_per_s", Json::kNum).num;
    const std::vector<Json>& ladder =
        require(je, en, "ladder", Json::kArr).arr;
    for (std::size_t r = 0; r < ladder.size(); ++r) {
      const Json& jr = ladder[r];
      const std::string rn = en + "/ladder/" + std::to_string(r);
      Rung rung;
      rung.rung = integer(jr, rn, "rung");
      rung.steps = integer(jr, rn, "steps");
      rung.target_cv = require(jr, rn, "target_cv", Json::kNum).num;
      const std::vector<Json>& points =
          require(jr, rn, "points", Json::kArr).arr;
      for (std::size_t p = 0; p < points.size(); ++p) {
        const Json& jp = points[p];
        const std::string pn = rn + "/points/" + std::to_string(p);
        RungPoint pt;
        pt.knobs = require(jp, pn, "knobs", Json::kStr).str;
        pt.wall = aggregate_of(jp, pn);
        pt.cellsteps_per_s = require(jp, pn, "cellsteps_per_s", Json::kNum).num;
        pt.prior_ms_per_step =
            require(jp, pn, "prior_ms_per_step", Json::kNum).num;
        pt.survived = require(jp, pn, "survived", Json::kBool).b;
        rung.points.push_back(std::move(pt));
      }
      e.ladder.push_back(std::move(rung));
    }
    // The loadability contract: a winner that does not parse back into
    // a KnobSet can never be applied — reject at load time, where the
    // artifact (not the requesting run) is identifiably at fault.
    try {
      (void)KnobSet::parse(e.knobs);
    } catch (const ConfigError& err) {
      throw ConfigError("entries[" + std::to_string(i) +
                        "].knobs: " + err.what());
    }
    art.entries.push_back(std::move(e));
  }
  return art;
}

}  // namespace

Artifact load_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("tuned artifact: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_artifact(buf.str());
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

bool apply_artifact(model::RunConfig& cfg, const Artifact& artifact) {
  const TunedEntry* entry = artifact.find(shape_key(cfg));
  if (entry == nullptr) return false;
  KnobSet::parse(entry->knobs).apply_to(cfg);
  return true;
}

bool apply(model::RunConfig& cfg) {
  switch (cfg.tune.mode) {
    case TuneMode::kOff:
      return false;
    case TuneMode::kAuto: {
      // auto is opportunistic: tune if an artifact has been produced on
      // this machine, run untuned otherwise.  A present-but-broken file
      // still throws — silent fallback would mask corruption.
      std::ifstream probe(kDefaultArtifactPath);
      if (!probe) return false;
      probe.close();
      return apply_artifact(cfg, load_artifact(kDefaultArtifactPath));
    }
    case TuneMode::kFile:
      return apply_artifact(cfg, load_artifact(cfg.tune.path));
  }
  return false;
}

}  // namespace wrf::tune
