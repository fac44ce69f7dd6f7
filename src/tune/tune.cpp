#include "tune/tune.hpp"

#include "util/error.hpp"

namespace wrf::tune {

std::string TuneSpec::artifact_path() const {
  switch (mode) {
    case TuneMode::kOff: return "";
    case TuneMode::kAuto: return kDefaultArtifactPath;
    case TuneMode::kFile: return path;
  }
  return "";
}

TuneSpec TuneSpec::parse(const std::string& s) {
  TuneSpec spec;
  if (s == "auto") {
    spec.mode = TuneMode::kAuto;
  } else if (s.rfind("file:", 0) == 0 && s.size() > 5) {
    spec.mode = TuneMode::kFile;
    spec.path = s.substr(5);
  } else if (s != "off") {
    throw ConfigError("TuneSpec: unknown tune mode '" + s +
                      "' (want off | auto | file:<path>)");
  }
  return spec;
}

std::string TuneSpec::describe() const {
  if (mode == TuneMode::kFile) return "file:" + path;
  return mode == TuneMode::kAuto ? "auto" : "off";
}

}  // namespace wrf::tune
