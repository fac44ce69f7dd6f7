#pragma once
// The knob table: one model::Knob row per run-level `key=value` knob,
// the way WRF's Registry generates its namelist I/O from one table.
// The argv parser, RunConfig::describe()/validate() and the tuner's
// tune::KnobSet all read it.  To add a knob, add a row in build_table()
// (knobs.cpp) and its samples in tests/test_knobs.cpp.

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "model/config.hpp"

namespace wrf::model {

/// Upper bound on N in exec=threads:N and exec=hetero:N.  Every rank's
/// ThreadPool starts N OS threads up front and N can come from outside
/// (argv, tuned.json, service jobs); 256 covers a two-socket 64-core
/// node with SMT.
inline constexpr int kMaxExecThreads = 256;

/// One row of the knob table.
struct Knob {
  std::string key;
  /// Performance-neutral (changes speed, never physics): the slice the
  /// tuner may set.
  bool tunable = false;
  /// describe() shows the row at its default value too; other rows
  /// only when set.
  bool shown_at_default = true;
  /// Enum knobs: the name of each enum value, indexed by value.
  std::vector<std::string> choices;
  std::function<void(RunConfig&, const std::string&)> parse;
  std::function<std::string(const RunConfig&)> print;
  std::function<void(const RunConfig&)> validate;

  /// Parse `value` into cfg, then validate.  Throws ConfigError
  /// prefixed "key=value: ".
  void set(RunConfig& cfg, const std::string& value) const;
  /// Validate.  Throws ConfigError prefixed with token(cfg).
  void check(const RunConfig& cfg) const;
  /// "key=value" as printed.
  std::string token(const RunConfig& cfg) const;
};

/// The rows, in describe() order: exec halo phys res fuse obs tune.
const std::vector<Knob>& knobs();

/// The row for `key`; throws ConfigError naming the key if none.
const Knob& knob(const std::string& key);

/// The name an enum knob gives `value`: knob_name("res", cfg.res).
template <class E>
const std::string& knob_name(const std::string& key, E value) {
  return knob(key).choices.at(static_cast<std::size_t>(value));
}

/// Apply the `key=value` tokens of argv[1..argc) to cfg.  Each key must
/// be a row or one of the caller's `own_keys` (e.g. out=, lanes=), at
/// most once, else ConfigError; an unknown key's error lists the rows
/// and `own_keys`.  Tokens without '=' are left to the caller.  Returns
/// the given own keys' values.
std::map<std::string, std::string> apply_knob_args(
    RunConfig& cfg, int argc, char** argv,
    const std::vector<std::string>& own_keys = {});

/// Parse a command-line count (a grid size, step count, lane count...):
/// canonical decimal, no sign, space or leading zero, from 1 to `max`.
/// Anything else is a ConfigError naming `name` and the text.
int parse_count(const std::string& name, const std::string& text,
                int max = std::numeric_limits<int>::max());

/// Parse a command-line real (a CV target, a noise floor): the whole
/// text is one finite decimal number >= 0, else a ConfigError naming
/// `name` and the text.
double parse_real(const std::string& name, const std::string& text);

/// Run a command-line main: a ConfigError or IoError from `body` is
/// printed to stderr and exits 2.
int run_main(int (*body)(int, char**), int argc, char** argv);

}  // namespace wrf::model
