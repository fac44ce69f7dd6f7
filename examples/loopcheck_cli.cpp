// loopcheck command-line tool: the `codee` CLI of Listing 2, for the
// mini-Fortran subset.
//
//   loopcheck_cli screening <file.f90>
//   loopcheck_cli checks    <file.f90>
//   loopcheck_cli rewrite   <file.f90> <line> [collapse_limit]
//
// `line` and `collapse_limit` are counts >= 1; omit `collapse_limit` to
// collapse the full nest.  A malformed count exits 2.
//
// `rewrite` prints the annotated source to stdout (use shell redirection
// for in-place-style workflows).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analyzer/checks.hpp"
#include "analyzer/parser.hpp"
#include "analyzer/rewrite.hpp"
#include "model/knobs.hpp"

using namespace wrf::analyzer;

namespace {

std::string slurp(const char* path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "loopcheck: cannot open '%s'\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: loopcheck_cli screening <file.f90>\n"
               "       loopcheck_cli checks    <file.f90>\n"
               "       loopcheck_cli rewrite   <file.f90> <line> "
               "[collapse_limit]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string src = slurp(argv[2]);

  try {
    if (cmd == "screening") {
      const ProgramUnit unit = parse(src);
      const SemanticModel model(unit);
      auto screen = [&](const Procedure& p) {
        for (const Stmt* loop : outer_loops(p)) {
          const LoopAnalysis la = analyze_loop(model, p, *loop);
          std::printf("%s:%d depth-%d nest: %s\n", p.name.c_str(),
                      loop->line, la.nest_depth,
                      la.parallelizable ? "parallelizable"
                                        : "NOT parallelizable");
          for (const auto& b : la.blockers) {
            std::printf("  blocker: %s\n", b.c_str());
          }
        }
      };
      for (const auto& m : unit.modules) {
        for (const auto& p : m.procs) screen(p);
      }
      for (const auto& p : unit.procs) screen(p);
      return 0;
    }
    if (cmd == "checks") {
      std::printf("%s", run_checks(parse(src)).format().c_str());
      return 0;
    }
    if (cmd == "rewrite") {
      if (argc < 4) return usage();
      const int line = wrf::model::parse_count("line", argv[3]);
      const int collapse =
          argc > 4 ? wrf::model::parse_count("collapse_limit", argv[4]) : 0;
      const RewriteResult res = rewrite_offload(src, line, collapse);
      for (const auto& n : res.notes) {
        std::fprintf(stderr, "note: %s\n", n.c_str());
      }
      std::fputs(res.source.c_str(), stdout);
      return res.applied ? 0 : 1;
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "loopcheck: %s\n", e.what());
    return 3;
  } catch (const wrf::ConfigError& e) {
    std::fprintf(stderr, "loopcheck: %s\n", e.what());
    return 2;
  }
  return usage();
}
