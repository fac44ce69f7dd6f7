// diffstate command-line tool: the diffwrf analogue used in §VII-B.
//
//   diffstate_cli <a.bin> <b.bin> [noise_floor]
//
// Prints per-variable digits of agreement between two miniWRF snapshots
// and exits 0 when bitwise identical, 1 otherwise.  A noise floor that
// is not a finite number >= 0 exits 2, an unreadable snapshot 3.

#include <cstdio>

#include "io/snapshot.hpp"
#include "model/knobs.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: diffstate_cli <a.bin> <b.bin> [noise_floor]\n");
    return 2;
  }
  double floor = 0.0;
  try {
    if (argc > 3) floor = wrf::model::parse_real("noise_floor", argv[3]);
  } catch (const wrf::ConfigError& e) {
    std::fprintf(stderr, "diffstate: %s\n", e.what());
    return 2;
  }
  try {
    const wrf::io::Snapshot a = wrf::io::Snapshot::read(argv[1]);
    const wrf::io::Snapshot b = wrf::io::Snapshot::read(argv[2]);
    const wrf::io::DiffReport rep = wrf::io::diffstate(a, b, floor);
    std::printf("%s", rep.format().c_str());
    std::printf("%s (worst agreement: %.2f digits)\n",
                rep.identical ? "IDENTICAL" : "DIFFER", rep.worst_digits);
    return rep.identical ? 0 : 1;
  } catch (const wrf::Error& e) {
    std::fprintf(stderr, "diffstate: %s\n", e.what());
    return 3;
  }
}
