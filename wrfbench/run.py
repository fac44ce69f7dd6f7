#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result line.

    python3 wrfbench/run.py --workload storm_bin --seed 1 --seconds 30 --trace 0

Builds the measuring program (wrfbench/CMakeLists.txt, compiling the model
from ../src) into the build directory on first use, runs it pinned to two
CPUs, checks that it reported exactly the metrics BENCHMARK.json
declares for the requested mode, and prints two lines on stdout: the full
report (every metric with its clock, the traffic properties behind it, the
output checks) and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

spec.json (next to this file) holds what BENCHMARK.json has no keys for:
the default and held-out seeds and the clock of every metric.  Exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# CPUs the measuring program may run on: its 2 rank threads (or 2 lanes)
# each get one, and device-kernel workers share them, which keeps the
# timing far steadier than letting them spread over every host CPU.
RUN_CPUS = 2
BUILD_JOBS = 3
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"wrfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "wrfbench"


def pin_cpus():
    """Restrict the measuring program (a child) to RUN_CPUS CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > RUN_CPUS:
        os.sched_setaffinity(0, cpus[-RUN_CPUS:])


def build(bdir):
    if not (ROOT / "src" / "model" / "driver.hpp").is_file():
        fail(f"model sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(BUILD_JOBS, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = bdir / "wrfbench"
    if not exe.is_file():
        fail("build produced no wrfbench program")
    return exe


def declared(mode):
    """(name, unit, clock) of every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    clocks = json.loads((HERE / "spec.json").read_text())["metric_clocks"]
    return [(m["name"], m["unit"], clocks.get(m["name"])) for m in spec[mode]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="case seed (default: spec.json seeds.default)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one rep (the benchmark's own tests)")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the checkout root")
    want = declared("per_layer" if args.trace else "end_to_end")
    if args.seed is None:
        args.seed = json.loads((HERE / "spec.json").read_text())["seeds"]["default"]

    bdir = build_dir()
    exe = build(bdir)
    pin_cpus()
    work = bdir / "work"
    work.mkdir(parents=True, exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        res = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("measuring program timed out", 1)
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    if res.returncode not in (0, 1) or not lines:
        fail(f"measuring program exited with {res.returncode}", 1)
    report = json.loads(lines[-1])

    got = report["metrics"]
    missing = [n for n, _, _ in want if n not in got]
    extra = sorted(set(got) - {n for n, _, _ in want})
    mismatch = [n for n, u, c in want
                if n in got and (got[n]["unit"], got[n]["clock"]) != (u, c)]
    if missing or extra or mismatch:
        fail(f"metrics differ from BENCHMARK.json/spec.json: missing={missing}"
             f" undeclared={extra} unit_or_clock={mismatch}", 3)

    correct = (res.returncode == 0 and not report["failures"]
               and report["failed"] == 0)
    for msg in report["failures"]:
        print(f"wrfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"] or (0 if correct else 1),
        "metrics": {n: {"value": got[n]["value"], "unit": u}
                    for n, u, _ in want},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
