#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 wrfbench/test_bench.py

- BENCHMARK.json stays within the benchmark contract (keys, name/unit
  syntax, bounds, workload count, setup_s present).
- Every metric a run prints is declared in BENCHMARK.json with the same
  unit, and its clock in spec.json (run.py refuses to print a result
  otherwise; this test asserts it succeeded and the line is well formed).
- A small-size smoke of each workload, plain and traced, passes its output
  checks, and the traced ledger sums to the step wall.
- Without the model sources next to it, run.py fails without a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LEDGER = ["trace.model_s", "trace.dyn_s", "trace.par_s", "trace.fsbm_s",
          "trace.gpu_s", "trace.unattributed_s"]


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        b = bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["wrfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_every_metric_has_a_clock(self):
        clocks = json.loads((HERE / "spec.json").read_text())["metric_clocks"]
        b = bench()
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertIn(clocks.get(m["name"]), ("wall", "modeled", "count"),
                          m["name"])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        res = run(workload, trace)
        self.assertEqual(res.returncode, 0, res.stderr[-3000:])
        lines = res.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        mode = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in bench()[mode]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], declared[name])
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0.0, name)
        report = json.loads(lines[-2])
        self.assertEqual(report["failures"], [])
        return result["metrics"], report

    def test_storm_bin(self):
        _, report = self.check("storm_bin", 0)
        self.assertGreaterEqual(report["props"]["verify_host_digits"], 3.0)

    def test_storm_hybrid(self):
        self.check("storm_hybrid", 0)

    def test_service_mix(self):
        _, report = self.check("service_mix", 0)
        self.assertEqual(report["props"]["verify_hash_jobs"], 3)

    def test_traced_ledgers_close(self):
        for workload in ("storm_bin", "storm_hybrid", "service_mix"):
            with self.subTest(workload=workload):
                m, _ = self.check(workload, 1)
                parts = sum(m[n]["value"] for n in LEDGER)
                wall = m["trace.step_wall_s"]["value"]
                self.assertGreater(wall, 0.0)
                self.assertAlmostEqual(parts, wall, delta=1e-9 + 1e-12 * wall)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark files.
        base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        if not base.is_absolute():
            base = ROOT / base
        bare = base / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            res = run("storm_bin", 0, cwd=bare,
                      script=bare / HERE.name / "run.py")
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"correct"', res.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
