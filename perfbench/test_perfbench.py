#!/usr/bin/env python3
"""Tests of the benchmark's own code. Run from the checkout root:

    python3 perfbench/test_perfbench.py

Covers span self-time arithmetic and the supported-tail percentile rule
(the C++ self-test), metric-name validity (BENCHMARK.json and run.py's
result check), and that a wrong reference digest is reported as failed
operations rather than as a slow or crashed run.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        bdir = run.build_dir()
        run.build(bdir)
        p = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        s = spec()
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names used once")
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))

    def test_result_check(self):
        expected = {"a_s": "s", "b.count": "count"}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"a_s": {"value": 1.5, "unit": "s"},
                            "b.count": {"value": 2, "unit": "count"}}}
        self.assertEqual(run.check_result(good, expected), [])
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["b.count"]
        self.assertTrue(run.check_result(missing, expected))
        extra = json.loads(json.dumps(good))
        extra["metrics"]["c"] = {"value": 1, "unit": "s"}
        self.assertTrue(run.check_result(extra, expected))
        unit = json.loads(json.dumps(good))
        unit["metrics"]["a_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(unit, expected))
        zero = json.loads(json.dumps(good))
        zero["attempted"] = 0
        self.assertTrue(run.check_result(zero, expected))


class WrongReference(unittest.TestCase):
    """A wrong reference digest shows as failed operations."""

    def run_workload(self, workload, corrupt):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0"]
        if corrupt:
            cmd.append("--corrupt-reference")
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.splitlines()[-1])

    def check(self, workload):
        clean = self.run_workload(workload, False)
        self.assertTrue(clean["correct"])
        self.assertEqual(clean["failed"], 0)
        bad = self.run_workload(workload, True)
        self.assertFalse(bad["correct"])
        self.assertGreater(bad["failed"], 0)
        self.assertLessEqual(bad["failed"], bad["attempted"])
        # Still a complete measurement, not a crash or an empty run.
        self.assertEqual(set(bad["metrics"]), set(clean["metrics"]))
        return bad

    def test_machine(self):
        bad = self.check("machine")
        self.assertEqual(bad["failed"], bad["attempted"])

    def test_paper_tables(self):
        self.check("paper_tables")

    def test_serve(self):
        self.check("serve")


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
