#!/usr/bin/env python3
"""scripts/perf_guard.py compare on the fixtures next to this file.

A result equal to the baseline passes; a metric at 2x, a metric missing from
the result, and a result that is not correct each fail (exit 1) with a
message naming the metric or workload.  --tolerance replaces every limit.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GUARD = os.path.join(HERE, "..", "..", "scripts", "perf_guard.py")
BASELINE = os.path.join(HERE, "baseline.json")


class PerfGuardCompare(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        for name in ("latency_sweep.json", "observed_sweep.json"):
            shutil.copy(os.path.join(HERE, name), self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def edit(self, workload, change):
        path = os.path.join(self.dir, workload + ".json")
        with open(path) as f:
            result = json.load(f)
        change(result)
        with open(path, "w") as f:
            json.dump(result, f)

    def compare(self, *extra):
        run = subprocess.run(
            [sys.executable, GUARD, "compare", BASELINE, self.dir, *extra],
            capture_output=True, text=True)
        return run.returncode, run.stdout + run.stderr

    def test_equal_result_passes(self):
        code, out = self.compare()
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)

    def test_doubled_metric_fails_naming_it(self):
        def double(result):
            result["metrics"]["obs.linestats_cost_x"]["value"] *= 2
        self.edit("observed_sweep", double)
        code, out = self.compare()
        self.assertEqual(code, 1, out)
        self.assertIn("obs.linestats_cost_x: 2.8 vs baseline 1.4", out)
        self.assertIn("REGRESSION", out)

    def test_missing_metric_fails_naming_it(self):
        self.edit("latency_sweep",
                  lambda r: r["metrics"].pop("core.chase_ns_per_access"))
        code, out = self.compare()
        self.assertEqual(code, 1, out)
        self.assertIn("core.chase_ns_per_access: missing from the result", out)

    def test_incorrect_result_fails_naming_it(self):
        self.edit("latency_sweep", lambda r: r.update(correct=False))
        code, out = self.compare()
        self.assertEqual(code, 1, out)
        self.assertIn("latency_sweep: run not correct", out)

    def test_missing_result_file_fails(self):
        os.remove(os.path.join(self.dir, "observed_sweep.json"))
        code, out = self.compare()
        self.assertEqual(code, 1, out)
        self.assertIn("observed_sweep: no result", out)

    def test_tolerance_overrides_every_limit(self):
        def double(result):
            result["metrics"]["core.chase_ns_per_access"]["value"] *= 2
        self.edit("latency_sweep", double)
        self.assertEqual(self.compare("--tolerance", "150")[0], 0)
        self.assertEqual(self.compare("--tolerance", "50")[0], 1)


if __name__ == "__main__":
    unittest.main()
