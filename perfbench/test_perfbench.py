#!/usr/bin/env python3
"""Quick-mode tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Each case drives run.py with --quick (one analog, one timed pass), so
the whole file runs in well under a minute once the benchmark's build
tree exists. The first run builds it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT, env=None):
    """Run run.py; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
        check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


class MetricSet(unittest.TestCase):
    def check_metrics(self, res, wanted):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines = bench(w["name"])
                self.assertEqual(code, 0)
                res = result(lines)
                self.check_metrics(res, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("failed_frac=0 (", lines[0])

    def test_per_layer_metrics(self):
        for w in ("base", "screen"):
            with self.subTest(workload=w):
                code, lines = bench(w, trace=1)
                self.assertEqual(code, 0)
                self.check_metrics(result(lines), SPEC["per_layer"])


class Checks(unittest.TestCase):
    def test_injected_census_mismatch_raises_failed_frac(self):
        code, lines = bench("base", 1, 0, "--inject-mismatch")
        self.assertEqual(code, 0)
        res = result(lines)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertNotIn("failed_frac=0 (", lines[0])

    def test_seed_changes_programs_not_metric_set(self):
        runs = {}
        for seed in (1, 2):
            code, lines = bench("base", seed)
            self.assertEqual(code, 0)
            runs[seed] = (json.loads(lines[-2])["programs_digest"],
                          list(result(lines)["metrics"]))
        self.assertNotEqual(runs[1][0], runs[2][0])
        self.assertEqual(runs[1][1], runs[2][1])

    def test_fails_without_simulator_sources(self):
        tmp = ROOT / ".bench_build" / "test-bare"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            code, lines = bench("base", cwd=tmp, env=env)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith('{"correct"') for l in lines))


if __name__ == "__main__":
    unittest.main()
