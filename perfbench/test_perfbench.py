#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs at smoke size, untraced and traced, and must print
exactly the metric names and units BENCHMARK.json declares. A forged
identity mismatch must show up as failed runs, and a directory holding
only the benchmark (no simulator sources) must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        s = spec()
        for workload in [w["name"] for w in s["workloads"]]:
            for trace, declared in ((0, s["end_to_end"]), (1, s["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.check_result(result, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_windowed_lanes_match_one_lane(self):
        code, result, err = run("pbft-wide", 1)
        self.assertEqual(code, 0, err)
        metrics = result["metrics"]
        self.assertEqual(metrics["sim.windowed.identical"]["value"], 3)
        self.assertGreater(metrics["sim.windowed.speedup"]["value"], 0)

    def test_forged_identity_mismatch_raises_failed_frac(self):
        code, result, _ = run("pbft-wide", 1, "--forge-mismatch")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        metrics = result["metrics"]
        self.assertGreater(metrics["failed_frac"]["value"], 0)
        self.assertEqual(metrics["sim.windowed.identical"]["value"], 2)

    def test_forged_identity_mismatch_fails_an_untraced_run(self):
        code, result, _ = run("pbft-long", 0, "--forge-mismatch")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_fails_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
               "pbft-wide", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, env=env, capture_output=True, text=True,
                              timeout=180, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
