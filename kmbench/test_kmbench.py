#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size smoke runs of every workload,
injected bad operations, seed behaviour and the bare-directory failure.

    python3 -m unittest discover -s kmbench -p 'test_*.py'

Run from the repository root; the first test builds the runner.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, seed=1, trace=0, cwd=ROOT):
    """Runs run.py at tiny size; returns (exit status, stdout lines,
    parsed last line or None)."""
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "kmbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, lines, result


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, section):
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(list(result["metrics"]), list(wanted))
        for name, unit in wanted.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines, result = run(workload)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertTrue(any(l.startswith("# host ") for l in lines))
                self.assertTrue(any("warm-up" in l for l in lines))

    def test_traced_pass_emits_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines, result = run(workload, trace=1)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.check_metrics(result, "per_layer")


class FailureTest(unittest.TestCase):
    def assert_counted(self, workload, inject):
        rc, lines, result = run(workload, "--inject", inject)
        self.assertEqual(rc, 1, "\n".join(lines))
        self.assertIsNotNone(result, "a failed run still reports its tally")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any(l.startswith("# FAILED: ") for l in lines))
        self.assertTrue(any(l.startswith("# failed_frac ") and
                            not l.startswith("# failed_frac 0 ")
                            for l in lines))

    def test_unknown_workload_is_a_failed_cell(self):
        self.assert_counted("sweep_k64", "unknown_workload")

    def test_unknown_workload_is_a_failed_request(self):
        self.assert_counted("serve_mix", "unknown_workload")

    def test_perturbed_replay_is_a_failed_cell(self):
        self.assert_counted("sketch_k64", "perturbed_replay")

    def test_perturbed_replay_is_a_failed_request(self):
        self.assert_counted("serve_mix", "perturbed_replay")


class SeedTest(unittest.TestCase):
    def test_model_cost_is_fixed_by_the_seed(self):
        for workload in ("sweep_k64", "serve_mix"):
            with self.subTest(workload=workload):
                runs = [run(workload, seed=s)[2] for s in (1, 1, 2)]
                for result in runs:
                    self.assertTrue(result["correct"])
                one, again, two = [r["metrics"] for r in runs]
                for name in ("model_rounds", "model_bits"):
                    self.assertEqual(one[name], again[name])
                    self.assertGreater(two[name]["value"], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "kmbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines, result = run("sweep_k64", cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
