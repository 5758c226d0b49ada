#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny workload sizes (~10 s).

Run from the repository root:

    python3 abvbench/test_smoke.py

Checks, for every workload: each end-to-end and per-layer metric of
BENCHMARK.json is printed with its unit; the verdict gate passes at the
default and the held-out seed and fires when the run is held against
another seed's reference; the traced run writes a parseable Chrome trace;
the measuring process never runs more than producer + 2 threads.
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
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark entry point, for its constants)

# run.py resolves its build root against its working directory, ROOT here.
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, *extra, seed=run.DEFAULT_SEED, trace=0):
    """Runs run.py at the smoke size; returns (exit code, result, stderr)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", str(run.SMOKE_SIZES[workload]), "--check-threads", *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def threads_peak(stderr):
    match = re.search(r"threads_peak (\d+)", stderr)
    return int(match.group(1)) if match else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        expected = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def check_run(self, code, result, stderr):
        self.assertEqual(code, 0, stderr)
        self.assertTrue(result["correct"], stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        # One evaluation producer plus at most two shards.
        peak = threads_peak(stderr)
        self.assertIsNotNone(peak, stderr)
        self.assertLessEqual(peak, 3)

    def test_end_to_end_at_default_seed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result, stderr = bench(w)
                self.check_run(code, result, stderr)
                self.assertIn("committed reference", stderr)
                self.check_metrics(result, SPEC["end_to_end"])

    def test_traced_run_at_held_out_seed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result, stderr = bench(w, seed=run.HELD_OUT_SEED, trace=1)
                self.check_run(code, result, stderr)
                self.assertIn("committed reference", stderr)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["verdict_error_rate"]["value"], 0)
                path = os.path.join(BUILD_ROOT, "traces",
                                    f"{w}-seed{run.HELD_OUT_SEED}.trace.json")
                with open(path) as f:
                    trace = json.load(f)
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                names = {e["name"] for e in spans}
                self.assertTrue({"abvbench.iteration", "psl.parse", "abv.check",
                                 "tracelog.decode"} <= names, names)
                for e in spans:
                    self.assertGreaterEqual(e["args"]["self_us"], 0)
                self.assertEqual(set(trace["otherData"]),
                                 {m["name"] for m in SPEC["per_layer"]})

    def test_gate_fires_on_another_seeds_reference(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result, stderr = bench(
                    w, "--reference-seed", str(run.HELD_OUT_SEED))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
