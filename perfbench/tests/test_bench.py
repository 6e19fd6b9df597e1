#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/tests/test_bench.py

Run from the repository root. Each workload runs for one second in both
modes. The test asserts that every metric `BENCHMARK.json` names is
emitted with its unit and no other metric appears, and that the
correctness gate trips (non-zero exit, no result line) when a wrong byte
is injected into the delivered output.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                r = run(workload, trace)
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_match_benchmark_json(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_match_benchmark_json(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_gate_trips_on_injected_wrong_byte(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = run(workload, trace, "--inject-wrong-byte")
                    self.assertNotEqual(r.returncode, 0)
                    self.assertNotIn('"metrics"', r.stdout)
                    self.assertRegex(r.stderr, "SILENT CORRUPTION|fidelity")


if __name__ == "__main__":
    unittest.main(verbosity=2)
