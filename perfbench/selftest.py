#!/usr/bin/env python3
"""The serving benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, must exit 0 with a
   correct result that prints every metric BENCHMARK.json names for that
   mode, each with its unit.
2. A run whose first reference answer is corrupted (`--corrupt-reference`)
   must count the mismatch as a failure and exit non-zero.
3. A directory holding only BENCHMARK.json and the benchmark's files must
   make the benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SECONDS = "2"


def run(args, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    def check(self, workload, trace, metrics):
        proc = run(["--workload", workload, "--seed", "3", "--seconds", SECONDS,
                    "--trace", trace])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], "0", SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], "1", SPEC["per_layer"])

    def test_corrupted_reference_is_a_failure(self):
        proc = run(["--workload", "stream", "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--corrupt-reference"])
        self.assertNotEqual(proc.returncode, 0)
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("FAILED QUERY", proc.stdout)

    def test_benchmark_files_alone_fail_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                # Only what a checkout holds: no local build output.
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                                ignore=shutil.ignore_patterns("target"))
            proc = run(["--workload", "stream", "--seed", "3", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
