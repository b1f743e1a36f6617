#!/usr/bin/env python3
"""Tests of the d3t ledger itself, on miniature worlds (about a minute).

    python3 ledger/test_ledger.py

Checks that every workload, timed and traced, on two seeds, passes its
output checks and emits exactly the metrics BENCHMARK.json declares, with
their units; that every name is well formed; that ledger/layer_map.json
covers every metric and workload; that a deliberately wrong expected
result fails the run; and that a directory holding only the benchmark
(no sources to build) fails without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the ledger's own runner, for its build step)

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (1, 2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


BENCHMARK = load_json(os.path.join(ROOT, "BENCHMARK.json"))
LAYER_MAP = load_json(os.path.join(HERE, "layer_map.json"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_ledger(binary, workload, seed, trace, *extra):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


class LedgerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCHMARK), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        names = [m["name"] for m in
                 BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(
            m["bound"] for m in BENCHMARK["end_to_end"]))

    def test_layer_map_covers_every_metric_and_workload(self):
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(set(LAYER_MAP["per_layer"]), per_layer)
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        for name, entry in LAYER_MAP["per_layer"].items():
            for key in ("moves", "does_not_move"):
                for pair in entry[key]:
                    self.assertIn(pair["metric"], end_to_end, name)
                    self.assertIn(pair["workload"], WORKLOADS, name)
        self.assertEqual(set(LAYER_MAP["workloads"]), set(WORKLOADS))

    def check_run(self, workload, seed, trace):
        proc, result = run_ledger(self.binary, workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        self.assertIn("# env: nproc=", proc.stdout)

    def test_every_workload_timed_and_traced_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed,
                                      trace=trace):
                        self.check_run(workload, seed, trace)

    def test_wrong_expected_result_fails_the_run(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run_ledger(self.binary, workload, 1, trace,
                                              "--inject-wrong")
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)

    def test_benchmark_alone_fails_without_a_result(self):
        alone = os.path.join(run.build_dir(), "alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(alone, "ledger"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            proc = subprocess.run(
                [sys.executable, "ledger/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, env=env, capture_output=True, text=True,
                timeout=170)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
