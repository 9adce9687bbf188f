#!/usr/bin/env python3
"""Tests of the end-to-end campaign benchmark itself.

    python3 e2ebench/test_e2ebench.py

Run from the root of a source checkout (the first test builds the benchmark).
Every workload runs at smoke size, untraced and traced; the tests check the
result line against the contract and BENCHMARK.json, that a seed always
generates the same inputs and results, and that the benchmark refuses to
report from a directory without the library sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=REPO):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
               "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def line_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no '{prefix}' line in output")


class ResultLine(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, 5, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in section})
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return result

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["grid-cold", "grid-faulty", "serve-tenancy"])
        for workload in ("grid-cold", "grid-faulty", "serve-tenancy"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_traced_runs_exercise_their_layers(self):
        exercised = {
            "grid-cold": ["sim.perf_vector_s", "sim.des_runs", "sim.execute_s",
                          "middleware.submit_warm_s", "knapsack.family_calls"],
            "grid-faulty": ["sim.perf_vector_s", "fault.des_s",
                            "fault.charge_s", "net.transfers_s",
                            "net.transfers", "net.mb"],
            "serve-tenancy": ["service.estimator_calls", "service.submit_s",
                              "knapsack.family_calls", "sched.repartition_s",
                              "journal.records", "journal.bytes",
                              "journal.replay_records_per_s",
                              "evalcache.hit_ratio"],
        }
        for workload, names in exercised.items():
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)["metrics"]
                for name in names:
                    self.assertGreater(metrics[name]["value"], 0, name)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_results(self):
        for workload in ("grid-cold", "grid-faulty", "serve-tenancy"):
            with self.subTest(workload=workload):
                a, b, c = (run(workload, seed, 0) for seed in (7, 7, 8))
                for proc in (a, b, c):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual(line_value(a.stdout, "inputs digest"),
                                 line_value(b.stdout, "inputs digest"))
                self.assertEqual(line_value(a.stdout, "result digest"),
                                 line_value(b.stdout, "result digest"))
                self.assertNotEqual(line_value(a.stdout, "inputs digest"),
                                    line_value(c.stdout, "inputs digest"))


class Refusal(unittest.TestCase):
    def test_fails_without_library_sources(self):
        bare = REPO / ".bench_build" / "e2ebench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload", "grid-cold",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
