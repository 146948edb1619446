#!/usr/bin/env python3
"""The benchmark's own test: a small-n smoke of every workload.

    python3 perfbench/test_smoke.py

Runs run.py at n=8 (--smoke) on every workload of BENCHMARK.json, untraced
and traced, and asserts that all checks pass and that every named metric
prints with its unit. Also keeps the known ops-lossy failures visible (see
README.md): that test is an expected failure until the engine is fixed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in run.PER_LAYER])

    def test_readme_documents_every_metric_and_workload(self):
        with open(os.path.join(HERE, "README.md")) as f:
            readme = f.read()
        names = ([n for n, _ in run.END_TO_END] +
                 [n for n, _, _ in run.PER_LAYER] + list(run.WORKLOADS))
        for name in names:
            self.assertIn("`%s`" % name, readme)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        code, report, result = run_bench(workload, trace)
        self.assertEqual(code, 0, "\n".join(report))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(name for name, _ in expected))
        text = "\n".join(report)
        for name, unit in expected:
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))
            self.assertRegex(text, r"%s\s+\S+\s+%s\b" % (
                name.replace(".", r"\."), unit.replace("/", r"\/")))

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, run.END_TO_END)

    def test_traced(self):
        layers = [(name, unit) for name, unit, _ in run.PER_LAYER]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, layers)


class KnownFailureTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    @unittest.expectedFailure
    def test_ops_lossy_passes_its_checks(self):
        # n=50 under 1% loss: the fixpoint leaves best paths above the
        # oracle's cost, and a link flap leaves paths through the deleted
        # link (README.md, "Known failures").
        proc = subprocess.run(
            [run.RUNNER, "--workload", "ops-lossy", "--seed", "1",
             "--steps", "2", "--queries", "1", "--setups", "1",
             "--tmp", os.path.join(run.BUILD, "tmp")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=run.child_env(), check=False)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(json.loads(proc.stdout)["checks"]["failed"], 0)


if __name__ == "__main__":
    unittest.main()
