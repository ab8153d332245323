#!/usr/bin/env python3
"""Tests of the benchmark itself, on the small size of every workload.

    python3 perfbench/test_perfbench.py      (from the repository root)

Every workload runs through run.py in both modes. The result line must
carry exactly the metrics BENCHMARK.json names, each with its unit, and the
correctness gate must have run. A tampered determinism record, and a
checkout without the library sources, must each fail without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
GATE = {"trace_roundtrip", "validate", "failures_repaired", "nothing_shed",
        "events_accounted", "reps_identical", "spans_complete",
        "deterministic_across_runs"}


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "small"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class SmallWorkloads(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                cls.results[workload, trace] = bench(workload, trace)

    def test_every_metric_is_emitted_with_its_unit(self):
        for (workload, trace), proc in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, _ = result_of(proc)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                spec = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in spec})
                if not trace:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_correctness_gate_runs(self):
        for (workload, trace), proc in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                _, lines = result_of(proc)
                checks = next(line for line in lines
                              if line.startswith("checks passed: "))
                ran = set(checks[len("checks passed: "):].split(", "))
                once = {"spans_complete"} if trace else {"reps_identical"}
                self.assertEqual(ran, GATE - ({"spans_complete",
                                               "reps_identical"} - once))

    def test_property_shares_match_the_design(self):
        def layer(workload, name):
            result, _ = result_of(self.results[workload, 1])
            return result["metrics"][name]["value"]

        self.assertEqual(layer("serve-local", "online.graph_rebuilt_ratio"), 0)
        self.assertGreater(layer("serve-local", "stream.coalesced_ratio"), 0)
        self.assertGreater(layer("serve-churn", "online.reject_ratio"), 0)
        self.assertGreater(layer("serve-churn", "online.graph_rebuilt_ratio"), 0)
        self.assertEqual(layer("serve-churn", "online.outcome.failure.applied"), 1)
        self.assertEqual(layer("serve-churn", "online.outcome.failure.rejected"), 0)
        for workload in ("serve-local", "serve-churn"):
            self.assertEqual(layer(workload, "obs.spans_dropped"), 0)
            self.assertGreater(layer(workload, "obs.spans_recorded"), 0)

    def test_outcome_table_is_printed_for_serve_workloads(self):
        for workload in ("serve-local", "serve-churn"):
            _, lines = result_of(self.results[workload, 1])
            self.assertTrue(any(line.startswith("wcet ") for line in lines),
                            lines)


class Failures(unittest.TestCase):
    def test_changed_deterministic_figures_fail_without_result(self):
        self.assertEqual(bench("serve-churn", 0).returncode, 0)
        record = (ROOT / ".bench_build" / "perfbench" / "determinism" /
                  f"serve-churn-small-{SEED}.json")
        stored = json.loads(record.read_text())
        try:
            stored["deterministic"]["applied"] += 1
            record.write_text(json.dumps(stored))
            proc = bench("serve-churn", 0)
            self.assertEqual(proc.returncode, 3, proc.stderr)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            record.unlink()

    def test_checkout_without_sources_fails_without_result(self):
        isolated = ROOT / ".bench_build" / "perfbench-isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        try:
            shutil.copytree(HERE, isolated / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", isolated)
            proc = bench("serve-local", 0, root=isolated)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
