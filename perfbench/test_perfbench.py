#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs at a tiny size, untraced and traced, and must finish
with every output check passing. Injected faults (a selector that swaps two
ranks, a store that drops one feedback write) must make the run fail with a
nonzero exit. Counts that depend only on the seed must repeat exactly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stack_stream", "large_pool", "hot_route")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, seed=7, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


class WorkloadsComplete(unittest.TestCase):
    def test_untraced_runs_pass_and_print_every_end_to_end_metric(self):
        names = {m["name"] for m in BENCH["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), names)
                self.assertIn("failed_ratio", proc.stdout)

    def test_traced_runs_print_every_per_layer_metric_and_dump_spans(self):
        names = {m["name"] for m in BENCH["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), names)
                dump = os.path.join(BUILD_ROOT, "perfbench-traces",
                                    f"{workload}.trace.json")
                with open(dump) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(any(e["name"] == "route" for e in events))
                self.assertTrue(any(e["cat"] == "probe" for e in events))


class FaultsAreCaught(unittest.TestCase):
    def test_swapped_ranks_fail_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, extra=["--fault", "swap_ranks"])
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("order", proc.stderr)

    def test_dropped_feedback_write_fails_the_run(self):
        for workload in ("stack_stream", "hot_route"):
            with self.subTest(workload=workload):
                proc, result = run(workload, extra=["--fault", "drop_feedback"])
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("scored", proc.stderr)


class SeedDeterminism(unittest.TestCase):
    def test_counts_repeat_for_the_same_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                firsts = [run(workload, seed=11) for _ in range(2)]
                traced = [run(workload, seed=11, trace=1) for _ in range(2)]
                for name in ("select_precision",):
                    self.assertEqual(firsts[0][1]["metrics"][name],
                                     firsts[1][1]["metrics"][name])
                for name in ("serve.cg_iterations", "serve.cache_hit_ratio",
                             "serve.cache_lookups",
                             "crowddb.wal_bytes_per_resolve"):
                    self.assertEqual(traced[0][1]["metrics"][name],
                                     traced[1][1]["metrics"][name], name)


class MissingSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        os.makedirs(BUILD_ROOT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=BUILD_ROOT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run("stack_stream", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
