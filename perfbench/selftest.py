"""Self-tests of the benchmark: python3 perfbench/selftest.py (about a minute).

They run every workload at tiny sizes and check that each metric named in
BENCHMARK.json is emitted with its unit, that an injected exit-3 job raises
the failure count, that the benchmark refuses to run without the program's
sources, and that span self times are right on synthetic trees.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None]:
    out = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return out.returncode, None


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # [name, start, end, parent, job, leaf_s]
        spans = [
            ["root", 0.0, 10.0, -1, 0, 1.0],
            ["a", 1.0, 4.0, 0, 0, 0.0],
            ["b", 3.0, 6.0, 0, 0, 0.0],    # overlaps a: covered part is [1, 6]
            ["c", 2.0, 3.0, 1, 0, 0.0],    # grandchild: charged to a only
            ["d", 9.0, 12.0, 0, 0, 0.0],   # runs past root: clipped to [9, 10]
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 3.0, 1.0, 3.0])

    def test_leaf_time_excludes_spans_inside_it(self):
        tracer = tracing.Tracer()
        inner = tracer.span("t.inner", lambda: time.sleep(0.03))

        def leaf_body():
            time.sleep(0.02)
            inner()

        leaf = tracer.leaf("t.leaf", leaf_body)
        outer = tracer.span("t.outer", lambda: (time.sleep(0.02), leaf()))
        outer()
        got = tracing.summarize(tracer)
        self.assertAlmostEqual(got["t.inner_s"], 0.03, delta=0.01)
        self.assertAlmostEqual(got["t.leaf_s"], 0.02, delta=0.01)
        self.assertAlmostEqual(got["t.outer_s"], 0.02, delta=0.01)
        self.assertEqual(got["t.leafs"], 1)
        total = got["t.inner_s"] + got["t.leaf_s"] + got["t.outer_s"]
        self.assertAlmostEqual(total, got["root_s"], delta=1e-6)

    def test_patcher_reaches_name_imports_and_restores(self):
        import lipwidth
        from lipwidth import cli, covering, widths

        orig = covering.inner_entropy
        orig_matrix = lipwidth.spaces.PointSet.__dict__["matrix"]
        patcher = tracing.Patcher(lipwidth, tracing.Tracer())
        patcher.install()
        try:
            for mod in (lipwidth, covering, cli, widths):
                self.assertIsNot(mod.inner_entropy, orig)
            self.assertIsNot(lipwidth.spaces.PointSet.__dict__["matrix"], orig_matrix)
        finally:
            patcher.restore()
        for mod in (lipwidth, covering, cli, widths):
            self.assertIs(mod.inner_entropy, orig)
        self.assertIs(lipwidth.spaces.PointSet.__dict__["matrix"], orig_matrix)


class BenchmarkRuns(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_metric_lists_match_benchmark_json(self):
        spec_e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        spec_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(spec_e2e, run.END_TO_END)
        self.assertEqual(spec_layer, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_tiny_runs_emit_every_metric(self):
        for workload in workloads.WORKLOADS:
            for trace, want in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, line = _bench("--workload", workload, "--seed", "3",
                                        "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(code, 0)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertGreaterEqual(line["attempted"], 1)
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)

    def test_injected_exit3_job_raises_fail_share(self):
        runs = {}
        for flag in ([], ["--inject-fail"]):
            code, line = _bench("--workload", "small-clouds", "--seed", "3", "--seconds", "1",
                                "--trace", "0", "--tiny", *flag)
            self.assertEqual(code, 0)
            runs[bool(flag)] = line
        self.assertEqual(runs[False]["failed"], 0)
        self.assertGreater(runs[True]["failed"], 0)
        self.assertLess(runs[True]["metrics"]["ok_share"]["value"],
                        runs[False]["metrics"]["ok_share"]["value"])
        self.assertTrue(runs[True]["correct"])

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, line = _bench("--workload", "clouds", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(line)


if __name__ == "__main__":
    unittest.main()
