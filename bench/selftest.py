"""Tests of the benchmark itself (kept out of the library's pytest run).

    python3 bench/selftest.py

The end-to-end cases run every workload once untraced and once traced
with --seconds 0 (one or two passes), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import harness
import ops_touch
import run

SEED = 7


def run_bench(cwd, workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def benchmark_names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


class EndToEnd(unittest.TestCase):
    def test_metric_names_match_and_tracing_leaves_outputs_unchanged(self):
        for workload in run.WORKLOADS:
            hashes = {}
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                proc = run_bench(run.ROOT, workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), benchmark_names(section), workload)
                [outputs] = [ln for ln in lines if ln.startswith("outputs_sha256: ")]
                hashes[trace] = outputs.split()[1:]
            # every traced and untraced pass gave byte-identical outputs
            self.assertEqual(len(hashes[0]), 1, workload)
            self.assertEqual(hashes[0], hashes[1], workload)

    def test_fails_without_the_library(self):
        bare = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench(bare, "small-ops", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class Inputs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.dk = harness.import_desknum(os.path.join(run.ROOT, "src"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def inputs(self, workload, seed):
        ctx = harness.Context(self.dk, seed, self.tmp, {})
        return [(op.name, harness.digest(op.inputs)) for op in run.build_ops(workload, ctx)]

    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            first = self.inputs(workload, SEED)
            self.assertEqual(first, self.inputs(workload, SEED), workload)
            self.assertNotEqual(first, self.inputs(workload, SEED + 1), workload)

    def test_injected_wrong_result_counts_as_failure(self):
        with open(run.GOLDENS, encoding="utf-8") as fh:
            ctx = harness.Context(self.dk, SEED, self.tmp, json.load(fh))
        ops = ops_touch.build(ctx)
        victim = next(op for op in ops if op.name == "touch_ndcore")
        honest = victim.run

        def wrong(tr):
            c = honest(tr)
            c.data[5] += 1e-9
            return c

        victim.run = wrong
        tally = harness.Tally(log=lambda msg: None)
        passes, _ = run.timed_passes(ops, 0, False, tally, harness.SpeedGauge())
        metrics = run.end_to_end([0.1], passes, tally, run.load_benchmark_units("end_to_end"))
        self.assertEqual(tally.failed, 1)
        self.assertEqual(metrics["ok_frac"]["value"], (len(ops) - 1) / len(ops))

    def test_changed_output_on_a_later_pass_counts_as_failure(self):
        ctx = harness.Context(self.dk, SEED, self.tmp, {})
        op = next(op for op in ops_touch.build(ctx) if op.name == "touch_quadrature")
        answers = iter([0.25, 0.25 + 1e-16])
        flaky = harness.Op(op.name, lambda tr: next(answers), op.check)
        tally = harness.Tally(log=lambda msg: None)
        for _ in range(2):
            harness.run_pass([flaky], harness.Tracer(), False, tally, harness.SpeedGauge())
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


if __name__ == "__main__":
    unittest.main()
