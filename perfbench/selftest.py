#!/usr/bin/env python3
"""The benchmark's own checks, on the tiny `smoke` workload (~10 s).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import generate  # noqa: E402
from tracing import Tracer, layer_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", "3", *args], cwd=cwd, capture_output=True, text=True,
        timeout=120)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        spec = WORKLOADS["smoke"].pair
        self.assertEqual(generate(spec, 7), generate(spec, 7))
        self.assertNotEqual(generate(spec, 7), generate(spec, 8))

    def test_reference_has_the_planted_pairs(self):
        spec = WORKLOADS["smoke"].pair
        reference = generate(spec, 7)[2]
        self.assertEqual(len(reference.splitlines()),
                         round(spec.gold_share * spec.source_classes))


class TracingTest(unittest.TestCase):
    def test_layer_times_and_remainder_sum_to_root(self):
        tracer = Tracer("t")
        with tracer.span("outside.before"):
            pass
        with tracer.span("run") as root:
            with tracer.span("stage"):
                with tracer.span("alpha.f"):
                    time.sleep(0.01)
                with tracer.span("beta.g"):
                    time.sleep(0.005)
            with tracer.span("alpha.h"):
                time.sleep(0.002)
        layers, rest = layer_self_times(tracer.spans, root)
        self.assertEqual(set(layers), {"alpha", "beta"})
        self.assertAlmostEqual(sum(layers.values()) + rest, root.duration,
                               places=12)
        self.assertEqual(len({s.run_id for s in tracer.spans}), 1)


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], WORKLOADS)
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class RunTest(unittest.TestCase):
    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         expected)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_untraced(self):
        values = self.check_result(run_bench("--seconds", "1", "--trace", "0"),
                                   "end_to_end")
        self.assertEqual(values["self_coverage"], 1.0)

    def test_traced(self):
        values = self.check_result(run_bench("--seconds", "1", "--trace", "1"),
                                   "per_layer")
        layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(layers + values["trace.unattributed_s"],
                               values["trace.wall_s"], places=9)

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
