"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 perfbench/test_bench.py

They start the benchmark in subprocesses and take about four minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DESCRIBE = ("import json, sys, workloads; w = workloads.make(sys.argv[1], int(sys.argv[2])); "
            "print(json.dumps([w.describe(p) for p in (0, 1)]))")

# h0 answers one more than it should, in every process that starts with this
# directory on PYTHONPATH
WRONG_H0 = """\
import coxforge.section_spaces as ss

_h0 = ss.h0


def h0(d, cfg):
    return _h0(d, cfg) + 1


ss.h0 = h0
"""


def _env(*paths, **extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(p) for p in paths] + [str(ROOT / "src")])
    env.update(extra)
    return env


def _run_bench(workload: str, seed: int, seconds: int, trace: int, env=None):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env or _env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SeedTest(unittest.TestCase):
    def describe(self, workload: str, seed: int, hash_seed: int) -> bytes:
        return subprocess.run(
            [sys.executable, "-c", DESCRIBE, workload, str(seed)], cwd=HERE,
            env=_env(PYTHONHASHSEED=str(hash_seed)), stdout=subprocess.PIPE,
            check=True, timeout=300).stdout

    def test_seed_fixes_the_queries_and_the_parameters(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.describe(name, 7, 1)
                self.assertEqual(first, self.describe(name, 7, 2))
                passes = json.loads(first)
                other = json.loads(self.describe(name, 8, 1))
                self.assertNotEqual(passes[0]["configs"], other[0]["configs"])
                self.assertNotEqual(passes[0]["configs"], passes[1]["configs"])


class ExpectedTest(unittest.TestCase):
    def test_frozen_positive_h0_counts(self):
        # per cell, over every class, confirmed identical for several point seeds
        counts = {key: sum(1 for c in h0s if c != "0")
                  for key, h0s in workloads.load_expected()["generation_h0"].items()}
        self.assertEqual(counts, {"2,5,4,all": 1534, "2,6,3,all": 1035, "2,7,4,sorted": 118,
                                  "3,6,3,sorted": 70, "3,7,3,sorted": 80, "4,7,2,sorted": 31})

    def test_benchmark_json_names_every_reported_metric(self):
        from tracing import layer_metric_specs

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(layer_metric_specs()) + [("trace.overhead_s", "s", "lower")])


class FaultTest(unittest.TestCase):
    def test_wrong_h0_fails_the_run(self):
        inject = HERE / "out" / "wrong_h0"
        inject.mkdir(parents=True, exist_ok=True)
        (inject / "sitecustomize.py").write_text(WRONG_H0)
        code, result = _run_bench("generation", 3, 1, 0, env=_env(inject))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class TraceTest(unittest.TestCase):
    def test_traced_counts_repeat(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runs = [_run_bench(name, 2, 1, 1) for _ in range(2)]
                counts = []
                for code, result in runs:
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    counts.append({k: v["value"] for k, v in result["metrics"].items()
                                   if not k.endswith((".self_share", ".overhead_s"))})
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(len(counts[0]), 30)


if __name__ == "__main__":
    unittest.main()
