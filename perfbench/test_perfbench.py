"""Tests of the benchmark itself. Each test runs the real driver for a
short time, so the suite takes a few minutes.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; scratch files go under .bench_build/.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "tests"


def run(workload, seed, trace=0, reference=None):
    """Run one short pass of @workload; returns (exit code, result
    object, digests observed)."""
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    if reference is not None:
        command += ["--reference", str(reference)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    digests = {}
    for line in lines:
        if line.startswith("# digests "):
            digests = json.loads(line[len("# digests "):])
    return done.returncode, json.loads(lines[-1]), digests


def reference_digests():
    return json.loads((BENCH_DIR / "reference.json").read_text())


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, tier in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run("chip64", 1, trace)
            self.assertEqual(code, 0, result)
            self.assertEqual(set(result), {"correct", "attempted",
                                           "failed", "metrics"})
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            declared = {metric["name"]: metric["unit"]
                        for metric in spec[tier]}
            self.assertEqual(printed, declared)
            if tier == "end_to_end":
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


class OutputChecks(unittest.TestCase):
    def test_corrupted_reference_digest_is_a_failure(self):
        reference = reference_digests()
        good = reference["chip64"]
        reference["chip64"] = good[:-1] + ("1" if good[-1] == "0" else "0")
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / "corrupted-reference.json"
        path.write_text(json.dumps(reference))
        code, result, digests = run("chip64", 1, reference=path)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(digests["chip64"], good)

    def test_report_seeds_give_the_same_result_digest(self):
        observed = []
        for seed in (1, 2):
            code, result, digests = run("report_warm", seed)
            self.assertEqual(code, 0, result)
            observed.append(digests)
        self.assertEqual(observed[0], observed[1])
        reference = reference_digests()
        self.assertEqual(observed[0]["results"], reference["results"])
        self.assertEqual(observed[0]["figures"], reference["figures"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
