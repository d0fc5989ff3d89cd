"""Smoke test of the flow benchmark: every workload in both modes at tiny size.

Run from the root of a checkout:

    python3 -m unittest flowbench/test_smoke.py

It checks that the metric catalog in `run.py` is the one `BENCHMARK.json`
declares, and that every end-to-end and per-layer metric is emitted, with
its unit, by a correct run of every workload.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def run_smoke(workload, trace):
    """Runs the benchmark in smoke mode; returns (rows, result line)."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        "--smoke",
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_catalog_matches_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], bench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], bench.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(bench.WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in bench.WORKLOADS:
            for trace, catalog in [(0, bench.END_TO_END), (1, bench.PER_LAYER)]:
                with self.subTest(workload=workload, trace=trace):
                    rows, result = run_smoke(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {name for name, _ in catalog})
                    for name, unit in catalog:
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit, name)
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    if trace == 0:
                        # The rows also name the end-to-end numbers the
                        # result line leaves out, each with its unit.
                        for name, unit in bench.END_TO_END + bench.REPORTED:
                            self.assertTrue(any(row.split()[:2] == [name, unit] for row in rows), name)


if __name__ == "__main__":
    unittest.main()
