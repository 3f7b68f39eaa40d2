"""Tests of the repo benchmark itself, at a tiny run length.

Run from the repository root (builds .bench_build/perfbench first):

    python3 -m unittest discover -s perfbench/tests -v
"""

import contextlib
import io
import json
import pathlib
import sys
import unittest
from unittest import mock

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

TINY = (2000, 5000)  # warm-up, measured instructions per core
WORKLOAD = "gups_nested_walk"


def bench(*args):
    """run.main in-process at the tiny run length; returns (exit code,
    stdout lines, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", WORKLOAD, "--seed", "3",
                         "--seconds", "0", *args], length=TINY)
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def tiny_cell(seed, trace=False):
    cell = run.run_cell(WORKLOAD, seed, trace, *TINY)
    assert cell is not None, "perfbench_cell failed"
    return cell


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def check_metrics(self, lines, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            # Printed once in the table, with its unit.
            rows = [ln.split() for ln in lines[:-1]
                    if ln.split()[:1] == [m["name"]]]
            self.assertEqual(len(rows), 1, m["name"])
            self.assertEqual(rows[0][-1], m["unit"], m["name"])

    def test_end_to_end_metrics_printed_once_with_units(self):
        code, lines, result = bench("--trace", "0")
        self.assertEqual(code, 0)
        self.check_metrics(lines, result, self.spec["end_to_end"])

    def test_per_layer_metrics_printed_once_with_units(self):
        code, lines, result = bench("--trace", "1")
        self.assertEqual(code, 0)
        self.check_metrics(lines, result, self.spec["per_layer"])
        self.assertTrue(any(ln.startswith("ledger (") for ln in lines))

    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_determinism_check_fires_on_two_seeds(self):
        a, a_again, b = tiny_cell(1), tiny_cell(1), tiny_cell(2)
        self.assertEqual(run.check_cells([a, a_again]), ([a, a_again], []))
        passed, reasons = run.check_cells([a, a_again, b])
        self.assertEqual(passed, [a, a_again])
        self.assertEqual(len(reasons), 1)
        self.assertIn("non-deterministic", reasons[0])

    def test_violation_and_crash_count_as_failed(self):
        a = tiny_cell(1)
        broken = dict(a, violations=1, first_violation="x")
        passed, reasons = run.check_cells([a, broken, None])
        self.assertEqual(passed, [a])
        self.assertEqual(len(reasons), 2)

    def test_failed_cells_do_not_feed_the_metrics(self):
        a = tiny_cell(1)
        # Slow enough to move every median, short enough that the run's
        # time budget still lets the third cell start.
        t = a["time"]
        slow = dict(a, violations=1, first_violation="x",
                    time=dict(t, setup_s=t["setup_s"] + 50,
                              measured_s=t["measured_s"] + 50,
                              cell_s=t["cell_s"] + 50))
        with mock.patch.object(run, "run_cell", side_effect=[a, slow, a]):
            code, _, result = bench("--trace", "0")
        self.assertEqual(code, 0)
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))
        self.assertFalse(result["correct"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["setup_s"], t["setup_s"])
        self.assertEqual(metrics["cell_s"], t["cell_s"])
        self.assertAlmostEqual(
            metrics["maps"], a["sim"]["total_memrefs"] / t["measured_s"] / 1e6)

    def test_result_printed_when_every_cell_fails(self):
        with mock.patch.object(run, "run_cell", return_value=None):
            code, _, result = bench("--trace", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({m["name"] for m in self.spec["end_to_end"]},
                         set(result["metrics"]))
        for m in result["metrics"].values():
            self.assertIsNone(m["value"])

    def test_ledger_terms_non_negative(self):
        cell = tiny_cell(1, trace=True)
        rows, explained, measured, _ = run.ledger(cell)
        self.assertEqual({r["layer"] for r in rows}, set(run.LEDGER))
        for r in rows:
            self.assertGreaterEqual(r["calls"], 0, r["layer"])
            self.assertGreaterEqual(r["self_ns"], 0.0, r["layer"])
            self.assertGreaterEqual(r["term_s"], 0.0, r["layer"])
        self.assertGreater(explained, 0.0)
        self.assertGreater(measured, 0.0)


if __name__ == "__main__":
    unittest.main()
