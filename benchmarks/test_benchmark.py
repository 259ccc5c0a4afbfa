"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s benchmarks      (or: python3 -m pytest benchmarks)
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import measure
import oracle
from tracing import Tracer

HERE = Path(__file__).resolve().parent


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        self.assertEqual(measure.percentile(samples, 99), 990)
        self.assertEqual(sum(s > 990 for s in samples), measure.MIN_TAIL)
        with self.assertRaises(measure.TooFewSamples):
            measure.percentile(samples[:999], 99)

    def test_median_rank(self):
        self.assertEqual(measure.percentile(list(range(1, 101)), 50), 50)


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.now = 0.0
        self.tracer = Tracer(clock=lambda: self.now)

    def advance(self, seconds):
        self.now += seconds

    def test_self_time_is_span_minus_child_spans(self):
        def leaf():
            self.advance(2.0)

        traced_leaf = self.tracer.wrap("torus_knots", leaf)

        def outer():
            self.advance(1.0)
            traced_leaf()
            traced_leaf()
            self.advance(3.0)

        self.tracer.wrap("bench", outer)()
        totals = self.tracer.by_callee()
        outer_t, leaf_t = totals[f"{__name__}.outer"], totals[f"{__name__}.leaf"]
        self.assertEqual((outer_t.calls, outer_t.seconds, outer_t.self_seconds), (1, 8.0, 4.0))
        self.assertEqual((leaf_t.calls, leaf_t.seconds, leaf_t.self_seconds), (2, 4.0, 4.0))
        self.assertEqual(self.tracer.self_seconds(__name__), 8.0)

    def test_raising_call_still_closes_its_span(self):
        def boom():
            self.advance(1.0)
            raise ValueError("boom")

        traced = self.tracer.wrap("bench", boom)
        with self.assertRaises(ValueError):
            traced()
        self.tracer.wrap("bench", lambda: self.advance(0.5))()
        totals = self.tracer.by_callee()
        self.assertEqual(totals[f"{__name__}.boom"].seconds, 1.0)
        self.assertEqual(totals[f"{__name__}.<lambda>"].self_seconds, 0.5)

    def test_generator_spans_cover_steps_not_the_consumer(self):
        def steps():
            for _ in range(3):
                self.advance(1.0)
                yield None

        for _ in self.tracer.wrap("cli", steps)():
            self.advance(10.0)
        t = self.tracer.by_callee()[f"{__name__}.steps"]
        self.assertEqual((t.calls, t.seconds), (4, 3.0))

    def test_size_counts_result_items(self):
        traced = self.tracer.wrap("verify", lambda n: [0] * n, size=len)
        traced(3)
        traced(4)
        self.assertEqual(self.tracer.by_callee()[f"{__name__}.<lambda>"].items, 7)


class CoreSplit(unittest.TestCase):
    def test_two_workers_half_busy(self):
        utilisation, idle = measure.core_split(wall=2.0, workers=2, parent_cpu=0.5, worker_cpu=1.5)
        self.assertAlmostEqual(utilisation, 0.5)
        self.assertAlmostEqual(idle, 2.0)

    def test_one_worker_fully_busy(self):
        self.assertEqual(measure.core_split(1.0, 1, 1.0, 0.0), (1.0, 0.0))

    def test_idle_never_negative(self):
        utilisation, idle = measure.core_split(1.0, 1, 1.25, 0.0)
        self.assertAlmostEqual(utilisation, 1.25)
        self.assertEqual(idle, 0.0)


class DistinctDraws(unittest.TestCase):
    def test_repeat_is_rejected(self):
        seen = measure.Distinct(bits=1 << 12)
        self.assertTrue(seen.add((7, 5)))
        self.assertFalse(seen.add((7, 5)))
        self.assertTrue(seen.add((5, 7)))


class Oracle(unittest.TestCase):
    def test_worked_values(self):
        self.assertEqual(oracle.expansion(34, 49), [0, 1, 2, 3, 1, 3])
        self.assertEqual(oracle.skip_total(oracle.expansion(8, 3)), 4)  # N(8, 3) = 2
        self.assertEqual(oracle.skip_total(oracle.expansion(3, 2)), 3)  # N(3, 2) = 3/2
        record = oracle.invariants_record(7, 5)
        self.assertEqual((record["genus"], record["crossing"], record["crosscap"]), (12, 28, 3))

    def test_families(self):
        for n in range(1, 40):
            self.assertEqual(oracle.crosscap(2 * n + 1, 2), 1)
            self.assertEqual(oracle.crosscap(6 * n - 2, 3), n + 1)


class Definition(unittest.TestCase):
    def test_every_metric_is_mapped_once(self):
        definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "spec.json").read_text())
        mapped = [m for group in spec["layer_map"] for m in group["metrics"]]
        declared = [m["name"] for m in definition["per_layer"]]
        self.assertEqual(sorted(mapped), sorted(declared))
        end_to_end = {m["name"] for m in definition["end_to_end"]}
        workloads = {w["name"] for w in definition["workloads"]}
        self.assertEqual(workloads, set(spec["workloads"]))
        for group in spec["layer_map"]:
            for metric, workload in group["moves"] + group.get("no_change", []):
                self.assertIn(metric, end_to_end)
                self.assertIn(workload, workloads)


if __name__ == "__main__":
    unittest.main()
