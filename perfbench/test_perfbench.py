"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import subprocess
import tempfile
import unittest

import compare
import metrics


class PercentileRuleTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(2000), 99.5)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 95.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(40), 75.0)
        self.assertIsNone(metrics.tail_percentile(39))

    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(metrics.percentile(samples, 50.0), 50)
        self.assertEqual(metrics.percentile(samples, 99.0), 99)
        self.assertEqual(metrics.percentile(samples, 100.0), 100)
        self.assertEqual(metrics.percentile([7], 99.0), 7)

    def test_empty_sample_guard(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50.0)
        self.assertIsNone(metrics.median([]))
        self.assertIsNone(metrics.tail_percentile(0))

    def test_windowed_percentile_ignores_a_noisy_window(self):
        calm = [1.0] * 1000
        noisy = [100.0] * 1000
        samples = calm + noisy + calm
        self.assertEqual(metrics.windowed_percentile(samples, 50.0, 1000),
                         1.0)
        # A remainder shorter than a window joins the last window.
        self.assertEqual(
            metrics.windowed_percentile(calm + [9.0] * 5, 99.9, 1000), 9.0)
        with self.assertRaises(ValueError):
            metrics.windowed_percentile([], 50.0, 1000)


def request(due, start, end, ok=True, dispatch=None):
    return (due, due if dispatch is None else dispatch, start, end, ok)


class OpenLoopAccountingTest(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # Served 2 ms after it was due, 1 ms of service.
        self.assertAlmostEqual(
            metrics.latencies_ms([request(0.010, 0.011, 0.012)])[0], 2.0)

    def test_stall_is_charged_to_requests_queued_behind_it(self):
        # One client; request 0 stalls for 100 ms, requests 1..4 were due
        # during the stall and each waited for it.
        rows = [request(0.0, 0.0, 0.100)]
        clock = 0.100
        for i in range(1, 5):
            rows.append(request(0.01 * i, clock, clock + 0.001))
            clock += 0.001
        lat = metrics.latencies_ms(rows)
        self.assertAlmostEqual(lat[0], 100.0)
        for i in range(1, 5):
            self.assertGreater(lat[i], 100.0 - 10.0 * i)
        # Their service was fast: only timing from the due time shows it.
        self.assertAlmostEqual(rows[1][3] - rows[1][2], 0.001)

    def test_generator_lateness_is_reported(self):
        rows = [request(0.0, 0.0, 0.001, dispatch=0.0),
                request(0.01, 0.013, 0.014, dispatch=0.013)]
        late = metrics.lateness_ms(rows)
        self.assertAlmostEqual(late[0], 0.0)
        self.assertAlmostEqual(late[1], 3.0)

    def test_failure_counts_as_missing_every_limit(self):
        rows = [request(0.0, 0.0, 0.001, ok=False)]
        self.assertEqual(metrics.latencies_ms(rows), [math.inf])

    def test_columns_round_trip(self):
        columns = {"due": [0.0], "dispatch": [0.1], "start": [0.2],
                   "end": [0.3], "ok": [1.0]}
        self.assertEqual(metrics.requests_list(columns),
                         [(0.0, 0.1, 0.2, 0.3, True)])


class WindowedRateTest(unittest.TestCase):
    def test_median_window_ignores_a_stalled_window(self):
        # 100 completions a second, with one 1-second stall after 200.
        ends = [i / 100.0 for i in range(200)]
        ends += [3.0 + i / 100.0 for i in range(200)]
        self.assertAlmostEqual(metrics.windowed_rate(ends, 100), 100.0)

    def test_few_completions_make_one_window(self):
        self.assertAlmostEqual(metrics.windowed_rate([0.5, 0.1, 0.3], 100),
                               5.0)
        with self.assertRaises(ValueError):
            metrics.windowed_rate([0.1], 100)


class AttributionTest(unittest.TestCase):
    def test_parts_add_up_to_wall_time(self):
        spans = [
            (0, "serving", 1.0, 3.0, 0),
            (0, "engine", 1.5, 2.0, 1),   # nested: serving's child
            (1, "ingest", 2.0, 4.0, 0),
        ]
        shares = metrics.attribute(spans, 0.0, 5.0)
        self.assertAlmostEqual(sum(shares.values()), 5000.0)
        self.assertAlmostEqual(shares["unattributed"], 2000.0)
        # 1.0-1.5 serving alone, 1.5-2.0 engine alone, 2.0-3.0 shared
        # between serving and ingest, 3.0-4.0 ingest alone.
        self.assertAlmostEqual(shares["serving"], 1000.0)
        self.assertAlmostEqual(shares["engine"], 500.0)
        self.assertAlmostEqual(shares["ingest"], 1500.0)

    def test_spans_are_clipped_to_the_timed_region(self):
        shares = metrics.attribute([(0, "segment", 0.0, 10.0, 0)], 2.0, 3.0)
        self.assertAlmostEqual(shares["segment"], 1000.0)
        self.assertAlmostEqual(shares["unattributed"], 0.0)

    def test_parse_spans(self):
        spans = metrics.parse_spans(["3\tfde\t0.5\t0.75\t1\n", "bad\n"])
        self.assertEqual(spans, [(3, "fde", 0.5, 0.75, 1)])


class CompareTest(unittest.TestCase):
    base = {s: 100.0 + s for s in range(10)}

    def shifted(self, delta):
        return {s: v + delta for s, v in self.base.items()}

    def test_direction(self):
        self.assertEqual(
            compare.verdict(self.base, self.shifted(-50), "lower", 0.25),
            "better")
        self.assertEqual(
            compare.verdict(self.base, self.shifted(-50), "higher", 0.25),
            "regression")
        self.assertEqual(
            compare.verdict(self.base, self.shifted(50), "higher", 0.25),
            "better")

    def test_within_bound_is_unchanged(self):
        self.assertEqual(
            compare.verdict(self.base, self.shifted(1), "lower", 0.25),
            "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = {s: 100.0 * (1 + s % 3) for s in range(10)}
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1),
                         "unresolved")
        # ... unless every change run beats every base run.
        faster = {s: v / 10.0 for s, v in noisy.items()}
        self.assertEqual(compare.verdict(noisy, faster, "lower", 0.1),
                         "better")

    def test_per_layer_metrics_are_informational(self):
        self.assertEqual(compare.verdict(self.base, self.base, "lower", None),
                         "info")

    def test_more_failed_operations_regress(self):
        base = [(1000, 0), (1000, 1)]
        self.assertEqual(compare.failure_verdict(base, [(1000, 0)] * 2),
                         "unchanged")
        self.assertEqual(compare.failure_verdict(base, [(1000, 2)] * 2),
                         "regression")
        self.assertEqual(compare.failed_share([]), 0.0)

    def test_runs_with_wrong_answers_are_skipped(self):
        with tempfile.TemporaryDirectory() as directory:
            for seed, correct in ((1, True), (2, False)):
                record = {"context": {"workload": "query_mix", "seed": seed},
                          "correct": correct, "attempted": 10, "failed": 0,
                          "metrics": {"setup_s": {"value": 1.0 + seed,
                                                  "unit": "s"}}}
                with open(os.path.join(directory, "%d.json" % seed),
                          "w") as f:
                    json.dump(record, f)
            values, _units, _ctx, counts, skipped = compare.load_runs(
                directory)
        self.assertEqual(values[("query_mix", "setup_s")], {1: 2.0})
        self.assertEqual(counts, {"query_mix": [(10, 0)]})
        self.assertEqual([os.path.basename(p) for p in skipped], ["2.json"])


class OpenLoopGeneratorTest(unittest.TestCase):
    """cobra_e2e's own check: a stalled request delays, and is charged
    to, the requests behind it, and none is dropped; the query stream
    repeats exactly its popular share."""

    def test_selftest(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        binary = os.path.join(root, ".bench_build", "perfbench", "cobra_e2e")
        if not os.path.isfile(binary):
            self.skipTest("cobra_e2e not built (run perfbench/run.py once)")
        proc = subprocess.run([binary, "selftest"], capture_output=True,
                              timeout=60, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout[-400:])


if __name__ == "__main__":
    unittest.main()
