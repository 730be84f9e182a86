"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s panebench -p 'test_*.py'

The rule tests are pure. The determinism test builds the benchmark tool
(reusing .bench_build/ when present) and generates inputs twice.
"""

import filecmp
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

MS = 1000000  # ns


def record(due_ms, sent_ms, recv_ms, ok=1):
    recv = -1 if recv_ms is None else int(recv_ms * MS)
    return (int(due_ms * MS), int(sent_ms * MS), recv, ok)


def steady(count, period_ms, service_ms):
    """A stream that is always on time and answered after service_ms."""
    return [record(i * period_ms, i * period_ms, i * period_ms + service_ms)
            for i in range(count)]


class PercentileRuleTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_supported_percentile(19))
        self.assertEqual(stats.highest_supported_percentile(20), 50.0)
        self.assertEqual(stats.highest_supported_percentile(99), 50.0)
        self.assertEqual(stats.highest_supported_percentile(100), 90.0)
        self.assertEqual(stats.highest_supported_percentile(999), 90.0)
        self.assertEqual(stats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(stats.highest_supported_percentile(9999), 99.0)
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)
        self.assertEqual(stats.highest_supported_percentile(100000), 99.99)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 50), 500)
        self.assertEqual(stats.percentile(values, 99), 990)
        # Exactly ten samples lie beyond the reported p99.
        self.assertEqual(sum(1 for v in values if v > 990), 10)

    def test_failures_are_misses(self):
        records = steady(999, 1.0, 0.5) + [record(999, 999, None)]
        lat = [stats.latency_us(r) for r in records]
        self.assertEqual(max(lat), stats.MISS)
        err = record(0, 0, 0.2, ok=0)
        self.assertEqual(stats.latency_us(err), stats.MISS)

    def test_window_must_support_percentile(self):
        with self.assertRaises(ValueError):
            stats.windowed_percentile(steady(500, 1.0, 0.5), 500 * MS, 99)
        # Two full windows of 1000: each supports p99.
        self.assertAlmostEqual(
            stats.windowed_percentile(steady(2000, 1.0, 0.5), 1000 * MS, 99),
            500.0)

    def test_windowed_median_ignores_one_bad_window(self):
        good = steady(3000, 1.0, 0.5)
        # Window 1 (1000..1999 ms) is stalled: 2% of its requests take 30ms.
        bad = [record(r[0] / MS, r[1] / MS, r[0] / MS + 30)
               if 1000 <= r[0] / MS < 1020 else r for r in good]
        self.assertAlmostEqual(stats.windowed_percentile(bad, 1000 * MS, 99),
                               500.0)

    def test_windows_split_evenly(self):
        groups = stats.windows(steady(2300, 1.0, 0.5), 1000 * MS)
        self.assertEqual([len(g) for g in groups], [1150, 1150])
        groups = stats.windows(steady(10000, 1.0, 0.5), 1500 * MS)
        self.assertEqual([len(g) for g in groups],
                         [1666, 1667, 1667, 1666, 1667, 1667])
        self.assertEqual(len(stats.windows(steady(10, 1.0, 0.5), MS * 50)), 1)


class WindowedCostTest(unittest.TestCase):
    def test_cost_per_request_ignores_one_busy_window(self):
        # 3000 requests at 1 per ms from t=5 ms; a counter that grows 2 units
        # per ms, plus a burst of 4000 units inside the second window.
        records = steady(3000, 1.0, 0.5)
        origin = 5 * MS
        samples = [(t * MS, 2.0 * t + (4000.0 if t > 1500 else 0.0))
                   for t in range(0, 3200, 100)]
        self.assertAlmostEqual(
            stats.windowed_cost(records, 1000 * MS, origin, samples), 2.0)

    def test_outside_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.interpolate([(0, 0.0), (10, 1.0)], 11)
        self.assertAlmostEqual(stats.interpolate([(0, 0.0), (10, 1.0)], 5),
                               0.5)


class OpenLoopLatenessTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # The generator stalled for 10 ms: the request went out late, and
        # the wait counts against the request, not only the service time.
        r = record(100, 110, 110.3)
        self.assertAlmostEqual(stats.lateness_us(r), 10000.0)
        self.assertAlmostEqual(stats.latency_us(r), 10300.0)

    def test_stall_delays_every_request_behind_it(self):
        # 1 ms period; a 5 ms stall at t=10 ms sends requests 10..14 at 15.
        records = []
        for i in range(20):
            sent = 15 if 10 <= i < 15 else i
            records.append(record(i, sent, sent + 0.2))
        late = [stats.lateness_us(r) for r in records]
        self.assertEqual(late[10], 5000.0)
        self.assertEqual(late[14], 1000.0)
        self.assertEqual(late[15], 0.0)
        self.assertEqual(stats.percentile(late, 99), 5000.0)


class LadderRuleTest(unittest.TestCase):
    LIMIT_US = 5000.0
    SLACK = 8

    def verdict(self, records):
        return stats.rung_verdict(records, self.LIMIT_US, self.SLACK)[0]

    def test_healthy_rung_passes(self):
        self.assertTrue(self.verdict(steady(1000, 1.0, 0.5)))

    def test_failure_ends_ladder(self):
        records = steady(1000, 1.0, 0.5)
        records[500] = record(500, 500, 500.4, ok=0)
        self.assertFalse(self.verdict(records))

    def test_unanswered_request_ends_ladder(self):
        records = steady(1000, 1.0, 0.5)
        records[-1] = record(999, 999, None)
        self.assertFalse(self.verdict(records))

    def test_growing_backlog_ends_ladder(self):
        # Served at 0.95 ms per request but offered one per 0.9 ms: the
        # queue grows all rung long, even though the latency limit holds.
        records, free = [], 0.0
        for i in range(1000):
            due = i * 0.9
            free = max(free, due) + 0.95
            records.append(record(due, due, free))
        self.assertLess(stats.percentile(
            [stats.latency_us(r) for r in records], 99), 60000)
        self.assertTrue(stats.backlog_growing(records, self.SLACK))
        self.assertFalse(stats.rung_verdict(records, 1e9, self.SLACK)[0])

    def test_p99_over_limit_ends_ladder(self):
        records = steady(1000, 1.0, 0.5)
        for i in range(0, 1000, 50):  # 2% of requests take 8 ms
            records[i] = record(i, i, i + 8)
        self.assertFalse(self.verdict(records))

    def test_walk_climbs_until_first_failure(self):
        rates, start = stats.ladder_rates(100.0, 1.05, 3, 6)
        self.assertEqual(len(rates), 10)
        self.assertAlmostEqual(rates[start], 100.0)
        for a, b in zip(rates, rates[1:]):
            self.assertAlmostEqual(b / a, 1.05)
        tried = []

        def run(rate):
            tried.append(rate)
            return rate <= 112.0, ""

        best = stats.walk_ladder(rates, start, run, attempts=1)
        self.assertAlmostEqual(rates[best], 100.0 * 1.05 ** 2)
        # Stopped at the first failing rung; nothing above it ran.
        self.assertEqual(len(tried), 4)

    def test_failing_rung_is_confirmed_once(self):
        rates, start = stats.ladder_rates(100.0, 1.05, 3, 6)
        outcomes = iter([True, False, True, False, False])
        tried = []

        def run(rate):
            tried.append(rate)
            return next(outcomes), ""

        # start passes; rung +1 fails then passes on retry; rung +2 fails
        # twice and ends the walk.
        best = stats.walk_ladder(rates, start, run)
        self.assertAlmostEqual(rates[best], 105.0)
        self.assertEqual(len(tried), 5)

    def test_walk_descends_when_start_fails(self):
        rates, start = stats.ladder_rates(100.0, 1.05, 3, 6)
        best = stats.walk_ladder(rates, start, lambda r: (r < 90.0, ""))
        self.assertAlmostEqual(rates[best], 100.0 / 1.05 ** 3)
        self.assertIsNone(stats.walk_ladder(rates, start,
                                            lambda r: (False, "")))

    def test_achieved_rate(self):
        self.assertAlmostEqual(stats.achieved_rate(steady(1001, 1.0, 0.0)),
                               1001.0, places=6)

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([10.0] * 10), 0.0)
        self.assertTrue(math.isclose(
            stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            5.5 / 5.5))


class SeededInputTest(unittest.TestCase):
    """The same seed gives byte-identical graph and embedding files; another
    seed gives different ones."""

    @classmethod
    def setUpClass(cls):
        import json
        import run
        with open(os.path.join(HERE, "config.json")) as f:
            cls.cfg = json.load(f)
        cls.tool = run.build(cls.cfg)[0]

    def generate(self, out, seed):
        g = self.cfg["train"]["graph"]
        e = self.cfg["serve"]["embedding"]
        subprocess.run([self.tool, "gen-graph", "--seed=%d" % seed,
                        "--nodes=%d" % g["nodes"], "--edges=%d" % g["edges"],
                        "--attrs=%d" % g["attrs"],
                        "--attr-entries=%d" % g["attr_entries"],
                        "--communities=%d" % g["communities"],
                        "--out=" + os.path.join(out, "graph")],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run([self.tool, "gen-embedding", "--seed=%d" % seed,
                        "--nodes=%d" % e["nodes"], "--attrs=%d" % e["attrs"],
                        "--dim=%d" % e["dim"], "--clusters=%d" % e["clusters"],
                        "--out=" + os.path.join(out, "serve.ctn")],
                       check=True, stdout=subprocess.DEVNULL)

    def test_same_seed_same_bytes(self):
        scratch = os.path.join(os.path.dirname(HERE), ".bench_build")
        with tempfile.TemporaryDirectory(dir=scratch) as a, \
                tempfile.TemporaryDirectory(dir=scratch) as b, \
                tempfile.TemporaryDirectory(dir=scratch) as c:
            self.generate(a, 7)
            self.generate(b, 7)
            self.generate(c, 8)
            cmp = filecmp.dircmp(os.path.join(a, "graph"),
                                 os.path.join(b, "graph"))
            self.assertTrue(cmp.left_list)
            _, mismatch, errors = filecmp.cmpfiles(
                os.path.join(a, "graph"), os.path.join(b, "graph"),
                cmp.left_list, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            self.assertTrue(filecmp.cmp(os.path.join(a, "serve.ctn"),
                                        os.path.join(b, "serve.ctn"),
                                        shallow=False))
            self.assertFalse(filecmp.cmp(os.path.join(a, "serve.ctn"),
                                         os.path.join(c, "serve.ctn"),
                                         shallow=False))


if __name__ == "__main__":
    unittest.main()
