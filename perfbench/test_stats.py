"""Self-tests of the benchmark's statistics and failure accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: they cover stats.py and the pure helpers of run.py.
"""

import math
import random
import unittest

import run
import stats


def row(cls, sched, send, done, status="ok", conn=0):
    return {"cls": cls, "sched": sched, "send": send, "done": done,
            "status": status, "conn": conn}


class PercentileTest(unittest.TestCase):

    def test_nearest_rank_and_support(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), (50, 50))
        self.assertEqual(stats.percentile(values, 90), (90, 10))
        self.assertEqual(stats.percentile(values, 99), (99, 1))
        self.assertEqual(stats.percentile(values, 100), (100, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 60),
                         stats.percentile([1, 2, 3, 4, 5], 60))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_support_needs_ten_beyond(self):
        self.assertTrue(stats.supported(list(range(100)), 90))
        self.assertFalse(stats.supported(list(range(100)), 91))
        self.assertFalse(stats.supported(list(range(999)), 99))
        self.assertTrue(stats.supported(list(range(1000)), 99))
        self.assertFalse(stats.supported([], 50))

    def test_highest_tail_walks_down_the_ladder(self):
        self.assertEqual(stats.highest_tail(list(range(10000))), 99.9)
        self.assertEqual(stats.highest_tail(list(range(1000))), 99.0)
        self.assertEqual(stats.highest_tail(list(range(200))), 95.0)
        self.assertEqual(stats.highest_tail(list(range(20))), 50.0)
        self.assertIsNone(stats.highest_tail(list(range(19))))

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])


class StatTest(unittest.TestCase):

    def test_unsupported_tail_is_not_a_number(self):
        stat = stats.Stat("hit_p99_us", "us", list(range(500)), 99.0)
        self.assertIsNone(stat.value)
        self.assertIn("unsupported", stat.text())
        self.assertIn("n=500", stat.text())

    def test_supported_tail_and_median(self):
        values = [float(v) for v in range(1, 2001)]
        self.assertEqual(stats.Stat("x", "ms", values, 99.0).value, 1980.0)
        median = stats.Stat("x", "ms", values, 50.0)
        self.assertEqual(median.value, 1000.5)
        self.assertIn("n=2000", median.text())

    def test_median_is_reported_for_few_samples(self):
        self.assertEqual(stats.Stat("x", "ms", [7.0, 9.0], 50.0).value, 8.0)

    def test_failures_push_the_tail_to_missed(self):
        values = stats.with_failures([1.0] * 985, 15)
        stat = stats.Stat("x", "ms", values, 99.0)
        self.assertTrue(math.isinf(stat.value))
        self.assertIn("missed", stat.text())
        # The median is still a latency: the failures are in the tail.
        self.assertEqual(stats.Stat("x", "ms", values, 50.0).value, 1.0)


class LedgerTest(unittest.TestCase):

    def test_counts_per_phase_and_code(self):
        ledger = stats.Ledger()
        ledger.record("measure", "ok", 97)
        ledger.record("measure", "overloaded", 2)
        ledger.record("measure", "deadline_exceeded")
        ledger.record("check", "ok", 4)
        ledger.record("check", "wrong_answer")
        self.assertEqual(ledger.attempted(), 105)
        self.assertEqual(ledger.ok(), 101)
        self.assertEqual(ledger.failed(), 4)
        self.assertEqual(ledger.attempted("measure"), 100)
        self.assertAlmostEqual(ledger.failed_share("measure"), 0.03)
        self.assertEqual(ledger.as_dict(), {
            "measure": {"ok": 97, "overloaded": 2, "deadline_exceeded": 1},
            "check": {"ok": 4, "wrong_answer": 1}})

    def test_empty_phase(self):
        ledger = stats.Ledger()
        self.assertEqual(ledger.attempted("none"), 0)
        self.assertEqual(ledger.failed_share("none"), 0.0)


class LatencyAccountingTest(unittest.TestCase):

    def test_latency_runs_from_the_schedule(self):
        rows = [row("hit", 0, 500, 1500), row("hit", 1000, 1000, 1200)]
        self.assertEqual(run.latencies_ms(rows, "hit"), [1.5, 0.2])

    def test_failed_and_refused_count_as_infinite(self):
        rows = [row("hit", 0, 0, 100), row("hit", 0, 0, 100, "overloaded"),
                row("hit", 0, -1, -1, "transport"),
                row("explore", 0, 0, 100, "deadline_exceeded")]
        hits = run.latencies_ms(rows, "hit")
        self.assertEqual(hits[0], 0.1)
        self.assertEqual(sum(math.isinf(v) for v in hits), 2)
        self.assertTrue(math.isinf(run.latencies_ms(rows, "explore")[0]))

    def test_generator_lag_excludes_waits_on_a_busy_connection(self):
        # Second request was due at 1000 but its connection was busy
        # until 3000; it went out at 3100: 0.1 ms of generator lag.
        rows = [row("hit", 0, 200, 3000), row("hit", 1000, 3100, 3500),
                row("hit", 10000, 10050, 10400, conn=1)]
        p50, p99, busy = run.generator_lag(rows)
        self.assertAlmostEqual(p50, 0.1)
        self.assertAlmostEqual(p99, 0.2)
        self.assertAlmostEqual(busy, 1 / 3)

    def test_generator_lag_skips_unsent(self):
        rows = [row("hit", 0, 10, 20), row("hit", 5, -1, -1, "not_sent")]
        self.assertEqual(run.generator_lag(rows)[2], 0.0)


class OpenLoopTest(unittest.TestCase):

    HITS = [("analyze", {"s": "A"}), ("mine", {"s": "A"}), ("impact", {})]

    def plan(self, connections):
        return run.open_loop(random.Random(1), self.HITS,
                             lambda: ("analyze", {"s": "A", "tfast_ms": 1}),
                             1000.0, 1.0, connections)

    def test_explores_take_the_last_connection(self):
        for connections in (2, 4, 8):
            items = self.plan(connections)
            used = {(i.cls, i.conn) for i in items}
            self.assertEqual({c for cls, c in used if cls == "explore"},
                             {connections - 1})
            self.assertEqual({c for cls, c in used if cls == "hit"},
                             set(range(connections - 1)))

    def test_one_connection_is_shared(self):
        items = self.plan(1)
        self.assertEqual({i.conn for i in items}, {0})
        self.assertEqual({i.cls for i in items}, {"hit", "explore"})

    def test_schedule_is_ordered_and_within_the_run(self):
        offsets = [i.offset_us for i in self.plan(4)]
        self.assertEqual(offsets, sorted(offsets))
        self.assertLess(offsets[-1], 1e6)


class SelfTimeTest(unittest.TestCase):

    def test_children_are_subtracted_once(self):
        spans = [
            ("workload.measure", -1, 0, 100),
            ("client.analyze", 0, 10, 40),
            ("client.mine", 0, 30, 60),  # overlaps its sibling
            ("probe", -1, 100, 200),
            ("trace.decode", 3, 110, 150),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs["workload"], 50)
        self.assertEqual(selfs["client"], 60)
        self.assertEqual(selfs["probe"], 60)
        self.assertEqual(selfs["trace"], 40)


if __name__ == "__main__":
    unittest.main()
