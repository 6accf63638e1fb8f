"""Self-tests for the harness's statistics; ``run.py`` runs them before
every measurement, or run them alone:

    cd perfbench && python3 -m unittest test_harness
"""

from __future__ import annotations

import math
import statistics
import unittest

from harness import Step, Summary, max_rate, percentile, self_times, tail_percentile


def span(id_: int, parent: int | None, start: float, end: float) -> dict:
    return {"id": id_, "parent": parent, "start": start, "end": end}


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self) -> None:
        # 1000 samples: p99 leaves exactly 10 beyond it
        self.assertEqual(tail_percentile(list(range(1000)))[0], 99.0)
        # 200 samples: only p95 leaves 10 beyond
        self.assertEqual(tail_percentile(list(range(200)))[0], 95.0)
        # 100 samples: p90
        self.assertEqual(tail_percentile(list(range(100)))[0], 90.0)

    def test_few_samples_fall_back_to_median(self) -> None:
        q, value = tail_percentile([3.0, 1.0, 2.0])
        self.assertEqual(q, 50.0)
        self.assertEqual(value, 2.0)

    def test_summary_states_count(self) -> None:
        summary = Summary.of([float(v) for v in range(1, 501)])
        self.assertEqual(summary.n, 500)
        self.assertEqual(summary.median, 250.5)
        self.assertEqual(summary.tail_q, 98.0)
        self.assertTrue(490 <= summary.tail <= 491)

    def test_percentile_matches_statistics(self) -> None:
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(percentile(values, 25), q1)
        self.assertAlmostEqual(percentile(values, 50), med)
        self.assertAlmostEqual(percentile(values, 75), q3)


class SelfTime(unittest.TestCase):
    def test_nested(self) -> None:
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 2, 2.0, 3.0),
            span(4, 1, 5.0, 9.0),
        ]
        selves = self_times(spans)
        self.assertAlmostEqual(selves[1], 3.0)
        self.assertAlmostEqual(selves[2], 2.0)
        self.assertAlmostEqual(selves[3], 1.0)
        self.assertAlmostEqual(selves[4], 4.0)
        self.assertAlmostEqual(sum(selves.values()), 10.0)

    def test_overlapping_children_counted_once(self) -> None:
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 5.0),
            span(3, 1, 3.0, 7.0),  # overlaps 2 on [3, 5]
            span(4, 1, 4.0, 4.5),  # inside both
        ]
        self.assertAlmostEqual(self_times(spans)[1], 4.0)

    def test_child_outside_parent_is_clipped(self) -> None:
        spans = [span(1, None, 0.0, 4.0), span(2, 1, 3.0, 6.0)]
        self.assertAlmostEqual(self_times(spans)[1], 3.0)


class Ladder(unittest.TestCase):
    def step(self, rate: float, latency: float, failed: int = 0,
             late: list[float] | None = None) -> Step:
        return Step(rate, [latency] * 100, late or [0.1] * 100, failed)

    def test_failure_counts_as_missing_the_limit(self) -> None:
        self.assertEqual(self.step(100, 1.0, failed=15).tail()[1], math.inf)
        # one failure is within the top 1% yet still disqualifies the step
        self.assertFalse(self.step(100, 1.0, failed=1).qualifies(50.0, 10.0))
        dropped = Step(100, [1.0] * 100, [0.1] * 100, 0, dropped=1)
        self.assertFalse(dropped.qualifies(50.0, 10.0))

    def test_growing_backlog_disqualifies(self) -> None:
        growing = [float(i) for i in range(100)]  # 0 ms .. 99 ms late
        step = self.step(400, 1.0, late=growing)
        self.assertTrue(step.backlog_grew(10.0))
        self.assertFalse(step.qualifies(50.0, 10.0))
        steady = self.step(400, 1.0, late=[2.0, 3.0] * 50)
        self.assertFalse(steady.backlog_grew(10.0))

    def test_short_step_reads_the_tail_with_ten_beyond(self) -> None:
        # 281 sends (250 req/s for 1.125 s): a raw p99 would leave under
        # three samples beyond it, so three slow requests would decide
        # the step; the tail read has ten beyond it and says where
        latencies = [1.0] * 278 + [200.0] * 3
        step = Step(250, latencies, [0.1] * 281, 0)
        q, value = step.tail()
        self.assertEqual(q, 96.4)
        self.assertEqual(value, 1.0)
        self.assertTrue(step.qualifies(50.0, 10.0))
        # more slow ones than the ten beyond it reach the read tail
        slow = Step(250, [1.0] * 270 + [200.0] * 11, [0.1] * 281, 0)
        self.assertGreater(slow.tail()[1], 50.0)
        self.assertFalse(slow.qualifies(50.0, 10.0))

    def test_max_rate_is_highest_qualifying(self) -> None:
        steps = [
            self.step(100, 2.0),
            self.step(200, 3.0),
            self.step(400, 80.0),  # misses p99
            self.step(800, 2.0, failed=2),  # failures
        ]
        self.assertEqual(max_rate(steps, 50.0, 10.0), 200)
        self.assertEqual(max_rate(steps[2:], 50.0, 10.0), 0.0)


class PaceScaling(unittest.TestCase):
    def test_timing_reports_scaled_median_and_wall(self) -> None:
        from workloads import Outcome

        out = Outcome()
        out.timing("job_s", "sweep_s", [10.0, 12.0, 11.0], "s", scale=0.5)
        self.assertEqual(out.e2e["job_s"], (5.5, "s", 3))
        self.assertIn(("sweep_s [job_s]", 5.5, "s", 3), out.report)
        self.assertIn(("sweep_s.wall", 11.0, "s", 3), out.report)

    def test_unscaled_timing_has_no_wall_line(self) -> None:
        from workloads import Outcome

        out = Outcome()
        out.timing("job_s", "cold_s", [9.0], "s")
        self.assertEqual(out.e2e["job_s"], (9.0, "s", 1))
        self.assertFalse(any(name.endswith(".wall") for name, *_ in out.report))


if __name__ == "__main__":
    unittest.main()
