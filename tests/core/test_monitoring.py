"""Tests for the metrics helpers in repro.core.monitoring."""

import pytest

from repro.core.monitoring import (
    LatencySummary,
    max_overlap,
    queue_times,
    response_times,
    summarize,
    throughput,
)


class TestPercentile:
    """A summary's percentiles are nearest-rank (``obs.live.nearest_rank``,
    the repo's one definition): never interpolated, so each is a latency
    some call actually had."""

    def test_empty(self):
        summary = summarize([])
        assert (summary.median, summary.p95) == (0, 0)

    def test_single(self):
        summary = summarize([7])
        assert (summary.median, summary.p95) == (7, 7)

    def test_median_odd(self):
        assert summarize([1, 2, 3]).median == 2

    def test_median_even_is_the_lower_observation(self):
        assert summarize([1, 2, 3, 4]).median == 2

    def test_p95(self):
        assert summarize(range(1, 101)).p95 == 95


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary == LatencySummary.empty()
        assert summary.count == 0

    def test_basic_stats(self):
        summary = summarize([10, 20, 30])
        assert summary.count == 3
        assert summary.mean == pytest.approx(20.0)
        assert summary.median == 20
        assert summary.p95 == 30
        assert summary.maximum == 30
        assert summary.minimum == 10

    def test_none_values_skipped(self):
        assert summarize([10, None, 30]).count == 2

    def test_row_rounding(self):
        row = summarize([1, 2]).row()
        assert row["mean"] == 1.5
        assert row["n"] == 2


class TestThroughput:
    def test_ops_per_kilotick(self):
        assert throughput(50, 1000) == 50.0
        assert throughput(50, 2000) == 25.0

    def test_zero_elapsed(self):
        assert throughput(10, 0) == 0.0


class TestMaxOverlap:
    def test_disjoint(self):
        assert max_overlap([(0, 10), (20, 30)]) == 1

    def test_nested(self):
        assert max_overlap([(0, 100), (10, 20), (30, 40)]) == 2

    def test_identical(self):
        assert max_overlap([(0, 10)] * 5) == 5

    def test_back_to_back_not_overlapping(self):
        assert max_overlap([(0, 10), (10, 20)]) == 1

    def test_empty(self):
        assert max_overlap([]) == 0


class TestCallSummaries:
    def test_response_and_queue_times_from_records(self, kernel):
        from repro.core import AcceptGuard, AlpsObject, entry, manager_process
        from repro.kernel import Delay, Par, Select

        class Timed(AlpsObject):
            @entry
            def op(self):
                yield Delay(10)

            @manager_process(intercepts=["op"])
            def mgr(self):
                while True:
                    result = yield Select(AcceptGuard(self, "op"))
                    yield from self.execute(result.value)

        obj = Timed(kernel, record_calls=True)

        def caller():
            yield obj.op()

        def main():
            yield Par(*[lambda: caller() for _ in range(3)])

        kernel.run_process(main)
        calls = obj.completed_calls("op")
        assert len(calls) == 3
        rt = response_times(calls)
        qt = queue_times(calls)
        assert rt.count == 3
        assert rt.minimum >= 10  # at least the service time
        # Serial manager: later calls queue behind earlier ones.
        assert qt.maximum > qt.minimum
