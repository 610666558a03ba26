"""Tests for the SLO harness: percentiles, reports, and the knee."""

import pytest

from repro.workloads import SloReport, find_knee, nearest_rank, summarize
from repro.workloads.engine import STATUSES, Outcome, Request, TrafficResult


def result_with(statuses_and_latencies, issued=None):
    """Build a TrafficResult from (status, latency) pairs, arrival at 0."""
    outcomes = [
        Outcome(
            request=Request(index=i, at=0, caller=i, seq=0),
            status=status,
            issued_at=0,
            finished_at=latency,
        )
        for i, (status, latency) in enumerate(statuses_and_latencies)
    ]
    return TrafficResult(
        issued=len(outcomes) if issued is None else issued, outcomes=outcomes
    )


class TestPercentile:
    def test_nearest_rank_returns_an_element(self):
        values = [10, 20, 30, 40, 50]
        for p in (1, 25, 50, 75, 99, 100):
            assert nearest_rank(values, p) in values

    def test_median_of_odd(self):
        assert nearest_rank([3, 1, 2], 50) == 2

    def test_p100_is_max_p0_is_min(self):
        values = [7, 1, 9, 4]
        assert nearest_rank(values, 100) == 9
        assert nearest_rank(values, 0) == 1

    def test_single_element(self):
        assert nearest_rank([42], 99.9) == 42

    def test_p999_picks_tail(self):
        values = list(range(1, 1001))  # 1..1000
        assert nearest_rank(values, 99.9) == 999
        assert nearest_rank(values, 99) == 990

    def test_float_ceiling_regression(self):
        # p=16.1 of n=1000 is exactly rank 161 (16.1 * 1000 / 100), but
        # the float product 16.1 * 1000 overshoots to 16100.000000000002,
        # so the old float ceiling -(-p * n // 100) landed on rank 162.
        # The exact rational arithmetic in nearest_rank picks index 160.
        values = list(range(1000))
        assert nearest_rank(values, 16.1) == 160
        assert -(-16.1 * len(values) // 100) == 162  # the bug, preserved
        # And the marquee tail spec stays element-exact too.
        assert nearest_rank(list(range(8000)), 99.9) == 7991

    def test_empty_is_none(self):
        assert nearest_rank([], 50) is None

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1], -1)
        with pytest.raises(ValueError):
            nearest_rank([1], 101)


class TestSummarize:
    def test_basic_report(self):
        result = result_with(
            [("ok", 10), ("ok", 20), ("ok", 30), ("shed", 5), ("dropped", 0)]
        )
        report = summarize(result, horizon=1000)
        assert report.issued == 5
        assert report.served == 3
        assert report.goodput_fraction == 0.6
        assert report.offered_per_ktick == 5.0
        assert report.goodput_per_ktick == 3.0
        assert report.p50 == 20
        assert report.max_latency == 30
        assert report.mean_latency == 20.0

    def test_no_served_requests(self):
        result = result_with([("shed", 0), ("shed", 0)])
        report = summarize(result, horizon=10)
        assert report.p50 is None
        assert report.p99 is None
        assert report.mean_latency is None
        assert report.goodput_fraction == 0.0

    def test_default_horizon_spans_run(self):
        result = result_with([("ok", 5), ("ok", 45)])
        report = summarize(result)
        assert report.horizon == 45  # first arrival 0 .. last finish 45

    def test_conservation_checked_first(self):
        result = result_with([("ok", 1)], issued=3)
        with pytest.raises(AssertionError, match="conservation"):
            summarize(result)

    def test_bad_horizon_raises(self):
        result = result_with([("ok", 1)])
        with pytest.raises(ValueError):
            summarize(result, horizon=0)

    def test_to_row_has_all_statuses(self):
        result = result_with([("ok", 10), ("timeout", 0), ("error", 0)])
        report = summarize(result, horizon=100)
        row = report.to_row()
        for status in STATUSES:
            assert status in row
        assert row["ok"] == 1
        assert row["timeout"] == 1
        assert row["error"] == 1
        assert row["issued"] == 3

    def test_to_row_merges_extra(self):
        report = SloReport(
            issued=0,
            counts={s: 0 for s in STATUSES},
            horizon=1,
            offered_per_ktick=0.0,
            goodput_per_ktick=0.0,
            p50=None,
            p99=None,
            p999=None,
            mean_latency=None,
            max_latency=None,
            extra={"note": "x"},
        )
        assert report.to_row()["note"] == "x"


class TestFindKnee:
    def test_obvious_knee(self):
        # Goodput tracks offered load, then flatlines: the knee is the
        # point of maximum deviation from the chord — where the curve
        # visibly stops keeping up.
        points = [(10, 10), (20, 20), (40, 22), (80, 23), (160, 23)]
        assert find_knee(points) == 2

    def test_handles_unsorted_input(self):
        points = [(80, 23), (10, 10), (160, 23), (20, 20), (40, 22)]
        assert find_knee(points) == 4  # the (40, 22) entry

    def test_fewer_than_three_points(self):
        assert find_knee([(1, 1)]) == 0
        assert find_knee([(1, 1), (2, 2)]) == 1

    def test_zero_chord(self):
        points = [(5, 5), (5, 5), (5, 5)]
        assert find_knee(points) == 2

    def test_straight_line_returns_endpoint(self):
        # No bend at all: every distance is ~0, the endpoint wins.
        points = [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert find_knee(points) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            find_knee([])
