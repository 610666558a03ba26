"""Metrics helpers over completed calls and kernel stats.

The manager "provides a facility for pre- and post-processing of entry
calls which can be used not only to implement scheduling but also to
monitor the object" (§1).  These helpers compute the summary numbers the
benchmark harness prints for each experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..obs.live.stream import nearest_rank
from .calls import Call


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over a sequence of durations (virtual ticks)."""

    count: int
    mean: float
    median: int  #: nearest-rank, like every percentile in the repo
    p95: int
    maximum: int
    minimum: int

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(0, 0.0, 0, 0, 0, 0)

    def row(self) -> dict:
        return {
            "n": self.count,
            "mean": round(self.mean, 2),
            "median": self.median,
            "p95": self.p95,
            "max": self.maximum,
        }


def summarize(durations: Iterable[int]) -> LatencySummary:
    values = sorted(d for d in durations if d is not None)
    if not values:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        median=nearest_rank(values, 50),
        p95=nearest_rank(values, 95),
        maximum=values[-1],
        minimum=values[0],
    )


def response_times(calls: Iterable[Call]) -> LatencySummary:
    """Response-time summary (issue → finish) over completed calls."""
    return summarize(c.response_time for c in calls if c.response_time is not None)


def queue_times(calls: Iterable[Call]) -> LatencySummary:
    """Queueing-delay summary (issue → accept) over completed calls."""
    return summarize(c.queue_time for c in calls if c.queue_time is not None)


def throughput(completed: int, elapsed: int) -> float:
    """Completed operations per 1000 ticks of virtual time."""
    if elapsed <= 0:
        return 0.0
    return completed * 1000.0 / elapsed


def max_overlap(intervals: Iterable[tuple[int, int]]) -> int:
    """Maximum number of simultaneously active intervals.

    Used to verify concurrency claims (e.g. "up to ReadMax readers access
    the database simultaneously", §2.5.1).
    """
    events: list[tuple[int, int]] = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    # Ends sort before starts at the same instant: back-to-back intervals
    # do not count as overlapping.
    events.sort(key=lambda e: (e[0], e[1]))
    active = 0
    peak = 0
    for _t, delta in events:
        active += delta
        peak = max(peak, active)
    return peak
