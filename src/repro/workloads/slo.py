"""SLO harness: percentiles, goodput curves, and the knee.

The traffic engine answers "what happened to each request"; this module
answers the question an operator asks of the whole run:

* **virtual-latency percentiles** — p50/p99/p999 of the ticks a served
  request took from its *scheduled arrival* (not its issue instant) to
  completion.  Nearest-rank definition, so every reported percentile is
  a latency some request actually experienced;
* **goodput vs offered load** — requests served OK per kilotick against
  requests offered per kilotick, plus the shed/timeout/dropped makeup of
  the gap.  The accounting is exact: the report refuses to build unless
  ``issued == ok + shed + timeout + dropped + error``;
* **the knee** — given one (offered, goodput) point per sweep step,
  :func:`find_knee` locates the step where the curve bends: the point
  with maximum perpendicular distance from the chord joining the curve's
  endpoints.  Below the knee the object keeps up; above it admission
  control (or collapse) takes over.  EXPERIMENTS.md E14 interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..obs.live.stream import nearest_rank
from .engine import STATUSES, TrafficResult

#: Ticks per rate unit: loads and goodputs are per kilotick.
KILOTICK = 1000


@dataclass
class SloReport:
    """One run of the traffic engine, reduced to its SLO numbers."""

    issued: int
    counts: dict[str, int]
    horizon: int  #: ticks from first scheduled arrival to last completion
    offered_per_ktick: float
    goodput_per_ktick: float
    p50: float | None
    p99: float | None
    p999: float | None
    mean_latency: float | None
    max_latency: int | None
    extra: dict = field(default_factory=dict)

    @property
    def served(self) -> int:
        return self.counts["ok"]

    @property
    def goodput_fraction(self) -> float:
        """Fraction of offered requests served OK."""
        return self.served / self.issued if self.issued else 0.0

    def to_row(self) -> dict:
        """Flat dict for benchmark tables and ``BENCH_E14.json`` rows."""
        row = {
            "issued": self.issued,
            "horizon": self.horizon,
            "offered_per_ktick": round(self.offered_per_ktick, 3),
            "goodput_per_ktick": round(self.goodput_per_ktick, 3),
            "goodput_fraction": round(self.goodput_fraction, 4),
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "mean_latency": (
                round(self.mean_latency, 2) if self.mean_latency is not None else None
            ),
            "max_latency": self.max_latency,
        }
        for status in STATUSES:
            row[status] = self.counts[status]
        row.update(self.extra)
        return row


def summarize(result: TrafficResult, horizon: int | None = None) -> SloReport:
    """Reduce a :class:`TrafficResult` to an :class:`SloReport`.

    ``horizon`` defaults to the span from the first scheduled arrival to
    the last recorded completion; pass an explicit experiment duration
    to compare sweep steps on equal footing.  Calls
    :meth:`~repro.workloads.engine.TrafficResult.check_conservation`
    first — a report over leaky accounting is worse than no report.
    """
    result.check_conservation()
    counts = result.counts
    if horizon is None:
        if result.outcomes:
            first = min(o.request.at for o in result.outcomes)
            last = max(o.finished_at for o in result.outcomes)
            horizon = max(1, last - first)
        else:
            horizon = 1
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    ok_latencies = result.latencies("ok")
    return SloReport(
        issued=result.issued,
        counts=counts,
        horizon=horizon,
        offered_per_ktick=result.issued * KILOTICK / horizon,
        goodput_per_ktick=counts["ok"] * KILOTICK / horizon,
        p50=nearest_rank(ok_latencies, 50),
        p99=nearest_rank(ok_latencies, 99),
        p999=nearest_rank(ok_latencies, 99.9),
        mean_latency=(
            sum(ok_latencies) / len(ok_latencies) if ok_latencies else None
        ),
        max_latency=max(ok_latencies) if ok_latencies else None,
    )


def find_knee(points: Sequence[tuple[float, float]]) -> int:
    """Index of the knee of a goodput curve (max distance from the chord).

    ``points`` are (offered, goodput) pairs, one per sweep step; they are
    considered in order of offered load.  The knee is the point with the
    maximum perpendicular distance from the straight line joining the
    first and last points — the standard "kneedle" construction, which
    needs no smoothing for the short monotone sweeps E14 produces.  With
    fewer than three points (no interior to bend) the last index is
    returned: the curve never visibly saturated.
    """
    if not points:
        raise ValueError("find_knee of empty curve")
    order = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    if len(points) < 3:
        return order[-1]
    x0, y0 = points[order[0]]
    x1, y1 = points[order[-1]]
    dx, dy = x1 - x0, y1 - y0
    norm = (dx * dx + dy * dy) ** 0.5
    if norm == 0:
        return order[-1]
    # Start at 0, not below it: on a perfectly straight curve no point
    # beats the chord and the last index is reported (nothing saturated).
    best_index = order[-1]
    best_distance = 0.0
    for i in order:
        x, y = points[i]
        distance = abs(dx * (y0 - y) - (x0 - x) * dy) / norm
        if distance > best_distance + 1e-12:
            best_distance = distance
            best_index = i
    return best_index
