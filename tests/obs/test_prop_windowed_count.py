"""Property: ``WindowedCount``'s running sum answers every query as a
re-sum of its buckets would.

The reference below is the counter as it was before the running sum: the
same buckets, the same front expiry, and a ``total`` that re-sums every
kept bucket under the window rule (a bucket counts while any instant it
covers is in ``(now - width, now]``).  Marks arrive in time order, as the
live plane makes them; queries may look at any ``now``, earlier than the
newest mark included, and at any width, wider than the counter's own.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.obs.live.burnrate import BurnRateMonitor
from repro.obs.live.stream import WindowedCount

STEP = 10
WINDOW = 60


class ReSum:
    """The re-summing counter: what every query must equal."""

    def __init__(self, window: int, step: int) -> None:
        self.window = window
        self.step = step
        self._buckets: deque = deque()

    def mark(self, at: int, weight: int = 1) -> None:
        start = at - at % self.step
        if not self._buckets or self._buckets[-1][0] != start:
            self._buckets.append([start, 0])
        self._buckets[-1][1] += weight

    def expire(self, now: int) -> None:
        while self._buckets and self._buckets[0][0] + self.step <= now - self.window:
            self._buckets.popleft()

    def total(self, now: int, window: int | None = None) -> int:
        self.expire(now)
        horizon = now - (self.window if window is None else window)
        return sum(
            count for start, count in self._buckets
            if start + self.step > horizon and start <= now
        )


weights = st.one_of(st.just(0), st.integers(1, 3), st.just(10**12))
widths = st.one_of(
    st.none(),
    st.sampled_from([STEP, 2 * STEP, WINDOW - STEP, WINDOW, WINDOW + STEP, 3 * WINDOW]),
    st.integers(1, 2 * WINDOW),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("mark"), st.integers(0, 25), weights),
        st.tuples(st.just("expire"), st.integers(-30, 90), st.none()),
        st.tuples(st.just("total"), st.integers(-30, 90), widths),
    ),
    max_size=80,
)


@settings(max_examples=400, deadline=None)
@given(ops)
def test_total_equals_a_resum_of_the_buckets(ops):
    counter, reference = WindowedCount(WINDOW, STEP), ReSum(WINDOW, STEP)
    newest = 0
    for op, delta, arg in ops:
        if op == "mark":
            newest += delta  # marks never go back in time
            counter.mark(newest, arg)
            reference.mark(newest, arg)
        elif op == "expire":
            counter.expire(newest + delta)
            reference.expire(newest + delta)
        else:
            # ``newest + delta`` may be before the newest mark.
            now = newest + delta
            assert counter.total(now, arg) == reference.total(now, arg), (now, arg)
    assert counter.total(newest) == reference.total(newest)


def _log(monitor: BurnRateMonitor) -> list[dict]:
    return [event.to_dict() for event in monitor.events]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=200))
def test_burn_rate_alert_log_is_the_resums(outcomes):
    """A monitor on running sums writes the alert log a re-summing one does."""
    monitor = BurnRateMonitor("slo", 0.9, fast=20, slow=60, step=STEP)
    reference = BurnRateMonitor("slo", 0.9, fast=20, slow=60, step=STEP)
    reference._bad, reference._total = ReSum(60, STEP), ReSum(60, STEP)
    at, boundary = 0, STEP
    for delta, ok in outcomes:
        at += delta
        while boundary <= at:
            monitor.roll(boundary)
            reference.roll(boundary)
            boundary += STEP
        monitor.record(ok, at)
        reference.record(ok, at)
    for _ in range(12):  # let every window drain
        monitor.roll(boundary)
        reference.roll(boundary)
        boundary += STEP
    assert _log(monitor) == _log(reference)
    assert monitor.state_dict(boundary) == reference.state_dict(boundary)
