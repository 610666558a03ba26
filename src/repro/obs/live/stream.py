"""Streaming aggregation primitives evaluated in virtual time.

Everything in this module is *pure*: the primitives never touch a
kernel, a clock, or a sink — they take explicit ``at``/``now`` tick
arguments and fold samples with plain integer/float arithmetic, so two
runs that feed them the same (time, value) sequence produce identical
aggregates.  :class:`~repro.obs.live.LivePlane` binds them to a kernel
clock; tests (and the workloads layer) can also drive them directly.

Window semantics, fixed once for the whole plane:

* a window of width ``W`` queried at time ``now`` covers the half-open
  interval ``(now - W, now]`` — a sample recorded *exactly* at
  ``now - W`` has aged out, a sample recorded at ``now`` counts.  The
  boundary-tick rule is tested explicitly: it is exactly the edge case
  a bucket-granular implementation silently gets wrong;
* samples are bucketed by ``step`` ticks for cheap expiry, but queries
  filter on exact sample times, so percentiles never include an expired
  sample just because its bucket still holds live ones;
* percentiles are **nearest-rank** (an element of the data, never an
  interpolation), computed with exact :class:`~fractions.Fraction`
  arithmetic: ``rank = ceil(p·n/100)``.  The float version
  (``-(-p * n // 100)``) is off by one when ``p·n/100`` is a whole
  number that binary floats overshoot — p16.1 of 1000 samples is
  exactly rank 161, but ``16.1 * 1000`` rounds to ``16100.000000000002``
  and the float ceiling lands on 162.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Sequence

#: Ticks per rate unit: live rates are reported per kilotick, matching
#: the SLO harness (:mod:`repro.workloads.slo`).
KILOTICK = 1000


def nearest_rank(values: Sequence[int | float], p: float) -> int | float | None:
    """Nearest-rank percentile of ``values``; ``None`` on empty input.

    ``p`` is in [0, 100].  The rank is ``ceil(p·n/100)`` computed with
    exact rational arithmetic (``Fraction(str(p))``), so decimal
    percentile specs like ``99.9`` behave as written instead of as their
    nearest binary float.  ``p == 0`` returns the minimum.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not values:
        return None
    ordered = sorted(values)
    if p == 0:
        return ordered[0]
    scaled = Fraction(str(p)) * len(ordered) / 100
    rank = int(scaled) if scaled == int(scaled) else int(scaled) + 1
    return ordered[max(1, rank) - 1]


class Ewma:
    """Exponentially weighted moving average of a scalar sample stream.

    The primitive behind per-entry service-time prediction
    (:attr:`~repro.core.runtime.EntryRuntime.service_estimator`, read by
    :class:`~repro.core.admission.PredictedWaitGuard` and the live
    plane's query API).  ``value`` is ``None`` until the first sample,
    so admission decisions are made only from measured evidence.
    """

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: float | None = None
        self.count = 0

    def update(self, sample: int | float) -> float:
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (sample - self.value)
        self.count += 1
        return self.value


class _Bucketed:
    """Shared step-bucket machinery: a deque of (bucket_start, payload)."""

    def __init__(self, window: int, step: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if window % step:
            raise ValueError(
                f"window ({window}) must be a multiple of step ({step})"
            )
        self.window = window
        self.step = step
        self._buckets: deque = deque()

    def _bucket_start(self, at: int) -> int:
        return at - at % self.step

    def expire(self, now: int) -> None:
        """Drop buckets that cannot contain any live sample at ``now``.

        A bucket starting at ``b`` holds samples with times in
        ``[b, b + step)``; it is dead once ``b + step <= now - window``
        (every time it could hold is ``<= now - window``, and the window
        is open at ``now - window``).
        """
        horizon = now - self.window
        while self._buckets and self._buckets[0][0] + self.step <= horizon:
            self._buckets.popleft()


class WindowedHistogram(_Bucketed):
    """Sliding-window value histogram with exact nearest-rank percentiles.

    Keeps ``(time, value)`` pairs bucketed by ``step``; queries filter on
    exact times so the window boundary is exact even though expiry is
    bucket-granular.  Intended for call latencies and queue depths where
    the sample count inside one window is modest; the simulator examines
    full distributions offline from sinks.
    """

    def observe(self, value: int | float, at: int) -> None:
        start = self._bucket_start(at)
        if not self._buckets or self._buckets[-1][0] != start:
            self._buckets.append((start, []))
        self._buckets[-1][1].append((at, value))

    def samples(self, now: int) -> list[int | float]:
        """Live sample values at ``now`` (window ``(now - W, now]``)."""
        self.expire(now)
        horizon = now - self.window
        return [
            v
            for _start, pairs in self._buckets
            for t, v in pairs
            if horizon < t <= now
        ]

    def count(self, now: int) -> int:
        return len(self.samples(now))

    def percentile(self, p: float, now: int) -> int | float | None:
        """Nearest-rank percentile over the live window; None when empty."""
        return nearest_rank(self.samples(now), p)

    def mean(self, now: int) -> float | None:
        live = self.samples(now)
        return sum(live) / len(live) if live else None

    def state(self, now: int) -> dict:
        """JSON-able window state (dashboard / OpenMetrics / instants)."""
        live = self.samples(now)
        out: dict = {"count": len(live), "window": self.window}
        if live:
            out["mean"] = round(sum(live) / len(live), 3)
            for label, p in (("p50", 50), ("p99", 99), ("p999", 99.9)):
                out[label] = nearest_rank(live, p)
            out["max"] = max(live)
        else:
            out["mean"] = None
            out["p50"] = out["p99"] = out["p999"] = out["max"] = None
        return out


class WindowedCount(_Bucketed):
    """Sliding-window event counter (the rate/burn-rate substrate).

    Buckets hold plain integer counts, so memory is bounded by
    ``window // step`` regardless of event volume.  The boundary rule is
    necessarily bucket-granular here (individual event times are not
    retained): a bucket counts while any instant it covers is inside the
    window.  All burn-rate and rate queries share this same rule, so
    good/bad ratios always compare like with like.

    Marks arrive in time order (no ``at`` before the newest bucket's
    start: the plane marks at its clock, which never goes back), so the
    buckets are in start order.  That lets :meth:`expire` drop every
    dead bucket from the front and keep a running sum of the rest, and
    :meth:`total` read that sum instead of re-summing every bucket.
    """

    #: The counts of every bucket kept (set per instance by the first mark).
    _sum = 0

    def mark(self, at: int, weight: int = 1) -> None:
        start = self._bucket_start(at)
        if not self._buckets or self._buckets[-1][0] != start:
            self._buckets.append((start, [0]))
        self._buckets[-1][1][0] += weight
        self._sum += weight

    def expire(self, now: int) -> None:
        horizon = now - self.window
        buckets = self._buckets
        while buckets and buckets[0][0] + self.step <= horizon:
            self._sum -= buckets.popleft()[1][0]

    def total(self, now: int, window: int | None = None) -> int:
        """Events in the trailing ``window`` (default: full width) at ``now``."""
        self.expire(now)
        later = self._after(now)
        if window is None or window >= self.window:
            # Every kept bucket is inside the window.
            return self._sum - later
        return self._after(now - window - self.step) - later

    def _after(self, at: int) -> int:
        # The counts of the buckets that start after ``at``, newest first.
        total = 0
        for start, cell in reversed(self._buckets):
            if start <= at:
                break
            total += cell[0]
        return total

    def per_ktick(self, now: int, window: int | None = None) -> float:
        width = self.window if window is None else window
        return self.total(now, window) * KILOTICK / width


class WindowedRate:
    """A windowed event rate plus an EWMA of the per-step rate.

    ``mark`` records events; :meth:`roll` is driven by the plane at each
    step boundary and folds the finished step's rate into the EWMA.  The
    windowed rate answers "how fast right now"; the EWMA answers "how
    fast lately" with deterministic smoothing (one update per boundary,
    never wall-clock-dependent).
    """

    def __init__(self, window: int, step: int, alpha: float = 0.2) -> None:
        self.counts = WindowedCount(window, step)
        self.ewma = Ewma(alpha)
        self._marks_in_step = 0

    @property
    def window(self) -> int:
        return self.counts.window

    @property
    def step(self) -> int:
        return self.counts.step

    def mark(self, at: int, weight: int = 1) -> None:
        self.counts.mark(at, weight)
        self._marks_in_step += weight

    def roll(self, boundary: int) -> None:
        """A step ended at ``boundary``: fold its rate into the EWMA."""
        self.ewma.update(self._marks_in_step * KILOTICK / self.step)
        self._marks_in_step = 0

    def per_ktick(self, now: int) -> float:
        return self.counts.per_ktick(now)

    def state(self, now: int) -> dict:
        ewma = self.ewma.value
        return {
            "window": self.window,
            "per_ktick": round(self.per_ktick(now), 3),
            "ewma_per_ktick": round(ewma, 3) if ewma is not None else None,
        }
