"""Typed metrics: counters, gauges and histograms in one registry.

A count lives in exactly one place: a field on
:class:`~repro.kernel.stats.KernelStats` for the hot kernel counters, a
*declared* metric object here for everything else (faults, retry,
replication, supervision).  Declaring beats string keys: a typo is a
declaration error instead of a silent new counter, and the dotted name
says which module owns the number.

* :class:`Counter` — a monotone event count (``inc``);
* :class:`Gauge` — a point-in-time value, either ``set()`` explicitly or
  read through a callable (``fn=``) at snapshot time, so hot paths keep
  updating a plain attribute at zero extra cost;
* :class:`Histogram` — a running count/total/min/max of observations
  (call latencies, queue waits).

Names are dotted by owning layer (``faults.dropped_requests``,
``rpc.messages``, ``replication.failovers``).  Declaring the same name
twice returns the same object (so modules can acquire metrics lazily),
but re-declaring under a different type is an error.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..errors import KernelError


class MetricError(KernelError):
    """Conflicting or malformed metric declarations."""


class Metric:
    """Common surface: a dotted name plus a one-line help string."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def sample(self) -> dict[str, int | float]:
        """Flat ``{name: value}`` contribution to a registry snapshot."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotonically increasing event count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        self.value += amount

    def sample(self) -> dict[str, int | float]:
        return {self.name: self.value}


class Gauge(Metric):
    """A point-in-time value; ``fn`` reads it lazily at snapshot time."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", fn: Callable[[], int | float] | None = None
    ) -> None:
        super().__init__(name, help)
        self._value: int | float = 0
        self.fn = fn

    def set(self, value: int | float) -> None:
        if self.fn is not None:
            raise MetricError(f"gauge {self.name} is callback-backed; cannot set()")
        self._value = value

    @property
    def value(self) -> int | float:
        return self.fn() if self.fn is not None else self._value

    def sample(self) -> dict[str, int | float]:
        return {self.name: self.value}


class Histogram(Metric):
    """Running count/total/min/max over observed values.

    Deliberately bucket-free: the simulator's distributions are examined
    offline from sink artifacts; the registry keeps just the moments the
    benchmark tables print.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.count = 0
        self.total = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def sample(self) -> dict[str, int | float]:
        if not self.count:
            return {f"{self.name}.count": 0}
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.total": self.total,
            f"{self.name}.min": self.min,
            f"{self.name}.max": self.max,
            f"{self.name}.mean": round(self.mean, 2),
        }


class MetricsRegistry:
    """Per-kernel home of every typed metric."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- declaration (idempotent) ---------------------------------------

    def _declare(self, cls: type, name: str, make: Callable[[], Metric]) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} already declared as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        metric = make()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._declare(Counter, name, lambda: Counter(name, help))

    def gauge(
        self, name: str, help: str = "", fn: Callable[[], int | float] | None = None
    ) -> Gauge:
        gauge = self._declare(Gauge, name, lambda: Gauge(name, help, fn=fn))
        if fn is not None and gauge.fn is None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._declare(Histogram, name, lambda: Histogram(name, help))

    # -- queries ---------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def value(self, name: str, default: int | float = 0) -> int | float:
        """The current value of a counter/gauge (``default`` if undeclared)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def metrics(self) -> Iterable[Metric]:
        return list(self._metrics.values())

    def snapshot(self) -> dict[str, int | float]:
        """Flat dotted-name → value dict over every declared metric."""
        out: dict[str, int | float] = {}
        for name in sorted(self._metrics):
            out.update(self._metrics[name].sample())
        return out
