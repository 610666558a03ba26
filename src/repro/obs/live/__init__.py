"""repro.obs.live — the in-run telemetry plane, evaluated in virtual time.

Everything else in :mod:`repro.obs` is post-hoc: spans, traces and bench
tables are examined after the schedule finishes.  The live plane answers
operator questions *while the system runs* — from inside the simulation
(guards and daemons reading aggregates to make decisions: admission,
resharding) and from outside (the ``python -m repro.obs.live`` dashboard
and sink/OpenMetrics exports):

* **sliding-window histograms** and **EWMA rates** over any registered
  metric or explicit sample stream (:mod:`repro.obs.live.stream`);
* **Space-Saving top-K sketches** for hot-key / hot-entry / hot-caller
  detection (:mod:`repro.obs.live.sketch`), consumable as a
  :class:`HotKeyReport`;
* **multi-window SLO burn-rate monitors** emitting a deterministic,
  replay-identical alert event log (:mod:`repro.obs.live.burnrate`).

The determinism contract extends PR 3's schedule-neutrality: the plane
posts **no kernel events**.  Window expiry rides the virtual clock
itself — the plane subscribes to :meth:`~repro.kernel.clock.VirtualClock`
advancement and rolls windows at every crossed ``step`` boundary, in
order, however far one jump travels.  Aggregation is therefore a pure
function of the observed (time, value) stream: with the plane enabled,
schedules are byte-identical to a run without it, and two replays of the
same seed produce byte-identical alert logs and dashboard snapshots
(asserted by ``tests/obs/test_live_neutrality.py``, the E14 CI gate and
the perf lab's ``kv_observed`` workload, whose fingerprint must equal
that of its plane-less twin ``kv_steady``).

Typical use::

    kernel = Kernel(seed=7)
    plane = kernel.obs.live                  # created on first access
    lat = plane.histogram("kv.latency", window=2000)
    slo = plane.monitor("kv.slo", objective=0.99, fast=1000, slow=5000)
    keys = plane.sketch("kv.keys", capacity=8)
    ... inside the workload: lat.observe(t), slo.record(ok), keys.offer(k) ...
    print(plane.render())                    # deterministic dashboard
    plane.hot_keys("kv.keys").candidates(0.2)  # resharder input
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from ...kernel.tracing import TraceEvent
from .burnrate import AlertEvent, BurnRateMonitor
from .sketch import HotKeyReport, SpaceSaving
from .stream import (
    KILOTICK,
    Ewma,
    WindowedCount,
    WindowedHistogram,
    WindowedRate,
    nearest_rank,
)

if TYPE_CHECKING:  # pragma: no cover
    from .. import Observability

__all__ = [
    "LivePlane",
    "LiveHistogram",
    "LiveRate",
    "Ewma",
    "WindowedHistogram",
    "WindowedRate",
    "WindowedCount",
    "nearest_rank",
    "SpaceSaving",
    "HotKeyReport",
    "BurnRateMonitor",
    "AlertEvent",
    "KILOTICK",
]

#: Default evaluation step (boundary granularity) in ticks.
DEFAULT_STEP = 100
#: Default window width in ticks.
DEFAULT_WINDOW = 1000


class LiveHistogram:
    """A :class:`WindowedHistogram` bound to the plane's clock."""

    def __init__(self, plane: "LivePlane", prim: WindowedHistogram) -> None:
        self._plane = plane
        self.prim = prim

    def observe(self, value: int | float) -> None:
        self.prim.observe(value, self._plane.now)

    def percentile(self, p: float) -> int | float | None:
        return self.prim.percentile(p, self._plane.now)

    def count(self) -> int:
        return self.prim.count(self._plane.now)

    def mean(self) -> float | None:
        return self.prim.mean(self._plane.now)

    def state(self) -> dict:
        return self.prim.state(self._plane.now)


class LiveRate:
    """A :class:`WindowedRate` bound to the plane's clock."""

    def __init__(self, plane: "LivePlane", prim: WindowedRate) -> None:
        self._plane = plane
        self.prim = prim

    def mark(self, weight: int = 1) -> None:
        self.prim.mark(self._plane.now, weight)

    def per_ktick(self) -> float:
        return self.prim.per_ktick(self._plane.now)

    def state(self) -> dict:
        return self.prim.state(self._plane.now)


class LiveMonitor:
    """A :class:`BurnRateMonitor` bound to the plane's clock."""

    def __init__(self, plane: "LivePlane", prim: BurnRateMonitor) -> None:
        self._plane = plane
        self.prim = prim

    def record(self, ok: bool) -> None:
        self.prim.record(ok, self._plane.now)

    @property
    def state(self) -> str:
        return self.prim.state

    @property
    def events(self) -> list[AlertEvent]:
        return self.prim.events

    def state_dict(self) -> dict:
        return self.prim.state_dict(self._plane.now)


class LivePlane:
    """Per-kernel streaming aggregation, reachable as ``kernel.obs.live``.

    All registered windows share one evaluation ``step``; window widths
    must be multiples of it.  Declaration is idempotent by name (like
    the metrics registry) so modules can acquire aggregates lazily.
    """

    def __init__(self, obs: "Observability", step: int = DEFAULT_STEP) -> None:
        if step < 1:
            raise ValueError(f"live-plane step must be >= 1, got {step}")
        self.obs = obs
        self.kernel = obs.kernel
        self.step = step
        self.histograms: dict[str, WindowedHistogram] = {}
        self.rates: dict[str, WindowedRate] = {}
        self.sketches: dict[str, SpaceSaving] = {}
        self.monitors: dict[str, BurnRateMonitor] = {}
        #: metric-backed rates: name -> (reader, WindowedCount, last_value)
        self._metric_rates: dict[str, list[Any]] = {}
        self._bound: dict[str, Any] = {}
        #: Calls-watch config (None until :meth:`watch_calls`).
        self._calls: dict[str, Any] | None = None
        self._snapshot_every = 0  #: 0 = no snapshot instants
        self._boundaries = 0
        now = self.kernel.clock.now
        self._next_boundary = (now - now % step) + step
        self.kernel.clock.subscribe(self._on_advance)

    # -- clock-driven window expiry (the plane's "timers") ----------------

    @property
    def now(self) -> int:
        return self.kernel.clock.now

    def _on_advance(self, now: int) -> None:
        """Virtual time moved: roll every window boundary that was crossed.

        One clock jump may cross several boundaries (an idle object, a
        long ``Delay``); each is rolled in order at its own boundary
        time, so EWMA decay, burn-rate evaluation and snapshot instants
        are identical whether time passed in one jump or many.
        """
        while self._next_boundary <= now:
            self._roll(self._next_boundary)
            self._next_boundary += self.step

    def _roll(self, boundary: int) -> None:
        self._boundaries += 1
        for name in sorted(self._metric_rates):
            reader, counts, last = self._metric_rates[name]
            value = reader()
            delta = value - last[0]
            last[0] = value
            if delta > 0:
                counts.mark(boundary - 1, int(delta))
        for name in sorted(self.rates):
            self.rates[name].roll(boundary)
        for name in sorted(self.monitors):
            event = self.monitors[name].roll(boundary)
            if event is not None:
                self._instant(boundary, "live.alert", event.to_dict())
        if self._snapshot_every and self._boundaries % self._snapshot_every == 0:
            self._instant(boundary, "live.snapshot", self.snapshot(boundary))

    def _instant(self, time: int, kind: str, detail: dict) -> None:
        self.obs.forward(TraceEvent(time, kind, "live", detail))

    # -- declaration (idempotent by name) ---------------------------------

    def _window(self, window: int | None) -> int:
        if window is None:
            window = max(DEFAULT_WINDOW, self.step)
        if window % self.step:
            raise ValueError(
                f"window ({window}) must be a multiple of the plane step "
                f"({self.step})"
            )
        return window

    def histogram(self, name: str, window: int | None = None) -> LiveHistogram:
        if name not in self.histograms:
            self.histograms[name] = WindowedHistogram(self._window(window), self.step)
            self._bound[f"h:{name}"] = LiveHistogram(self, self.histograms[name])
        return self._bound[f"h:{name}"]

    def rate(self, name: str, window: int | None = None) -> LiveRate:
        if name not in self.rates:
            self.rates[name] = WindowedRate(self._window(window), self.step)
            self._bound[f"r:{name}"] = LiveRate(self, self.rates[name])
        return self._bound[f"r:{name}"]

    def sketch(self, name: str, capacity: int = 8) -> SpaceSaving:
        if name not in self.sketches:
            self.sketches[name] = SpaceSaving(capacity)
        return self.sketches[name]

    def monitor(
        self,
        name: str,
        objective: float = 0.99,
        fast: int | None = None,
        slow: int | None = None,
        threshold: float = 2.0,
        clear: float = 1.0,
    ) -> LiveMonitor:
        if name not in self.monitors:
            fast = self._window(fast) if fast is not None else self._window(None)
            slow = self._window(slow) if slow is not None else 5 * fast
            self.monitors[name] = BurnRateMonitor(
                name, objective, fast, slow, self.step,
                threshold=threshold, clear=clear,
            )
            self._bound[f"m:{name}"] = LiveMonitor(self, self.monitors[name])
        return self._bound[f"m:{name}"]

    def metric_rate(
        self, metric: str, window: int | None = None,
        reader: Callable[[], int | float] | None = None,
    ) -> None:
        """Derive a windowed rate from any registered metric (or reader).

        The metric is sampled at every step boundary; positive deltas
        become window events.  Resolves dotted registry names first
        (``kernel.metrics``), then plain :class:`KernelStats` fields, so
        ``plane.metric_rate("sends")`` watches channel traffic with no
        hot-path hook at all.
        """
        if metric in self._metric_rates:
            return
        if reader is None:
            kernel = self.kernel
            if kernel.metrics.get(metric) is not None:
                reader = lambda: kernel.metrics.value(metric)  # noqa: E731
            elif hasattr(kernel.stats, metric):
                reader = lambda: getattr(kernel.stats, metric)  # noqa: E731
            else:
                raise ValueError(
                    f"metric_rate: {metric!r} is neither a registry metric "
                    f"nor a KernelStats field"
                )
        self._metric_rates[metric] = [
            reader, WindowedCount(self._window(window), self.step), [reader()],
        ]

    # -- convenience recording --------------------------------------------

    def offer(self, sketch_name: str, key: Any, weight: int = 1) -> None:
        """Offer ``key`` to a sketch (declared on first use)."""
        self.sketch(sketch_name).offer(key, weight)

    # -- the entry-call feed (wired from Observability.complete_call) ------

    def watch_calls(
        self,
        window: int | None = None,
        objective: float | None = None,
        fast: int | None = None,
        slow: int | None = None,
        sketch_capacity: int = 8,
    ) -> None:
        """Auto-aggregate every completed entry call.

        Per entry: a latency window histogram (``calls.<entry>``) over
        served calls and a completion rate (all statuses).  Globally:
        hot-entry and hot-(entry, caller) sketches, and — when
        ``objective`` is given — one burn-rate monitor ``calls.slo``
        where "bad" is any non-ok completion.  Requires span recording
        (enables it).
        """
        self.obs.enable()
        self._calls = {
            "window": self._window(window),
            "monitor": (
                self.monitor("calls.slo", objective, fast=fast, slow=slow)
                if objective is not None
                else None
            ),
            "capacity": sketch_capacity,
        }
        self.sketch("calls.entries", sketch_capacity)
        self.sketch("calls.callers", sketch_capacity)

    def on_call(self, entry: str, caller: str, latency: int | None,
                status: str) -> None:
        cfg = self._calls
        if cfg is None:
            return
        window = cfg["window"]
        self.rate(f"calls.{entry}.rate", window).mark()
        if status == "ok" and latency is not None:
            self.histogram(f"calls.{entry}", window).observe(latency)
        self.sketches["calls.entries"].offer(entry)
        self.sketches["calls.callers"].offer(f"{entry}|{caller}")
        if cfg["monitor"] is not None:
            cfg["monitor"].record(status == "ok")

    # -- the in-simulation query API ---------------------------------------

    def service_ewma(self, obj_name: str, entry: str) -> float | None:
        """The live service-time EWMA of one entry (guards read this).

        The same :class:`Ewma` primitive
        :class:`~repro.core.admission.PredictedWaitGuard` reads — one
        estimator, shared by admission control and telemetry, updated on
        every body completion whether or not the plane is observing.
        """
        for obj in self.kernel._alps_objects:
            if getattr(obj, "alps_name", None) == obj_name:
                return obj._entry_runtime(entry).service_ewma
        return None

    def hot_keys(self, sketch_name: str, k: int | None = None) -> HotKeyReport:
        """A consumable :class:`HotKeyReport` (the resharder's input)."""
        sketch = self.sketches.get(sketch_name)
        if sketch is None:
            return HotKeyReport(sketch_name, self.now, 0, [])
        return HotKeyReport(sketch_name, self.now, sketch.total, sketch.top(k))

    # -- export: snapshots, instants, gauges -------------------------------

    def stream_snapshots(self, every: int = 1) -> None:
        """Emit a ``live.snapshot`` instant every ``every`` boundaries."""
        if every < 1:
            raise ValueError(f"snapshot cadence must be >= 1, got {every}")
        self._snapshot_every = every

    def snapshot(self, now: int | None = None) -> dict:
        """Full JSON-able window state (dashboard / instants / tests)."""
        now = self.now if now is None else now
        return {
            "time": now,
            "step": self.step,
            "histograms": {
                name: self.histograms[name].state(now)
                for name in sorted(self.histograms)
            },
            "rates": {
                name: self.rates[name].state(now) for name in sorted(self.rates)
            },
            "metric_rates": {
                name: {
                    "window": entry[1].window,
                    "per_ktick": round(entry[1].per_ktick(now), 3),
                }
                for name, entry in sorted(self._metric_rates.items())
            },
            "sketches": {
                name: self.sketches[name].state()
                for name in sorted(self.sketches)
            },
            "monitors": {
                name: self.monitors[name].state_dict(now)
                for name in sorted(self.monitors)
            },
            "alerts": self.alert_log(),
        }

    def alert_log(self) -> list[dict]:
        """Every monitor transition so far, in (time, monitor) order."""
        events = [
            event
            for name in sorted(self.monitors)
            for event in self.monitors[name].events
        ]
        events.sort(key=lambda e: (e.time, e.monitor))
        return [e.to_dict() for e in events]

    def write_alert_log(self, path: str) -> None:
        """The alert log as JSONL — byte-identical across replays."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.alert_log():
                fh.write(json.dumps(event, sort_keys=True) + "\n")

    def register_gauges(self) -> None:
        """Expose window state as callback gauges on ``kernel.metrics``.

        Every histogram contributes ``live.<name>.p99`` / ``.count``,
        every rate ``live.<name>.per_ktick``, every monitor
        ``live.<name>.slow_burn`` / ``.alerts`` — so the OpenMetrics
        exposition (:func:`repro.obs.render_openmetrics`) carries the
        live window state next to the cumulative counters.
        """
        metrics = self.kernel.metrics

        def hist_reader(name: str, q: float) -> Callable[[], float]:
            def read() -> float:
                value = self.histograms[name].percentile(q, self.now)
                return float(value) if value is not None else 0.0

            return read

        for name in self.histograms:
            metrics.gauge(f"live.{name}.p99", "Live window p99", hist_reader(name, 99))
            metrics.gauge(
                f"live.{name}.count", "Live window sample count",
                (lambda n: lambda: self.histograms[n].count(self.now))(name),
            )
        for name in self.rates:
            metrics.gauge(
                f"live.{name}.per_ktick", "Live window rate",
                (lambda n: lambda: round(self.rates[n].per_ktick(self.now), 3))(name),
            )
        for name in self.monitors:
            metrics.gauge(
                f"live.{name}.slow_burn", "Live slow-window burn rate",
                (lambda n: lambda: round(
                    self.monitors[n].burn(self.now, self.monitors[n].slow), 4
                ))(name),
            )
            metrics.gauge(
                f"live.{name}.alerts", "Burn-rate alerts fired",
                (lambda n: lambda: sum(
                    1 for e in self.monitors[n].events if e.state == "firing"
                ))(name),
            )

    def render(self, width: int = 72) -> str:
        """The deterministic text dashboard for the current state."""
        from .dashboard import render

        return render(self.snapshot(), width=width)
