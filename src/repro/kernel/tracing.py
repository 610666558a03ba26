"""Event tracing for the kernel.

Every scheduler decision, syscall, and state transition can be recorded as
a :class:`TraceEvent`.  Traces serve three purposes in the reproduction:

* tests assert on interleavings (e.g. "the manager ran before any entry
  body", reproducing the high-priority-manager claim);
* benchmarks derive metrics (context switches, queue lengths) from traces;
* failed runs are diagnosable — ``Trace.format()`` renders a readable log.

Tracing is off by default and costs nothing when disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """A single kernel event.

    ``kind`` is a short machine-readable tag (``"spawn"``, ``"switch"``,
    ``"send"``, ``"block"``, ``"wake"``, ``"exit"``, ...); ``detail`` holds
    event-specific data.
    """

    time: int
    kind: str
    process: str
    detail: dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        extra = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:>8}] {self.kind:<10} {self.process:<24} {extra}"


class Trace:
    """An append-only event log with query helpers."""

    def __init__(self, enabled: bool = False, capacity: int | None = None) -> None:
        self.enabled = enabled
        self._events: list[TraceEvent] = []
        self._capacity = capacity
        #: Optional live listeners, invoked synchronously per event.
        self._listeners: list[Callable[[TraceEvent], None]] = []

    @property
    def recording(self) -> bool:
        """True when :meth:`record` would keep or forward an event.

        Callers check this first when merely *building* an event's detail
        is costly (rendering guard descriptions on every select); the
        kernel's per-process and per-select sites inline the test.
        """
        return self.enabled or bool(self._listeners)

    def record(self, time: int, kind: str, process: str, **detail: Any) -> None:
        """Append an event (no-op when disabled and nobody is listening).

        A subscribed listener (e.g. an observability sink) receives every
        event even while in-memory retention is off — streaming a run to
        a file must not require holding it in memory too.
        """
        if not self.enabled and not self._listeners:  # ``recording``, inlined
            return
        event = TraceEvent(time=time, kind=kind, process=process, detail=detail)
        if self.enabled:
            self._events.append(event)
            if self._capacity is not None and len(self._events) > self._capacity:
                del self._events[: len(self._events) - self._capacity]
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked for every recorded event."""
        self._listeners.append(listener)

    def events(self, kind: str | None = None, process: str | None = None) -> list[TraceEvent]:
        """Return recorded events, optionally filtered by kind and process."""
        result: Iterator[TraceEvent] = iter(self._events)
        if kind is not None:
            result = (e for e in result if e.kind == kind)
        if process is not None:
            result = (e for e in result if e.process == process)
        return list(result)

    def count(self, kind: str, process: str | None = None) -> int:
        """Number of recorded events of ``kind`` (optionally per process)."""
        return len(self.events(kind=kind, process=process))

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def format(self, limit: int | None = None) -> str:
        """Render the trace (optionally only the last ``limit`` events)."""
        events = self._events if limit is None else self._events[-limit:]
        return "\n".join(e.format() for e in events)
