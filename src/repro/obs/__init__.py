"""repro.obs — the unified observability layer.

One subsystem answers "where does virtual time go inside an object?"
(the question every claim in the paper reduces to — manager
receptiveness §1/§3, polling cost §3, combining's saved work §2.7):

* **spans** (:mod:`repro.obs.spans`) — one span tree per entry call,
  client issue → RPC hop → queue wait → manager accept/start/await/
  finish → body on a pool slot → reply, stitched across the replication
  sequencer and failover;
* **typed metrics** (:mod:`repro.obs.metrics`) — declared ``Counter``/
  ``Gauge``/``Histogram`` objects per module, registered on
  ``kernel.metrics``;
* **sinks** (:mod:`repro.obs.sinks`) — the in-memory kernel ``Trace``
  (unchanged), a memory sink that keeps the delivered spans and
  instants themselves, JSONL, and Chrome ``trace_event`` for Perfetto.

The :class:`Observability` facade lives on every kernel as
``kernel.obs`` but is *disabled* by default.  The zero-cost contract:
while disabled, the call path performs exactly one attribute test and
allocates nothing — deterministic schedules, interleaving-asserting
tests and benchmark numbers are bit-identical with the layer off.

Typical use::

    kernel = Kernel(seed=7)
    sink = kernel.obs.add_sink(ChromeTraceSink("run.json"))  # enables
    ... run the workload ...
    kernel.obs.close()          # writes run.json; open in Perfetto
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..kernel.tracing import TraceEvent
from .metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from .openmetrics import parse_openmetrics, render_openmetrics
from .sinks import (
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    TraceSink,
    validate_chrome_trace,
)
from .spans import Span, TransitionRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..core.calls import Call
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process

__all__ = [
    "Observability",
    "Span",
    "TransitionRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "validate_chrome_trace",
    "render_openmetrics",
    "parse_openmetrics",
]


class Observability:
    """Per-kernel span recorder and sink fan-out (``kernel.obs``).

    ``enabled`` gates every producer-side hook; :meth:`add_sink` turns
    it on.  Span ids come from a per-kernel counter, so two runs with
    the same seed export identical timelines.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.enabled = False
        self.sinks: list[TraceSink] = []
        #: Finished spans, retained in memory while enabled (tests, the
        #: bench harness and ad-hoc queries read these directly).
        self.spans: list[Span] = []
        self.keep_spans = True
        #: Lifetime count of Span objects allocated — the zero-cost
        #: tests assert this stays 0 on a disabled kernel.
        self.span_count = 0
        self._next_span_id = 1
        #: Per-(process, call-name) issue counters; the ``seq`` attr they
        #: produce makes root call spans alignable across two runs of the
        #: same workload (see :mod:`repro.obs.diff`).
        self._call_seq: dict[tuple[str, str], int] = {}
        self._trace_forwarded = False
        self._latency: Histogram | None = None
        #: Lazily created live telemetry plane (:mod:`repro.obs.live`).
        self._live: Any = None

    @property
    def live(self) -> Any:
        """The kernel's :class:`~repro.obs.live.LivePlane`, created on
        first access.  Creation subscribes to the virtual clock but posts
        no events and records nothing until aggregates are declared, so
        merely touching ``kernel.obs.live`` keeps schedules unchanged."""
        if self._live is None:
            from .live import LivePlane

            self._live = LivePlane(self)
        return self._live

    # -- switches ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True
        if self._latency is None:
            self._latency = self.kernel.metrics.histogram(
                "calls.latency", "Entry-call response time in ticks (spans on)"
            )

    def disable(self) -> None:
        self.enabled = False

    def add_sink(self, sink: TraceSink, forward_trace: bool = True) -> TraceSink:
        """Attach ``sink`` (enables the layer) and return it.

        With ``forward_trace`` the kernel's trace events also stream to
        the sink as instants — even when in-memory trace retention is
        off (``Trace.record`` fires listeners regardless).
        """
        self.sinks.append(sink)
        self.enable()
        if forward_trace and not self._trace_forwarded:
            self.kernel.trace.subscribe(self.forward)
            self._trace_forwarded = True
        return sink

    def close(self) -> None:
        """Flush and close every sink (idempotent per sink contract)."""
        for sink in self.sinks:
            sink.close()

    # -- span recording ---------------------------------------------------

    def begin(
        self,
        kind: str,
        name: str,
        process: str = "",
        parent: "Span | int | None" = None,
        call_id: int | None = None,
        at: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at ``at`` (default: now).  Caller must :meth:`end` it."""
        self.span_count += 1
        span_id = self._next_span_id
        self._next_span_id += 1
        return Span(
            span_id,
            kind,
            name,
            process,
            self.kernel.clock.now if at is None else at,
            parent_id=parent.span_id if isinstance(parent, Span) else parent,
            call_id=call_id,
            attrs=attrs or None,
        )

    def end(self, span: Span, at: int | None = None, **attrs: Any) -> None:
        """Close ``span`` and deliver it to the span log and sinks."""
        span.end = self.kernel.clock.now if at is None else at
        if attrs:
            span.attrs.update(attrs)
        self._deliver(span)

    def emit(
        self,
        kind: str,
        name: str,
        *,
        start: int,
        end: int,
        process: str = "",
        parent: "Span | int | None" = None,
        call_id: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-closed interval (derived phase spans)."""
        span = self.begin(
            kind, name, process=process, parent=parent, call_id=call_id,
            at=start, **attrs,
        )
        span.end = end
        self._deliver(span)
        return span

    def instant(self, kind: str, process: str = "", **detail: Any) -> None:
        """A point annotation delivered straight to the sinks."""
        self.forward(TraceEvent(self.kernel.clock.now, kind, process, detail))

    def forward(self, event: TraceEvent) -> None:
        """Deliver one instant to every sink.

        The kernel trace's listener, and the way in for what never
        enters the kernel's log: annotations (:meth:`instant`) and the
        live plane's alerts and snapshots.
        """
        for sink in self.sinks:
            sink.on_instant(event.time, event.kind, event.process, event.detail)

    def _deliver(self, span: Span) -> None:
        if self.keep_spans:
            self.spans.append(span)
        for sink in self.sinks:
            sink.on_span(span)

    # -- the entry-call hooks --------------------------------------------

    def call_issued(self, call: "Call", proc: "Process") -> None:
        """Open the root span of an entry call (hot path; enabled only).

        ``seq`` counts this caller's issues of this entry in program
        order — a schedule-independent identity, so the differ can align
        "writer's 3rd put" across runs whose interleavings diverge.
        """
        name = f"{call.obj.alps_name}.{call.entry}"
        key = (proc.name, name)
        seq = self._call_seq.get(key, 0)
        self._call_seq[key] = seq + 1
        call.span = self.begin(
            "call",
            name,
            process=proc.name,
            parent=proc.span,
            call_id=call.call_id,
            seq=seq,
        )

    def complete_call(self, call: "Call", status: str = "ok") -> None:
        """Close a call's span tree, deriving phase children.

        The phases come from the timestamps :class:`~repro.core.calls.Call`
        already records — no per-transition allocation ever happens on
        the call path, even with the layer enabled.  Invoked by the two
        settlements, ``EntryRuntime.resume_caller`` (ok) and
        ``EntryRuntime.fail`` (every other status); the first wins.
        """
        root = call.span
        if root is None:
            return
        call.span = None
        finish = call.finished_at
        if finish is None:
            finish = self.kernel.clock.now
        rid = root.span_id
        cid = call.call_id
        entry = call.entry
        manager = call.obj.manager_process
        mname = manager.name if manager is not None else root.process

        def phase(kind: str, name: str, start: int | None, stop: int | None,
                  process: str) -> None:
            # What ``emit`` does, built directly: one span, one delivery.
            if start is None or stop is None or stop < start:
                return
            self.span_count += 1
            span = Span(self._next_span_id, kind, name, process, start, rid, cid,
                        None, stop)
            self._next_span_id += 1
            if self.keep_spans:
                self.spans.append(span)
            for sink in self.sinks:
                sink.on_span(span)

        request_delay = root.attrs.get("request_delay", 0)
        arrived = None if call.issued_at is None else call.issued_at + request_delay
        if request_delay:
            phase("rpc", f"{entry}.request", call.issued_at, arrived, root.process)
        # finished_at includes the response leg once the caller resumes.
        reply_at = finish - call.response_delay if call.response_delay else finish
        if call.combined:
            # §2.7 combining: accept → finish with no body at all.
            phase("manager", f"{entry}.combined", call.accepted_at, reply_at, mname)
        else:
            phase("queue", f"{entry}.queue", arrived, call.attached_at, mname)
            phase("manager", f"{entry}.accept", call.attached_at, call.accepted_at,
                  mname)
            phase("manager", f"{entry}.start", call.accepted_at, call.started_at,
                  mname)
            body = call.body_process
            bname = body.name if body is not None else mname
            dispatched = call.dispatched_at
            if (
                dispatched is not None
                and call.started_at is not None
                and dispatched > call.started_at
            ):
                # The pool's backlog held the started call before a worker
                # freed up (§3 shared pools): split the wait out of the
                # body so the profiler can attribute it.
                phase("pool", f"{entry}.pool", call.started_at, dispatched,
                      mname)
                phase("body", f"{entry}.body", dispatched, call.body_done_at,
                      bname)
            else:
                phase("body", f"{entry}.body", call.started_at,
                      call.body_done_at, bname)
            phase("manager", f"{entry}.finish", call.body_done_at, reply_at, mname)
        if call.response_delay:
            phase("rpc", f"{entry}.response", reply_at, finish, root.process)
        if self._latency is not None and call.issued_at is not None:
            self._latency.observe(finish - call.issued_at)
        live = self._live
        if live is not None:
            latency = None if call.issued_at is None else finish - call.issued_at
            live.on_call(entry, root.process, latency, status)
        self.end(root, at=finish, status=status)

    # -- queries ----------------------------------------------------------

    def find_spans(self, kind: str | None = None, name: str | None = None) -> list[Span]:
        """Finished spans filtered by kind and/or name substring."""
        out = []
        for span in self.spans:
            if kind is not None and span.kind != kind:
                continue
            if name is not None and name not in span.name:
                continue
            out.append(span)
        return out

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]
