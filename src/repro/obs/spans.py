"""Spans: per-call causality in virtual time.

A :class:`Span` is one named interval of virtual time with a parent
link.  The observability layer builds one *span tree* per entry call:

```
replicated.write kv.put            (client process)
└── replicate kv.put@v3            (write sequencer)
    ├── call kv.put → n0           (the primary's entry call)
    │   ├── rpc.request            (wire latency, client → node)
    │   ├── manager.accept         (issue → accept: receptiveness wait)
    │   ├── manager.start          (accept → body dispatch)
    │   ├── body                   (pool slot executes the entry body)
    │   ├── manager.finish         (await/finish window)
    │   └── rpc.response           (wire latency, node → client)
    └── call kv.put → n2           (forward to a backup)
        └── ...
```

Span ids are allocated from a per-kernel counter so runs are
reproducible; times are virtual ticks, so the exported timeline lines
up exactly with trace events and the benchmark tables.

Zero-cost contract: when observability is disabled no ``Span`` object
is ever allocated on the call path — the phase children above are
*derived* from the timestamps :class:`~repro.core.calls.Call` already
records, at completion time, only when a sink or the in-memory span log
is active.

This module is the trace model every reader shares: a finished span is
a :class:`Span` whatever file it came from, a :class:`Recording` indexes
them, and the JSONL line format is written and read here
(:meth:`Span.to_record`/:meth:`Span.from_record`, :func:`event_record`).
The Chrome ``trace_event`` format lives in :mod:`repro.obs.sinks`.

:class:`TransitionRecord` closes the loop for failover timelines: the
heartbeat and replica view keep their transition logs as plain tuples
(the determinism contract tests compare them across runs), but each
record also carries the id of the span that observed it, so an exported
trace connects detection → promotion → catch-up.
"""

from __future__ import annotations

from typing import Any, Iterable


class Span:
    """One named interval of virtual time, with a parent link.

    ``end`` is ``None`` while the span is open.  ``attrs`` carries
    small, JSON-safe key/values (entry name, version, verdict, status).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "kind",
        "name",
        "process",
        "start",
        "end",
        "call_id",
        "attrs",
    )

    def __init__(
        self,
        span_id: int,
        kind: str,
        name: str,
        process: str,
        start: int,
        parent_id: int | None = None,
        call_id: int | None = None,
        attrs: dict[str, Any] | None = None,
        end: int | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.process = process
        self.start = start
        self.end = end
        self.call_id = call_id
        self.attrs = attrs or {}

    @property
    def duration(self) -> int | None:
        return None if self.end is None else self.end - self.start

    def to_record(self) -> dict[str, Any]:
        """Flat JSON-safe dict (the JSONL line format; see :meth:`from_record`)."""
        record: dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "process": self.process,
            "start": self.start,
            "end": self.end,
        }
        if self.call_id is not None:
            record["call_id"] = self.call_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_record`; ``KeyError`` names a missing field."""
        return cls(
            record["id"],
            record["kind"],
            record["name"],
            record.get("process", ""),
            record["start"],
            parent_id=record.get("parent"),
            call_id=record.get("call_id"),
            attrs=dict(record.get("attrs") or {}),
            end=record.get("end"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tail = "open" if self.end is None else f"{self.start}..{self.end}"
        return f"<Span #{self.span_id} {self.kind}:{self.name} {tail}>"


def event_record(
    time: int, kind: str, process: str, detail: dict[str, Any]
) -> dict[str, Any]:
    """An instant as a flat JSON-safe dict (the JSONL line format)."""
    return {"type": "event", "time": time, "kind": kind, "process": process,
            "detail": dict(detail)}


class Recording:
    """An indexed set of finished spans (plus instant event records)."""

    def __init__(
        self,
        spans: Iterable[Span],
        instants: list[dict[str, Any]] | None = None,
        source: str = "<memory>",
    ) -> None:
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self.instants = instants or []
        self.source = source
        self.by_id = {s.span_id: s for s in self.spans}
        self._children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self._children.setdefault(span.parent_id, []).append(span)

    def children(self, span_id: int) -> list[Span]:
        return self._children.get(span_id, [])

    def top_level(self) -> list[Span]:
        """Spans whose parent is absent from the recording."""
        return [s for s in self.spans if s.parent_id not in self.by_id]

    def call_roots(self) -> list[Span]:
        """Every ``call`` span that is not nested inside another call."""
        return [
            s
            for s in self.spans
            if s.kind == "call"
            and (s.parent_id not in self.by_id or self.by_id[s.parent_id].kind != "call")
        ]

    def align_key(self, span: Span) -> tuple[str, str, int]:
        """Schedule-independent identity of a call root (see ``repro.obs.diff``)."""
        seq = span.attrs.get("seq")
        if seq is None:
            seq = span.call_id if span.call_id is not None else span.span_id
        return (span.process, span.name, int(seq))

    def __len__(self) -> int:
        return len(self.spans)


class TransitionRecord(tuple):
    """A transition tuple that also names the span that observed it.

    Compares (and hashes) exactly like the plain tuple it wraps, so the
    heartbeat/view determinism contracts — ``rep1.view.transitions ==
    rep2.view.transitions`` and bit-identity with pre-span logs — hold
    unchanged, while exporters can follow ``span_id`` into the timeline.
    """

    span_id: int | None

    def __new__(cls, values: tuple, span_id: int | None = None) -> "TransitionRecord":
        self = super().__new__(cls, values)
        self.span_id = span_id
        return self

    def __repr__(self) -> str:
        base = super().__repr__()
        if self.span_id is None:
            return base
        return f"{base}#s{self.span_id}"
