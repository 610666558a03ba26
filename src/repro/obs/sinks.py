"""Pluggable trace sinks: where spans and events go.

Three consumers share one producer-side surface:

* the existing in-memory :class:`~repro.kernel.tracing.Trace` stays the
  kernel's event log (tests assert on it, unchanged);
* :class:`JsonlSink` streams every span/event as one JSON object per
  line — greppable, diffable, loadable with ``pandas.read_json``;
* :class:`ChromeTraceSink` writes the Chrome ``trace_event`` format, so
  a benchmark run opens directly in ``chrome://tracing`` or
  https://ui.perfetto.dev with per-process tracks and nested spans.

Sinks receive *finished* spans (the observability layer emits at span
end, when the duration is known) plus instant events forwarded from the
kernel trace.  A sink must implement ``on_span``/``on_instant``/
``close``; :class:`MemorySink` is the in-memory implementation used by
tests and the bench harness: it keeps what it is handed and renders
dicts only when read.

Virtual ticks map 1:1 onto trace-viewer microseconds: one tick renders
as 1µs, keeping the timeline axis equal to the paper's tick counts.

This module owns the Chrome format in both directions —
:class:`ChromeTraceSink` writes it, :func:`from_chrome` reads it back
into a :class:`~repro.obs.spans.Recording`, one begin/end pairing serves
the reader and :func:`validate_chrome_trace` — and the rule live-plane
instants obey in either file format (:func:`_live_problems`).  The JSONL
record itself is :mod:`repro.obs.spans`'.
"""

from __future__ import annotations

import io
import json
from typing import Any, Iterable

from ..kernel.tracing import TraceEvent
from .spans import Recording, Span, event_record


class TraceSink:
    """Base sink: override any of the three hooks."""

    def on_span(self, span: Span) -> None:
        """A span finished (``span.end`` is set)."""

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        """A point event occurred (kernel trace events, annotations)."""

    def close(self) -> None:
        """Flush and release resources; further emissions are undefined."""


class MemorySink(TraceSink):
    """Keeps every record as delivered, for tests and in-process queries.

    A span is kept as the :class:`Span` itself (the object the span log
    holds too), an instant as a :class:`TraceEvent` over the ``detail``
    it was handed; :attr:`records` renders them as JSONL-line dicts on
    each read, and caches nothing.  What is delivered is finished: no one
    changes a delivered span or a forwarded instant's ``detail``.
    """

    def __init__(self) -> None:
        self._kept: list[Span | TraceEvent] = []
        # A delivered span goes straight onto the list: no frame per span.
        self.on_span = self._kept.append

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        self._kept.append(TraceEvent(time, kind, process, detail))

    @property
    def records(self) -> list[dict[str, Any]]:
        return [
            item.to_record() if isinstance(item, Span)
            else event_record(item.time, item.kind, item.process, item.detail)
            for item in self._kept
        ]

    def spans(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r["type"] == "span"]


class JsonlSink(TraceSink):
    """One JSON object per line, appended as the run progresses.

    ``target`` is a path or an open text file object (the latter lets
    tests pass ``io.StringIO()``).
    """

    def __init__(self, target: str | io.TextIOBase) -> None:
        if isinstance(target, (str, bytes)):
            self.path: str | None = str(target)
            self._fh: Any = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self.path = None
            self._fh = target
            self._owns = False
        self.lines = 0

    def _write(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.lines += 1

    def on_span(self, span: Span) -> None:
        self._write(span.to_record())

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        self._write(event_record(time, kind, process, detail))

    def close(self) -> None:
        if self._fh is not None and self._owns:
            self._fh.close()
        self._fh = None


class ChromeTraceSink(TraceSink):
    """Chrome ``trace_event`` JSON: open the output in Perfetto.

    Spans become async begin/end pairs (``"ph": "b"``/``"e"``) keyed by
    span id, so parent/child call phases nest on the timeline; instants
    become ``"ph": "i"`` marks.  Processes map to ``tid`` tracks under
    one ``pid`` so each ALPS process gets its own row.
    """

    def __init__(self, path: str, pid: int = 1) -> None:
        self.path = path
        self.pid = pid
        self.events: list[dict[str, Any]] = []
        self._tids: dict[str, int] = {}
        self._closed = False

    def _tid(self, process: str) -> int:
        tid = self._tids.get(process)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[process] = tid
        return tid

    def on_span(self, span: Span) -> None:
        tid = self._tid(span.process or "?")
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        if span.call_id is not None:
            args["call_id"] = span.call_id
        args.update(span.attrs)
        common = {
            "cat": span.kind,
            "name": span.name,
            "id": span.span_id,
            "pid": self.pid,
            "tid": tid,
        }
        self.events.append({**common, "ph": "b", "ts": span.start, "args": args})
        self.events.append({**common, "ph": "e", "ts": span.end})

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        self.events.append(
            {
                "cat": kind,
                "name": kind,
                "ph": "i",
                "ts": time,
                "pid": self.pid,
                "tid": self._tid(process or "?"),
                "s": "t",
                "args": {str(k): repr(v) for k, v in detail.items()},
            }
        )

    def payload(self) -> dict[str, Any]:
        # Thread name metadata gives Perfetto readable track labels.
        meta = [
            {
                "ph": "M", "name": "thread_name", "pid": self.pid, "tid": tid,
                "args": {"name": process},
            }
            for process, tid in sorted(self._tids.items(), key=lambda kv: kv[1])
        ]
        return {"traceEvents": meta + self.events, "displayTimeUnit": "ms"}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)


#: ``args`` keys of a span's begin event that are ``Span`` fields, not attrs.
_META_KEYS = ("span_id", "parent", "call_id")


def _pair_spans(events: Iterable[Any]) -> tuple[list[tuple[tuple, dict, dict]], list[str]]:
    """Pair async begin/end events by key ``(cat, id)``, in end order:
    ``(key, begin, end)`` triples.

    Also returns what did not pair, in the validator's words; the loader
    skips those.
    """
    begins: dict[tuple, dict] = {}
    pairs: list[tuple[tuple, dict, dict]] = []
    unbalanced: list[str] = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") not in ("b", "e"):
            continue
        key = (event.get("cat"), event.get("id"))
        if event["ph"] == "b":
            if key in begins:
                unbalanced.append(f"duplicate begin for span {key}")
            begins[key] = event
        elif key in begins:
            pairs.append((key, begins.pop(key), event))
        else:
            unbalanced.append(f"end without begin for span {key}")
    unbalanced.extend(f"begin without end for span {key}" for key in begins)
    return pairs, unbalanced


def from_chrome(payload: dict[str, Any], source: str = "<chrome>") -> Recording:
    """Load the Chrome ``trace_event`` format a :class:`ChromeTraceSink` wrote."""
    events = [e for e in payload.get("traceEvents", []) if isinstance(e, dict)]
    # Collected first: thread_name records may trail the events they
    # name in hand-built files.
    threads = {
        e.get("tid"): e.get("args", {}).get("name", "")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    spans = []
    for _key, begin, end in _pair_spans(events)[0]:
        args = begin.get("args") or {}
        spans.append(Span(
            args.get("span_id", begin.get("id")),
            begin.get("cat", ""),
            begin.get("name", ""),
            threads.get(begin.get("tid"), ""),
            begin.get("ts", 0),
            parent_id=args.get("parent"),
            call_id=args.get("call_id"),
            attrs={k: v for k, v in args.items() if k not in _META_KEYS},
            end=end.get("ts", 0),
        ))
    instants = [
        event_record(
            e.get("ts"), e.get("name"), threads.get(e.get("tid"), ""),
            e.get("args") or {},
        )
        for e in events
        if e.get("ph") == "i"
    ]
    return Recording(spans, instants, source=source)


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float))


def _unquote(value: Any) -> str:
    """A ``ChromeTraceSink`` instant arg (a ``repr``) without its string quotes."""
    text = str(value)
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _live_problems(instants: Iterable[tuple[str, int | float, str, dict]]) -> list[str]:
    """The live-instant rule over ``(where, time, kind, detail)`` in file order.

    The plane emits at step boundaries, in boundary order, so times never
    decrease — an inversion means a sink reordered them; a ``live.alert``
    carries the alert fields, firing and resolved taking turns per
    monitor; a ``live.snapshot`` carries its evaluation time.
    """
    problems: list[str] = []
    last: int | float | None = None
    states: dict[str, str] = {}
    for where, time, kind, detail in instants:
        if last is not None and time < last:
            problems.append(
                f"{where}: live instants out of order (time {time} after {last})"
            )
        last = time
        if kind == "live.alert":
            for field in ("monitor", "state", "fast_burn", "slow_burn"):
                if field not in detail:
                    problems.append(f"{where}: live.alert missing {field!r}")
            monitor = str(detail.get("monitor", "?"))
            state = detail.get("state")
            if state not in ("firing", "resolved"):
                problems.append(
                    f"{where}: live.alert for {monitor} has bad state {state!r}"
                )
                continue
            prev = states.get(monitor)
            if state != ("firing" if prev in (None, "resolved") else "resolved"):
                problems.append(
                    f"{where}: monitor {monitor}: {state!r} does not alternate "
                    f"(previous state {prev!r})"
                )
            states[monitor] = state
        elif kind == "live.snapshot" and "time" not in detail:
            problems.append(f"{where}: live.snapshot missing 'time'")
    return problems


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check a Chrome-trace payload; returns a list of problems.

    Used by the CI trace-validation step and the sink tests: the payload
    must be well-formed, non-empty, and every async span begin (``"b"``)
    must pair with exactly one end (``"e"``) of the same id/category at
    a tick no earlier than its begin.  Instants whose ``cat`` starts with
    ``live.`` must also obey the live-instant rule (:func:`_live_problems`).
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a dict with a 'traceEvents' key"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    problems: list[str] = []
    if not any(e.get("ph") != "M" for e in events if isinstance(e, dict)):
        problems.append("trace contains no events")
    live = []
    for event in events:
        if not isinstance(event, dict):
            continue
        if event.get("ph") in ("b", "e"):
            for field in ("name", "id", "ts", "cat"):
                if field not in event:
                    problems.append(f"span event missing {field!r}: {event!r}")
        elif event.get("ph") == "i" and str(event.get("cat", "")).startswith("live."):
            ts = event.get("ts")
            if not _numeric(ts):
                problems.append(f"live instant missing numeric ts: {event!r}")
                continue
            args = {k: _unquote(v) for k, v in (event.get("args") or {}).items()}
            live.append((f"ts {ts}", ts, event["cat"], args))
    pairs, unbalanced = _pair_spans(events)
    problems.extend(unbalanced)
    for key, begin, end in pairs:
        if not (_numeric(begin.get("ts")) and _numeric(end.get("ts"))) or (
            end["ts"] < begin["ts"]
        ):
            problems.append(f"span {key} ends before it begins")
    return problems + _live_problems(live)


def validate_live_jsonl(lines: Iterable[str]) -> list[str]:
    """Check live-plane instants in a JSONL sink dump; returns problems.

    Every line must be a JSON object, and every ``live.*`` event needs a
    numeric time and a detail dict; those then obey the same
    live-instant rule as in a Chrome trace (:func:`_live_problems`).
    """
    problems: list[str] = []
    live = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            problems.append(f"line {lineno}: not valid JSON")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: not a JSON object")
            continue
        kind = record.get("kind", "")
        if record.get("type") != "event" or not str(kind).startswith("live."):
            continue
        if not _numeric(record.get("time")):
            problems.append(f"line {lineno}: live event missing numeric time")
        elif not isinstance(record.get("detail"), dict):
            problems.append(f"line {lineno}: live event missing detail dict")
        else:
            live.append((f"line {lineno}", record["time"], kind, record["detail"]))
    return problems + _live_problems(live)
