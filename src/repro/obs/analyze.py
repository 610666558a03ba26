"""repro.obs.analyze — critical-path profiling over recorded span trees.

PR 3 made the observability layer *record* one span tree per entry call;
this module turns those recordings into answers.  Three questions, in
the paper's terms:

* **Where does an entry call's virtual time go?**  Each root ``call``
  span is decomposed into the phases the manager protocol defines —
  RPC request leg, slot-queue wait in the hidden procedure array
  (§2.5), manager ``accept``/``start`` latency, pool-backlog wait (§3),
  body execution, the ``await``/``finish`` handshake, RPC response leg.
  The decomposition is *exact*: any ticks no derived phase covers land
  in an explicit ``unattributed`` bucket, so per-call phase sums always
  equal the end-to-end virtual latency.
* **Which phase dominates?**  Aggregates per entry and over the whole
  recording, with tick counts and shares.
* **What is the longest blocking chain?**  Starting from the slowest
  top-level span, repeatedly descend into the longest child — through a
  replicated write's sequencer span, the primary's entry call, down to
  the body — attributing to every link the ticks its children do not
  explain.  Link self-times telescope back to the root's duration.

Recordings load from any sink format: a Chrome ``trace_event`` file
(``TRACE_E13.json``), a :class:`~repro.obs.sinks.JsonlSink` file, a
:class:`~repro.obs.sinks.MemorySink` record list, or the live
``kernel.obs.spans`` list.  CLI::

    python -m repro.obs.analyze TRACE_E13.json
    python -m repro.obs.analyze TRACE_E13.json --json
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Any, Iterable

from .sinks import from_chrome
from .spans import Recording, Span

#: Canonical phase order of one managed entry call (plus the §2.7
#: combining short-circuit and the exactness remainder).
PHASES = (
    "request",
    "queue",
    "accept",
    "start",
    "pool",
    "body",
    "finish",
    "response",
    "combined",
    "unattributed",
)

#: (kind, name-suffix) → canonical phase key for derived phase spans.
_PHASE_OF = {
    ("rpc", "request"): "request",
    ("rpc", "response"): "response",
    ("queue", "queue"): "queue",
    ("manager", "accept"): "accept",
    ("manager", "start"): "start",
    ("manager", "finish"): "finish",
    ("manager", "combined"): "combined",
    ("pool", "pool"): "pool",
    ("body", "body"): "body",
}


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def from_spans(spans: Iterable[Any], source: str = "<memory>") -> Recording:
    """Build a recording from live ``Span`` objects or sink record dicts."""
    finished: list[Span] = []
    instants: list[dict[str, Any]] = []
    for item in spans:
        if isinstance(item, dict):
            if item.get("type") == "event":
                instants.append(item)
                continue
            if item.get("type") not in (None, "span"):
                continue
            item = Span.from_record(item)
        if item.end is not None:
            finished.append(item)
    return Recording(finished, instants, source=source)


def load(path: str) -> Recording:
    """Load a recording from a Chrome-trace or JSONL file (sniffed)."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            first_line = fh.readline()
            try:
                first = json.loads(first_line)
            except json.JSONDecodeError:
                first = None
            if isinstance(first, dict) and first.get("type") in ("span", "event"):
                # JSONL: one record per line.
                fh.seek(0)
                return _load_jsonl(fh, path)
            fh.seek(0)
            payload = json.load(fh)
            if "traceEvents" in payload:
                return from_chrome(payload, source=path)
            raise ValueError(f"{path}: JSON object is not a Chrome trace")
        return _load_jsonl(fh, path)


def _load_jsonl(fh: io.TextIOBase, path: str) -> Recording:
    items = []
    for line in fh:
        line = line.strip()
        if line:
            items.append(json.loads(line))
    return from_spans(items, source=path)


# ----------------------------------------------------------------------
# Per-call phase attribution
# ----------------------------------------------------------------------


class CallProfile:
    """One entry call's end-to-end latency, split into protocol phases."""

    __slots__ = ("key", "call_id", "name", "process", "start", "end",
                 "status", "phases")

    def __init__(self, rec: Recording, root: Span) -> None:
        self.key = rec.align_key(root)
        self.call_id = root.call_id
        self.name = root.name
        self.process = root.process
        self.start = root.start
        self.end = root.end
        self.status = root.attrs.get("status", "ok")
        self.phases: dict[str, int] = {}
        attributed = 0
        for child in rec.children(root.span_id):
            phase = _phase_key(child)
            if phase is None:
                continue  # nested calls are their own profiles
            self.phases[phase] = self.phases.get(phase, 0) + child.duration
            attributed += child.duration
        rest = self.total - attributed
        if rest:
            self.phases["unattributed"] = rest

    @property
    def total(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "process": self.process,
            "name": self.name,
            "seq": self.key[2],
            "call_id": self.call_id,
            "start": self.start,
            "end": self.end,
            "total": self.total,
            "status": self.status,
            "phases": {p: self.phases[p] for p in PHASES if p in self.phases},
        }


def _phase_key(span: Span) -> str | None:
    suffix = span.name.rsplit(".", 1)[-1]
    return _PHASE_OF.get((span.kind, suffix))


def profile_calls(rec: Recording) -> list[CallProfile]:
    """A profile for every non-nested finished call in the recording."""
    return [CallProfile(rec, root) for root in rec.call_roots()]


def aggregate(profiles: Iterable[CallProfile]) -> dict[str, dict[str, Any]]:
    """Per-entry rollup: call count, latency stats, per-phase tick sums."""
    out: dict[str, dict[str, Any]] = {}
    for prof in profiles:
        row = out.setdefault(
            prof.name,
            {"calls": 0, "total": 0, "max": 0,
             "phases": {}, "errors": 0},
        )
        row["calls"] += 1
        row["total"] += prof.total
        row["max"] = max(row["max"], prof.total)
        if prof.status != "ok":
            row["errors"] += 1
        for phase, ticks in prof.phases.items():
            row["phases"][phase] = row["phases"].get(phase, 0) + ticks
    for row in out.values():
        row["mean"] = row["total"] / row["calls"] if row["calls"] else 0.0
    return out


def phase_totals(profiles: Iterable[CallProfile]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for prof in profiles:
        for phase, ticks in prof.phases.items():
            totals[phase] = totals.get(phase, 0) + ticks
    return totals


# ----------------------------------------------------------------------
# The longest blocking chain
# ----------------------------------------------------------------------


class ChainLink:
    """One span on the critical path and the ticks only it explains."""

    __slots__ = ("span", "self_ticks")

    def __init__(self, span: Span, self_ticks: int) -> None:
        self.span = span
        self.self_ticks = self_ticks

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.span.kind,
            "name": self.span.name,
            "process": self.span.process,
            "start": self.span.start,
            "end": self.span.end,
            "duration": self.span.duration,
            "self": self.self_ticks,
        }


def critical_path(rec: Recording, root: Span | None = None) -> list[ChainLink]:
    """The longest blocking chain from ``root`` (default: slowest span).

    Descends from the root into the child with the greatest duration at
    every level; each link is charged the ticks its chosen child does
    not cover, so the self-times along the chain sum exactly to the
    root's duration.
    """
    if root is None:
        tops = rec.top_level()
        if not tops:
            return []
        root = max(tops, key=lambda s: (s.duration, -s.start))
    chain: list[ChainLink] = []
    node = root
    while True:
        kids = rec.children(node.span_id)
        if not kids:
            chain.append(ChainLink(node, node.duration))
            return chain
        pick = max(kids, key=lambda s: (s.duration, -s.start, -s.span_id))
        chain.append(ChainLink(node, node.duration - pick.duration))
        node = pick


# ----------------------------------------------------------------------
# Flame-graph folded-stack export
# ----------------------------------------------------------------------


def folded_stacks(rec: Recording) -> list[str]:
    """The recording in Brendan Gregg's folded-stack format.

    One line per unique span path, ``frame;frame;... ticks``, where each
    frame is ``kind:name`` (prefixed with the root span's process) and
    the value is the path's **self time**: the ticks the deepest span
    does not delegate to children.  ``flamegraph.pl`` and every
    compatible viewer (speedscope, inferno) render the output directly.

    The export preserves the profiler's exactness contract: the values
    sum to exactly the total duration of the recording's top-level
    spans, so the flame graph and the phase-attribution table describe
    the same ticks.  Instantaneous spans (duration 0) contribute lines
    with value 0 so leaf identity survives the round trip.
    """
    totals: dict[str, int] = {}

    def walk(span: Span, prefix: tuple[str, ...]) -> None:
        path = prefix + (f"{span.kind}:{span.name}",)
        kids = rec.children(span.span_id)
        self_ticks = span.duration - sum(k.duration for k in kids)
        if self_ticks != 0 or not kids:
            key = ";".join(path)
            totals[key] = totals.get(key, 0) + self_ticks
        for kid in kids:
            walk(kid, path)

    for root in rec.top_level():
        prefix = (root.process,) if root.process else ()
        walk(root, prefix)
    return [f"{key} {value}" for key, value in sorted(totals.items())]


def parse_folded(lines: Iterable[str]) -> dict[tuple[str, ...], int]:
    """Parse folded-stack lines back to ``frames -> ticks`` (round trip)."""
    out: dict[tuple[str, ...], int] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        out[tuple(stack.split(";"))] = int(value)
    return out


# ----------------------------------------------------------------------
# SVG flame graph (icicle) rendering
# ----------------------------------------------------------------------

_ROW_HEIGHT = 18       #: pixel height of one stack depth
_MIN_LABEL_PX = 40     #: rects narrower than this get a tooltip only
_CHAR_PX = 6.5         #: rough monospace advance used to truncate labels


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _frame_color(frame: str) -> str:
    """Deterministic warm-palette fill for a frame name.

    Pure function of the name (CRC32-seeded), so the same frame gets the
    same color in every rendering and across recordings — diffs of two
    flame graphs line up visually.
    """
    import zlib

    h = zlib.crc32(frame.encode("utf-8"))
    r = 205 + (h & 0xFF) % 50
    g = 80 + ((h >> 8) & 0xFF) % 110
    b = ((h >> 16) & 0xFF) % 55
    return f"rgb({r},{g},{b})"


class _IcicleNode:
    """One merged frame of the icicle: self ticks plus children."""

    __slots__ = ("frame", "self_ticks", "children")

    def __init__(self, frame: str) -> None:
        self.frame = frame
        self.self_ticks = 0
        self.children: dict[str, _IcicleNode] = {}

    def total(self) -> int:
        return self.self_ticks + sum(c.total() for c in self.children.values())


def _build_icicle(folded: dict[tuple[str, ...], int]) -> _IcicleNode:
    root = _IcicleNode("all")
    for path, ticks in folded.items():
        node = root
        for frame in path:
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _IcicleNode(frame)
            node = child
        node.self_ticks += ticks
    return root


def render_svg(
    folded: dict[tuple[str, ...], int],
    title: str = "flame graph",
    width: int = 1200,
) -> str:
    """Render folded stacks as a self-contained icicle-layout SVG.

    Root at the top, children below, rect width proportional to the
    subtree's total ticks — the standard flame-graph geometry, emitted
    with no dependency beyond the SVG itself.  Rendering is fully
    deterministic: children are laid out in sorted frame order and
    colors are a pure hash of the frame name, so the same recording
    always produces byte-identical SVG.  Every rect carries a
    ``<title>`` tooltip with the frame, its ticks, and its percentage
    of the total, including rects too narrow for an inline label.
    """
    if width < 100:
        raise ValueError(f"svg width must be >= 100, got {width}")
    root = _build_icicle(folded)
    total = root.total()
    scale = width / total if total else 0.0

    def depth_of(node: _IcicleNode) -> int:
        if not node.children:
            return 1
        return 1 + max(depth_of(c) for c in node.children.values())

    rows = depth_of(root)
    height = rows * _ROW_HEIGHT + 24
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11">',
        f'<text x="4" y="14">{_svg_escape(title)} '
        f"&#8212; {total} ticks</text>",
    ]

    def emit(node: _IcicleNode, x: float, depth: int) -> None:
        node_total = node.total()
        w = node_total * scale
        y = 24 + (depth * _ROW_HEIGHT)
        pct = 100.0 * node_total / total if total else 0.0
        tip = _svg_escape(f"{node.frame}: {node_total} ticks ({pct:.1f}%)")
        parts.append(
            f'<g><rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
            f'height="{_ROW_HEIGHT - 1}" fill="{_frame_color(node.frame)}" '
            f'rx="1"><title>{tip}</title></rect>'
        )
        if w >= _MIN_LABEL_PX:
            label = _svg_escape(node.frame[: max(1, int(w / _CHAR_PX))])
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + 13}">{label}</text>'
            )
        parts.append("</g>")
        child_x = x
        for frame in sorted(node.children):
            child = node.children[frame]
            emit(child, child_x, depth + 1)
            child_x += child.total() * scale

    emit(root, 0.0, 0)
    parts.append("</svg>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Replication classification (sequencer apply vs forward)
# ----------------------------------------------------------------------


def sequencer_breakdown(rec: Recording) -> dict[str, Any] | None:
    """Apply-vs-forward attribution under replication sequencer spans.

    Uses the ``primary`` tag the sequencer records on its span: the
    child call whose target matches is the sequenced apply; every other
    child call is a forward to a backup.
    """
    seq_spans = [s for s in rec.spans if s.kind == "replication"]
    if not seq_spans:
        return None
    apply_ticks = forward_ticks = 0
    applies = forwards = 0
    for seq in seq_spans:
        primary = seq.attrs.get("primary")
        for child in rec.children(seq.span_id):
            if child.kind != "call":
                continue
            target = child.name.rsplit(".", 1)[0]
            if primary is not None and target == primary:
                applies += 1
                apply_ticks += child.duration
            else:
                forwards += 1
                forward_ticks += child.duration
    return {
        "writes": len(seq_spans),
        "sequencer_ticks": sum(s.duration for s in seq_spans),
        "applies": applies,
        "apply_ticks": apply_ticks,
        "forwards": forwards,
        "forward_ticks": forward_ticks,
    }


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_report(rec: Recording, top: int = 5) -> str:
    """The human-readable critical-path report for one recording."""
    profiles = profile_calls(rec)
    out: list[str] = []
    out.append(f"# Critical-path profile: {rec.source}")
    processes = {s.process for s in rec.spans if s.process}
    out.append(
        f"{len(rec.spans)} spans over {len(processes)} processes; "
        f"{len(profiles)} entry calls profiled."
    )
    if not profiles:
        out.append("(no finished entry calls in this recording)")
        return "\n".join(out)

    total = sum(p.total for p in profiles)
    totals = phase_totals(profiles)
    out.append("")
    out.append("## Phase attribution (all calls)")
    rows = [
        [phase, totals[phase], f"{100.0 * totals[phase] / total:.1f}%"]
        for phase in PHASES
        if totals.get(phase)
    ]
    out.append(_table(rows, ["phase", "ticks", "share"]))
    out.append(
        f"exact attribution: phase sums equal end-to-end latency for "
        f"{len(profiles)}/{len(profiles)} calls "
        f"(unattributed {totals.get('unattributed', 0)} ticks)."
    )

    out.append("")
    out.append("## Per-entry breakdown")
    agg = aggregate(profiles)
    rows = []
    for name in sorted(agg, key=lambda n: -agg[n]["total"]):
        row = agg[name]
        dominant = max(row["phases"], key=row["phases"].get) if row["phases"] else "-"
        rows.append(
            [name, row["calls"], row["errors"], f"{row['mean']:.1f}",
             row["max"], dominant]
        )
    out.append(_table(rows, ["entry", "calls", "errors", "mean", "max",
                             "dominant"]))

    seq = sequencer_breakdown(rec)
    if seq is not None:
        out.append("")
        out.append("## Replication sequencer")
        out.append(
            f"{seq['writes']} sequenced writes, {seq['sequencer_ticks']} "
            f"ticks in the sequencer: {seq['applies']} primary applies "
            f"({seq['apply_ticks']} ticks), {seq['forwards']} backup "
            f"forwards ({seq['forward_ticks']} ticks)."
        )

    out.append("")
    out.append(f"## Slowest calls (top {top})")
    slow = sorted(profiles, key=lambda p: -p.total)[:top]
    rows = []
    for prof in slow:
        breakdown = " ".join(
            f"{phase}={prof.phases[phase]}"
            for phase in PHASES
            if prof.phases.get(phase)
        )
        rows.append(
            [prof.process, prof.name, prof.key[2], prof.total, prof.status,
             breakdown]
        )
    out.append(_table(rows, ["process", "entry", "seq", "total", "status",
                             "phases"]))

    chain = critical_path(rec)
    out.append("")
    out.append("## Longest blocking chain")
    for depth, link in enumerate(chain):
        span = link.span
        out.append(
            f"{'  ' * depth}{span.kind}:{span.name} [{span.process}] "
            f"{span.start}..{span.end} ({span.duration} ticks, "
            f"{link.self_ticks} self)"
        )
    if chain:
        out.append(
            f"chain self-times sum to {sum(l.self_ticks for l in chain)} "
            f"ticks = the root span's duration."
        )
    out.append("")
    out.append(
        "Hint: render the wait-for graph of a blocked run next to this "
        "report with `python -m repro.analysis --dot snapshot.json` "
        "(snapshot via DeadlockError.wait_for.to_json())."
    )
    return "\n".join(out)


def report_json(rec: Recording, top: int = 5) -> dict[str, Any]:
    """Machine-readable form of :func:`render_report`."""
    profiles = profile_calls(rec)
    return {
        "source": rec.source,
        "spans": len(rec.spans),
        "calls": len(profiles),
        "phase_totals": phase_totals(profiles),
        "entries": aggregate(profiles),
        "sequencer": sequencer_breakdown(rec),
        "profiles": [p.to_dict() for p in profiles],
        "critical_path": [l.to_dict() for l in critical_path(rec)],
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Critical-path profile of a recorded span trace.",
    )
    parser.add_argument("trace", help="Chrome-trace or JSONL span recording")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")
    parser.add_argument("--top", type=int, default=5,
                        help="slowest calls to list (default 5)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument(
        "--folded", metavar="FILE",
        help="also write the recording as flame-graph folded stacks "
             "(flamegraph.pl / speedscope input); '-' for stdout",
    )
    parser.add_argument(
        "--svg", metavar="FILE",
        help="also render the recording as a self-contained icicle SVG "
             "flame graph; '-' for stdout",
    )
    args = parser.parse_args(argv)
    if args.folded == "-" and args.svg == "-":
        print("analyze: --folded - and --svg - both claim stdout",
              file=sys.stderr)
        return 2

    try:
        rec = load(args.trace)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"analyze: cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2

    if args.folded:
        _write(args.folded, "".join(f"{line}\n" for line in folded_stacks(rec)))
    if args.svg:
        import os

        svg = render_svg(
            parse_folded(folded_stacks(rec)),
            title=os.path.basename(args.trace),
        )
        _write(args.svg, svg + "\n")
    if not args.out and "-" in (args.folded, args.svg):
        # stdout is claimed: the report goes only to --out.
        return 0

    if args.as_json:
        text = json.dumps(report_json(rec, top=args.top), indent=2,
                          sort_keys=True, default=str)
    else:
        text = render_report(rec, top=args.top)
    _write(args.out or "-", text + "\n")
    return 0


def _write(path: str, text: str) -> None:
    """Write *text* to the file at *path*, or to stdout for ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
