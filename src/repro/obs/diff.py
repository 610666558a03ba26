"""repro.obs.diff — span-tree diffing between two trace recordings.

Debugging question: the same workload ran twice — different seed,
different fault plan, different priorities — and behaved differently.
*Where* do the two runs diverge?  The differ aligns the two recordings
by **call identity** and reports, in protocol terms:

* calls present in only one run (extra retries, calls a crash swallowed);
* calls whose status changed (``ok`` → ``failed``/``timeout``);
* **reordered accepts**: per object, the order in which the manager
  accepted the common calls (§2.4 scheduling), with the first point of
  divergence;
* **replicated-write subtree divergence**: per sequenced write, a
  changed primary, changed forward set, or a changed number of replica
  calls (retries) — the signature of a failover;
* instant-event divergence (crash/drop/timeout markers);
* per-phase latency deltas for every aligned call, aggregated per entry.

Alignment keys are schedule-independent: root call spans carry a ``seq``
attribute — "this caller's n-th call of this entry in program order" —
recorded at issue time, so two runs whose interleavings differ still
align call-for-call.  Spans without the attribute (older recordings,
``replicated`` write roots) fall back to per-(process, name) occurrence
order.

CLI (exit 0 when the recordings are equivalent, 1 when differences are
found, 2 on usage errors)::

    python -m repro.obs.diff TRACE_A.json TRACE_B.json
    python -m repro.obs.diff --json TRACE_A.json TRACE_B.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .analyze import PHASES, CallProfile, load, profile_calls
from .spans import Recording, Span

Key = tuple  # (process, name, seq)


def _fmt_key(key: Key) -> str:
    return f"{key[0]}:{key[1]}#{key[2]}"


class CallDelta:
    """One aligned call pair and its per-phase latency movement (b - a)."""

    __slots__ = ("key", "a", "b")

    def __init__(self, key: Key, a: CallProfile, b: CallProfile) -> None:
        self.key = key
        self.a = a
        self.b = b

    @property
    def total_delta(self) -> int:
        return self.b.total - self.a.total

    def phase_deltas(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for phase in set(self.a.phases) | set(self.b.phases):
            delta = self.b.phases.get(phase, 0) - self.a.phases.get(phase, 0)
            if delta:
                out[phase] = delta
        return out


class TraceDiff:
    """The structured result of diffing recording ``a`` against ``b``."""

    def __init__(self, a: Recording, b: Recording) -> None:
        self.a = a
        self.b = b
        prof_a = {p.key: p for p in profile_calls(a)}
        prof_b = {p.key: p for p in profile_calls(b)}
        self.only_a: list[Key] = sorted(set(prof_a) - set(prof_b))
        self.only_b: list[Key] = sorted(set(prof_b) - set(prof_a))
        common = sorted(set(prof_a) & set(prof_b))
        self.matched = [CallDelta(k, prof_a[k], prof_b[k]) for k in common]
        self.status_changes = [
            (k, prof_a[k].status, prof_b[k].status)
            for k in common
            if prof_a[k].status != prof_b[k].status
        ]
        self.reordered_accepts = _reordered_accepts(a, b, set(common))
        self.replication = _replication_divergence(a, b)
        self.instant_divergence = _instant_divergence(a, b)

    # -- verdicts ----------------------------------------------------------

    @property
    def structural_differences(self) -> int:
        return (
            len(self.only_a)
            + len(self.only_b)
            + len(self.status_changes)
            + len(self.reordered_accepts)
            + len(self.replication)
            + len(self.instant_divergence)
        )

    @property
    def latency_differences(self) -> int:
        return sum(1 for d in self.matched if d.total_delta)

    def identical(self) -> bool:
        return self.structural_differences == 0 and self.latency_differences == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "a": self.a.source,
            "b": self.b.source,
            "identical": self.identical(),
            "only_a": [_fmt_key(k) for k in self.only_a],
            "only_b": [_fmt_key(k) for k in self.only_b],
            "status_changes": [
                {"key": _fmt_key(k), "a": sa, "b": sb}
                for k, sa, sb in self.status_changes
            ],
            "reordered_accepts": self.reordered_accepts,
            "replication": self.replication,
            "instants": self.instant_divergence,
            "latency": {
                "changed_calls": self.latency_differences,
                "phase_totals": self.phase_delta_totals(),
            },
            "calls_matched": len(self.matched),
        }

    # -- latency rollups ---------------------------------------------------

    def phase_delta_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for delta in self.matched:
            for phase, ticks in delta.phase_deltas().items():
                totals[phase] = totals.get(phase, 0) + ticks
        return totals

    def top_movers(self, top: int = 5) -> list[CallDelta]:
        return sorted(
            (d for d in self.matched if d.total_delta),
            key=lambda d: -abs(d.total_delta),
        )[:top]


def _accept_order(rec: Recording, common: set[Key]) -> dict[str, list[tuple]]:
    """Per object: common call keys in the order the manager accepted them.

    The accept instant is the end of a call's derived ``accept`` phase
    span (== ``accepted_at``).  Calls that were never accepted (crashed,
    combined before accept, unmanaged) don't participate.
    """
    orders: dict[str, list[tuple]] = {}
    for root in rec.call_roots():
        key = rec.align_key(root)
        if key not in common:
            continue
        for child in rec.children(root.span_id):
            if child.kind == "manager" and child.name.endswith(".accept"):
                obj = root.name.rsplit(".", 1)[0]
                orders.setdefault(obj, []).append((child.end, child.start, key))
                break
    return {
        obj: [key for _, _, key in sorted(entries)]
        for obj, entries in orders.items()
    }


def _reordered_accepts(
    a: Recording, b: Recording, common: set[Key]
) -> list[dict[str, Any]]:
    orders_a = _accept_order(a, common)
    orders_b = _accept_order(b, common)
    out: list[dict[str, Any]] = []
    for obj in sorted(set(orders_a) | set(orders_b)):
        seq_a = [k for k in orders_a.get(obj, []) if k in set(orders_b.get(obj, []))]
        seq_b = [k for k in orders_b.get(obj, []) if k in set(orders_a.get(obj, []))]
        if seq_a == seq_b:
            continue
        first = next(
            (i for i, (ka, kb) in enumerate(zip(seq_a, seq_b)) if ka != kb),
            min(len(seq_a), len(seq_b)),
        )
        out.append(
            {
                "object": obj,
                "accepts": len(seq_a),
                "first_divergence": first,
                "a": _fmt_key(seq_a[first]) if first < len(seq_a) else None,
                "b": _fmt_key(seq_b[first]) if first < len(seq_b) else None,
            }
        )
    return out


def _write_signature(rec: Recording, root: Span) -> dict[str, Any]:
    """Structure of one replicated write's subtree (failover signature)."""
    sig: dict[str, Any] = {"status": root.attrs.get("status")}
    for seq in rec.children(root.span_id):
        if seq.kind != "replication":
            continue
        calls = [c for c in rec.children(seq.span_id) if c.kind == "call"]
        sig["primary"] = seq.attrs.get("primary")
        sig["forwards"] = sorted(seq.attrs.get("forwards") or [])
        sig["replica_calls"] = sorted(
            c.name.rsplit(".", 1)[0] for c in calls
        )
        sig["attempts"] = len(calls)
    return sig


def _replicated_roots(rec: Recording) -> dict[Key, Span]:
    """``replicated`` write roots keyed by per-(process, name) occurrence."""
    counters: dict[tuple[str, str], int] = {}
    out: dict[Key, Span] = {}
    for span in rec.spans:  # already in (start, id) order
        if span.kind != "replicated":
            continue
        ident = (span.process, span.name)
        seq = counters.get(ident, 0)
        counters[ident] = seq + 1
        out[(span.process, span.name, seq)] = span
    return out


def _replication_divergence(a: Recording, b: Recording) -> list[dict[str, Any]]:
    roots_a = _replicated_roots(a)
    roots_b = _replicated_roots(b)
    out: list[dict[str, Any]] = []
    for key in sorted(set(roots_a) | set(roots_b)):
        in_a, in_b = key in roots_a, key in roots_b
        if not (in_a and in_b):
            out.append(
                {"write": _fmt_key(key),
                 "change": "only in A" if in_a else "only in B"}
            )
            continue
        sig_a = _write_signature(a, roots_a[key])
        sig_b = _write_signature(b, roots_b[key])
        if sig_a == sig_b:
            continue
        changed = sorted(
            field
            for field in set(sig_a) | set(sig_b)
            if sig_a.get(field) != sig_b.get(field)
        )
        out.append(
            {
                "write": _fmt_key(key),
                "change": "subtree divergence",
                "fields": changed,
                "a": {f: sig_a.get(f) for f in changed},
                "b": {f: sig_b.get(f) for f in changed},
            }
        )
    return out


def _instant_divergence(a: Recording, b: Recording) -> dict[str, list[int]]:
    """Instant-event kinds whose occurrence counts differ: kind → [a, b]."""
    counts_a: dict[str, int] = {}
    counts_b: dict[str, int] = {}
    for inst in a.instants:
        counts_a[inst["kind"]] = counts_a.get(inst["kind"], 0) + 1
    for inst in b.instants:
        counts_b[inst["kind"]] = counts_b.get(inst["kind"], 0) + 1
    return {
        kind: [counts_a.get(kind, 0), counts_b.get(kind, 0)]
        for kind in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(kind, 0) != counts_b.get(kind, 0)
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def render_diff(diff: TraceDiff, top: int = 5) -> str:
    out: list[str] = []
    out.append(f"# Span-tree diff: {diff.a.source} vs {diff.b.source}")
    out.append(
        f"{len(diff.matched)} calls aligned; "
        f"{len(diff.only_a)} only in A, {len(diff.only_b)} only in B."
    )
    if diff.identical():
        out.append("recordings are equivalent: no differences found.")
        return "\n".join(out)

    if diff.only_a or diff.only_b:
        out.append("")
        out.append("## Unmatched calls")
        for key in diff.only_a[:top]:
            out.append(f"  only in A: {_fmt_key(key)}")
        if len(diff.only_a) > top:
            out.append(f"  ... and {len(diff.only_a) - top} more only in A")
        for key in diff.only_b[:top]:
            out.append(f"  only in B: {_fmt_key(key)}")
        if len(diff.only_b) > top:
            out.append(f"  ... and {len(diff.only_b) - top} more only in B")

    if diff.status_changes:
        out.append("")
        out.append("## Status changes")
        for key, sa, sb in diff.status_changes[:top]:
            out.append(f"  {_fmt_key(key)}: {sa} -> {sb}")
        if len(diff.status_changes) > top:
            out.append(f"  ... and {len(diff.status_changes) - top} more")

    if diff.reordered_accepts:
        out.append("")
        out.append("## Reordered accepts")
        for entry in diff.reordered_accepts:
            out.append(
                f"  {entry['object']}: accept order diverges at position "
                f"{entry['first_divergence']} of {entry['accepts']} "
                f"(A accepted {entry['a']}, B accepted {entry['b']})"
            )

    if diff.replication:
        out.append("")
        out.append("## Replicated writes")
        for entry in diff.replication[:top]:
            if entry["change"] == "subtree divergence":
                out.append(
                    f"  {entry['write']}: {', '.join(entry['fields'])} "
                    f"changed — A {entry['a']} vs B {entry['b']}"
                )
            else:
                out.append(f"  {entry['write']}: {entry['change']}")
        if len(diff.replication) > top:
            out.append(f"  ... and {len(diff.replication) - top} more")

    if diff.instant_divergence:
        out.append("")
        out.append("## Instant events (count A vs B)")
        for kind, (ca, cb) in diff.instant_divergence.items():
            out.append(f"  {kind}: {ca} vs {cb}")

    totals = diff.phase_delta_totals()
    if totals or diff.latency_differences:
        out.append("")
        out.append("## Latency movement (B - A)")
        out.append(f"{diff.latency_differences} aligned calls changed latency.")
        for phase in PHASES:
            if totals.get(phase):
                out.append(f"  {phase}: {totals[phase]:+d} ticks")
        movers = diff.top_movers(top)
        if movers:
            out.append("  top movers:")
            for delta in movers:
                phases = " ".join(
                    f"{p}={v:+d}" for p, v in sorted(delta.phase_deltas().items())
                )
                out.append(
                    f"    {_fmt_key(delta.key)}: {delta.a.total} -> "
                    f"{delta.b.total} ({delta.total_delta:+d}) {phases}"
                )
    return "\n".join(out)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="Diff two span-trace recordings by call identity.",
    )
    parser.add_argument("trace_a", help="baseline recording (A)")
    parser.add_argument("trace_b", help="comparison recording (B)")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--top", type=int, default=5,
                        help="entries to list per section (default 5)")
    args = parser.parse_args(argv)

    try:
        rec_a = load(args.trace_a)
        rec_b = load(args.trace_b)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"diff: cannot load recordings: {exc}", file=sys.stderr)
        return 2

    diff = TraceDiff(rec_a, rec_b)
    if args.as_json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True, default=str))
    else:
        print(render_diff(diff, top=args.top))
    return 0 if diff.identical() else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
