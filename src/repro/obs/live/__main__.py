"""``python -m repro.obs.live`` — the dashboard CLI.

Renders the deterministic text dashboard from a JSONL sink produced by
a run with ``plane.stream_snapshots()`` enabled::

    python -m repro.obs.live run.jsonl              # latest snapshot
    python -m repro.obs.live run.jsonl --at 5000    # as of tick 5000
    python -m repro.obs.live run.jsonl --follow     # tail a live run
    python -m repro.obs.live run.jsonl --out dash.txt

``--follow`` polls the file (wall-clock ``--interval`` seconds) and
re-renders whenever new snapshots appear; the *rendering* stays a pure
function of the snapshot payload, so a followed run and a post-hoc
replay print the same text for the same tick.  Exit status 2 means the
file held no ``live.snapshot`` instants, or none at or before ``--at``'s
tick (the message then names the first snapshot's tick).
"""

from __future__ import annotations

import argparse
import sys
import time

from .dashboard import load_snapshots, render, snapshot_at


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.live",
        description="Render the live-telemetry dashboard from a JSONL sink.",
    )
    parser.add_argument("path", help="JSONL sink file with live.snapshot instants")
    parser.add_argument(
        "--at", type=int, default=None,
        help="render the latest snapshot at or before this tick",
    )
    parser.add_argument("--out", help="write the dashboard to a file instead of stdout")
    parser.add_argument("--width", type=int, default=72, help="dashboard width in columns")
    parser.add_argument(
        "--follow", action="store_true",
        help="keep polling the file and re-render on new snapshots",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in seconds for --follow",
    )
    parser.add_argument(
        "--max-polls", type=int, default=0,
        help="stop --follow after this many polls (0 = poll until interrupted)",
    )
    args = parser.parse_args(argv)

    if not args.follow:
        snapshots = load_snapshots(_read_lines(args.path))
        chosen = snapshot_at(snapshots, args.at)
        if chosen is None:
            where = f"instants in {args.path}"
            if snapshots:  # --at is earlier than the first snapshot
                first = snapshots[0].get("time", 0)
                where = f"at or before tick {args.at} in {args.path} (the first is at tick {first})"
            print(f"no live.snapshot {where}", file=sys.stderr)
            return 2
        _emit(render(chosen, width=args.width), args.out)
        return 0

    rendered = 0
    polls = 0
    while True:
        snapshots = load_snapshots(_read_lines(args.path))
        if len(snapshots) > rendered:
            _emit(render(snapshots[-1], width=args.width), args.out)
            rendered = len(snapshots)
        polls += 1
        if args.max_polls and polls >= args.max_polls:
            return 0 if rendered else 2
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
