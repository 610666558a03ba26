"""``alpslint`` — command-line front end of the ALPS protocol linter.

Run as ``python -m repro.analysis`` (or via ``tools/alpslint.py``)::

    python -m repro.analysis src/repro examples          # lint trees
    python -m repro.analysis --format json file.py       # machine output
    python -m repro.analysis --select ALP101,ALP111 ...  # only some checks
    python -m repro.analysis --list-checks               # show catalogue
    python -m repro.analysis --dot snapshot.json -o wait_for.dot
    python -m repro.analysis --whole-program src examples  # merged program
    python -m repro.analysis --whole-program --dot src -o callgraph.dot
    python -m repro.analysis --sarif out.sarif src       # PR annotations

Exit codes: 0 clean, 1 findings reported, 2 usage / input errors
(including unknown ``--select``/``--ignore`` codes).
``--dot SNAPSHOT`` renders a wait-for snapshot (the
``WaitForSnapshot.to_json()`` dump carried by ``DeadlockError``) as
Graphviz DOT instead of linting; under ``--whole-program`` a bare
``--dot`` exports the *static call graph* instead, predicted-cycle
edges red/bold — the two graphs share a notation so a prediction can be
laid beside the live snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .findings import CATALOGUE, Finding, Severity
from .static import lint_paths


class UsageError(Exception):
    """Bad invocation (exit 2), as opposed to findings (exit 1)."""


def _parse_codes(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    codes = {part.strip().upper() for part in raw.split(",") if part.strip()}
    unknown = codes - set(CATALOGUE)
    if unknown:
        valid = ", ".join(sorted(CATALOGUE))
        raise UsageError(
            f"alpslint: unknown code(s): {', '.join(sorted(unknown))}; "
            f"valid codes: {valid}"
        )
    return codes


def _filter(
    findings: list[Finding], select: set[str] | None, ignore: set[str] | None
) -> list[Finding]:
    out = findings
    if select is not None:
        out = [f for f in out if f.code in select]
    if ignore is not None:
        out = [f for f in out if f.code not in ignore]
    return out


def _print_findings(findings: list[Finding], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump([f.to_dict() for f in findings], stream, indent=2)
        stream.write("\n")
        return
    for finding in findings:
        print(finding.render(), file=stream)
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        print(
            f"alpslint: {errors} error(s), {warnings} warning(s)", file=stream
        )


def _list_checks(stream) -> None:
    for code in sorted(CATALOGUE):
        check = CATALOGUE[code]
        print(f"{code}  {check.severity}  {check.title}", file=stream)
        print(f"        {check.summary}", file=stream)


def render_dot(snapshot_path: str, output: str | None, err) -> int:
    """Load a wait-for snapshot JSON file and emit Graphviz DOT."""
    from .dot import to_dot

    try:
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"alpslint: cannot read snapshot {snapshot_path}: {exc}", file=err)
        return 2
    if not isinstance(data, dict) or data.get("type") != "wait_for":
        print(
            f"alpslint: {snapshot_path} is not a wait-for snapshot "
            f"(expected a WaitForSnapshot.to_json() dump)",
            file=err,
        )
        return 2
    text = to_dot(data) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alpslint",
        description="Static protocol linter for ALPS objects.",
    )
    parser.add_argument(
        "paths", nargs="*", help="python files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--select", metavar="CODES", help="comma-separated codes to enable"
    )
    parser.add_argument(
        "--ignore", metavar="CODES", help="comma-separated codes to disable"
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="print the check catalogue"
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="merge all paths into one program: cross-file call graph, "
        "ALP120 cycle prediction, ALP121 interference",
    )
    parser.add_argument(
        "--dot",
        metavar="SNAPSHOT",
        nargs="?",
        const="",
        default=None,
        help="render a wait-for snapshot JSON file as Graphviz DOT; under "
        "--whole-program, a bare --dot exports the static call graph",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="additionally write findings as SARIF 2.1.0 to FILE "
        "(for PR annotation uploads)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="with --dot: write the DOT text here instead of stdout",
    )
    args = parser.parse_args(argv)
    if args.whole_program and args.dot:
        # Under --whole-program a bare --dot means "export the call
        # graph"; anything argparse attached to it is really a path
        # (``--whole-program --dot src`` must lint src).
        args.paths.insert(0, args.dot)
        args.dot = ""

    if args.list_checks:
        _list_checks(sys.stdout)
        return 0
    if args.dot is not None and not args.whole_program:
        if not args.dot:
            print(
                "alpslint: bare --dot needs --whole-program "
                "(or pass a snapshot file)",
                file=sys.stderr,
            )
            return 2
        return render_dot(args.dot, args.output, sys.stderr)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("alpslint: no paths given", file=sys.stderr)
        return 2

    for path in args.paths:
        if not os.path.exists(path):
            print(f"alpslint: path not found: {path}", file=sys.stderr)
            return 2

    graph = None
    try:
        if args.whole_program:
            from .wholeprogram import analyze_paths

            graph, findings = analyze_paths(args.paths)
        else:
            findings = lint_paths(args.paths)
    except SyntaxError as exc:
        print(f"alpslint: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2
    try:
        findings = _filter(
            findings, _parse_codes(args.select), _parse_codes(args.ignore)
        )
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    dot_on_stdout = False
    if args.dot is not None and args.whole_program and graph is not None:
        from .wholeprogram import callgraph_to_dot

        text = callgraph_to_dot(graph) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            dot_on_stdout = True
    if args.sarif:
        from .sarif import render_sarif

        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(findings))
    if not dot_on_stdout:
        _print_findings(findings, args.fmt, sys.stdout)
    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0
