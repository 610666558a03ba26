"""Whole-program static analysis over sets of ALPS modules.

The per-class linter (:mod:`repro.analysis.static`) checks one manager
at a time; this package analyses *programs*:

* :mod:`.callgraph` — cross-object call graph via constructor/attribute
  dataflow, with explicit unknown-target edges;
* :mod:`.effects` — per-entry read/write effect sets over ``self.*``;
* :mod:`.cycles` — ALP120, predicted inter-manager wait cycles
  (the static twin of the runtime wait-for graph);
* :mod:`.interference` — ALP121, ``compatible=`` groups whose members'
  effect sets overlap.

Entry points: :func:`analyze_paths` (the ``--whole-program`` CLI mode,
all files merged into one program), :func:`lint_module` (single-module
program checks, run by ``lint_tree`` so the fixture corpus and plain
``alpslint`` invocations see ALP120/ALP121 too), and
:func:`callgraph_to_dot` (Graphviz export, cycle edges red/bold).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from ..findings import Finding
from ..model import extract_objects
from .callgraph import (
    CallGraph,
    Edge,
    Node,
    Program,
    build_call_graph,
    build_program,
)
from .cycles import cycle_class_sets, describe_cycle, predict_cycles
from .effects import EffectSet, entry_effects, object_effects
from .interference import check_interference

__all__ = [
    "CallGraph",
    "Edge",
    "EffectSet",
    "Node",
    "Program",
    "analyze_paths",
    "build_call_graph",
    "build_program",
    "callgraph_to_dot",
    "check_interference",
    "cycle_class_sets",
    "describe_cycle",
    "entry_effects",
    "lint_module",
    "lint_tree_program",
    "object_effects",
    "predict_cycles",
]


def lint_tree_program(tree: ast.Module, path: str = "<source>") -> list[Finding]:
    """Single-module program checks: ALP120 + ALP121 for one file.

    Called from :func:`repro.analysis.static.lint_tree` so every linting
    surface (corpus fixtures, ``alpslint FILE``) reports predicted
    cycles and interference without opting into ``--whole-program``.
    """
    program = build_program([(path, tree)])
    graph = build_call_graph(program)
    findings = predict_cycles(graph)
    for obj in extract_objects(tree, path=path, managed_only=False):
        findings.extend(check_interference(obj))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def lint_module(source: str, path: str = "<source>") -> list[Finding]:
    """Parse *source* and run the single-module program checks."""
    return lint_tree_program(ast.parse(source), path=path)


def _collect_modules(
    paths: Iterable[str | Path],
) -> list[tuple[str, ast.Module]]:
    modules: list[tuple[str, ast.Module]] = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            try:
                tree = ast.parse(file.read_text(), filename=str(file))
            except SyntaxError as exc:
                raise SystemExit(f"alpslint: cannot parse {file}: {exc}")
            modules.append((str(file), tree))
    return modules


def analyze_paths(
    paths: Iterable[str | Path],
) -> tuple[CallGraph, list[Finding]]:
    """Merge every module under *paths* into one program and analyse it.

    Returns the call graph (for DOT export) alongside the findings:
    ALP120 over the merged graph, ALP121 per class.  Interference is
    still per-object — effect sets do not cross objects — but cycle
    prediction sees calls that span files, which is the point.
    """
    modules = _collect_modules(paths)
    program = build_program(modules)
    graph = build_call_graph(program)
    findings = predict_cycles(graph)
    for path, tree in modules:
        for obj in extract_objects(tree, path=path, managed_only=False):
            findings.extend(check_interference(obj))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return graph, findings


def callgraph_to_dot(graph: CallGraph) -> str:
    """Graphviz rendering of the call graph.

    Managers are boxes, bodies ellipses, driver functions plain text;
    predicted-cycle members are filled red with bold red edges (the same
    convention as the runtime wait-for DOT), unknown-target edges end in
    a grey dashed ``?`` node.
    """
    from ..dot import _quote

    cycle_nodes: set[Node] = set()
    cycle_pairs: set[tuple[Node, Node]] = set()
    from .cycles import components

    for component in components(graph):
        members = set(component)
        if len(component) == 1:
            node = component[0]
            if node.kind == "manager" or not any(
                e.src == node and e.dst == node
                for e in graph.resolved_edges()
            ):
                continue
        cycle_nodes |= members
        for edge in graph.resolved_edges():
            if edge.src in members and edge.dst in members:
                cycle_pairs.add((edge.src, edge.dst))

    shapes = {"manager": "box", "body": "ellipse", "func": "plaintext"}
    lines = ["digraph call_graph {"]
    lines.append("  rankdir=LR;")
    lines.append("  node [fontname=monospace];")
    for node in graph.nodes:
        attrs = [f"shape={shapes[node.kind]}"]
        if node in cycle_nodes:
            attrs.append('style=filled, fillcolor="#f4cccc", color=red')
        lines.append(f"  {_quote(node.label)} [{', '.join(attrs)}];")
    unknown_emitted = False
    for edge in graph.edges:
        styles = []
        if edge.dst is None:
            if not unknown_emitted:
                lines.append(
                    '  "?" [shape=ellipse, style="filled,dashed", '
                    "fillcolor=lightgrey];"
                )
                unknown_emitted = True
            dst_label = "?"
            styles.append("style=dashed")
            styles.append("color=grey40")
        else:
            dst_label = edge.dst.label
            if (edge.src, edge.dst) in cycle_pairs:
                styles.append("color=red")
                styles.append("penwidth=2")
        attr = f", {', '.join(styles)}" if styles else ""
        lines.append(
            f"  {_quote(edge.src.label)} -> {_quote(dst_label)} "
            f"[label={_quote(edge.label)}{attr}];"
        )
    lines.append("}")
    return "\n".join(lines)
