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

Entry points: :func:`analyze` (every finding of a run over loaded
modules — a plain lint makes each file its own program, so the fixture
corpus and ``alpslint FILE`` see ALP120/ALP121 too), :func:`analyze_paths`
(the ``--whole-program`` CLI mode, all files merged into one program)
and :func:`callgraph_to_dot` (Graphviz export, cycle edges red/bold).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..dot import CYCLE_EDGE, CYCLE_NODE, edge_line, quote
from ..findings import Finding
from ..model import Module, load_paths
from ..static import check_module
from .callgraph import (
    CallGraph,
    Edge,
    Node,
    Program,
    build_call_graph,
    build_program,
)
from .cycles import cycle_class_sets, cycles, predict_cycles
from .effects import EffectSet, entry_effects, object_effects
from .interference import check_interference

__all__ = [
    "CallGraph",
    "Edge",
    "EffectSet",
    "Node",
    "Program",
    "analyze",
    "analyze_paths",
    "build_call_graph",
    "build_program",
    "callgraph_to_dot",
    "check_interference",
    "cycle_class_sets",
    "entry_effects",
    "object_effects",
    "predict_cycles",
]


def analyze(
    programs: Iterable[list[Module]],
) -> tuple[list[CallGraph], list[Finding]]:
    """Every finding of a run, sorted, and each program's call graph.

    A *program* is a list of loaded modules whose objects may call each
    other.  Per module: the per-class checks and ALP114; per program:
    ALP120 over its call graph (cycle prediction sees calls that span
    its files) and ALP121 per object (effect sets do not cross objects).
    """
    graphs: list[CallGraph] = []
    findings: list[Finding] = []
    for modules in programs:
        graphs.append(build_call_graph(build_program(modules)))
        findings.extend(predict_cycles(graphs[-1]))
        for module in modules:
            findings.extend(check_module(module))
            for obj in module.objects:
                findings.extend(check_interference(obj))
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return graphs, findings


def analyze_paths(
    paths: Iterable[str | Path],
) -> tuple[CallGraph, list[Finding]]:
    """Merge every module under *paths* into one program and analyse it."""
    (graph,), findings = analyze([load_paths(paths)])
    return graph, findings


def callgraph_to_dot(graph: CallGraph) -> str:
    """Graphviz rendering of the call graph.

    Managers are boxes, bodies ellipses, driver functions plain text;
    predicted-cycle members are filled red with bold red edges (the same
    convention as the runtime wait-for DOT), unknown-target edges end in
    a grey dashed ``?`` node.
    """
    cycle_of = {
        node: index
        for index, component in enumerate(cycles(graph))
        for node in component
    }
    shapes = {"manager": "box", "body": "ellipse", "func": "plaintext"}
    lines = ["digraph call_graph {"]
    lines.append("  rankdir=LR;")
    lines.append("  node [fontname=monospace];")
    for node in graph.nodes:
        attrs = [f"shape={shapes[node.kind]}"]
        if node in cycle_of:
            attrs.append(CYCLE_NODE)
        lines.append(f"  {quote(node.label)} [{', '.join(attrs)}];")
    unknown_emitted = False
    for edge in graph.edges:
        if edge.dst is None:
            if not unknown_emitted:
                lines.append(
                    '  "?" [shape=ellipse, style="filled,dashed", '
                    "fillcolor=lightgrey];"
                )
                unknown_emitted = True
            dst_label, styles = "?", ["style=dashed", "color=grey40"]
        else:
            same_cycle = cycle_of.get(edge.src, -1) == cycle_of.get(edge.dst)
            dst_label, styles = edge.dst.label, CYCLE_EDGE if same_cycle else []
        lines.append(edge_line(edge.src.label, dst_label, edge.label, styles))
    lines.append("}")
    return "\n".join(lines)
