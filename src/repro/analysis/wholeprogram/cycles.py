"""ALP120: predict inter-manager wait cycles from the static call graph.

The runtime wait-for graph (:mod:`repro.kernel.waitgraph`) detects a
cycle once the processes are already stuck; this module finds the same
shape *before a single tick runs* by running the same SCC routine over
the resolved edges of the whole-program call graph.  Every non-trivial
strongly connected component — and every self-loop that is not a plain
manager self-call, which the per-class linter already reports as ALP111
— yields one finding whose message walks the full predicted cycle in
exactly the ``A --[label]--> B`` notation ``DeadlockError`` uses, so a
developer can diff the prediction against a live snapshot.

Soundness contract (enforced by the CI gate in
``tests/analysis/test_soundness.py``): unknown-target edges never
*complete* a cycle, but because an unresolved yielded call is recorded
explicitly rather than dropped, a program whose cycles hide behind
dynamic dispatch still shows dangling ``?`` edges in the DOT export —
the analysis degrades to visible uncertainty, not to silence.
"""

from __future__ import annotations

from ...kernel.waitgraph import cyclic_components
from ..findings import Finding
from .callgraph import CallGraph, Edge, Node


def cycles(graph: CallGraph) -> list[list[Node]]:
    """Cyclic components over resolved edges, in deterministic node order.

    A manager calling its own intercepted entry is ALP111, already
    reported per class: that self-loop is left out, so a manager alone
    is never a cycle here.
    """
    successors: dict[Node, list[Node]] = {n: [] for n in graph.nodes}
    for edge in graph.resolved_edges():
        if edge.src != edge.dst or edge.src.kind != "manager":
            successors[edge.src].append(edge.dst)  # type: ignore[arg-type]
    return cyclic_components(successors)


def _cycle_edges(graph: CallGraph, component: list[Node]) -> list[Edge]:
    """One concrete edge walk through the component, for the message."""
    members = set(component)
    edge_map: dict[Node, list[Edge]] = {}
    for edge in graph.resolved_edges():
        if edge.src in members and edge.dst in members:
            edge_map.setdefault(edge.src, []).append(edge)
    # Walk greedily from the first node until we close the loop; inside
    # an SCC every node has at least one in-component successor.
    start = component[0]
    walk: list[Edge] = []
    seen: set[Node] = set()
    node = start
    while node not in seen:
        seen.add(node)
        options = edge_map.get(node)
        if not options:
            break
        # Prefer an edge back to the start (shortest closing), else the
        # first unvisited destination, else any in-component edge.
        chosen = next((e for e in options if e.dst == start), None)
        if chosen is None:
            chosen = next((e for e in options if e.dst not in seen), options[0])
        walk.append(chosen)
        node = chosen.dst  # type: ignore[assignment]
    # Trim any non-cyclic prefix (walk may re-enter at a later node).
    if walk:
        closing = walk[-1].dst
        for i, edge in enumerate(walk):
            if edge.src == closing:
                return walk[i:]
    return walk


def describe_cycle(edges: list[Edge]) -> str:
    """``A --[label]--> B --[label]--> A`` — DeadlockError's notation."""
    if not edges:
        return "<empty cycle>"
    parts = [edges[0].src.label]
    for edge in edges:
        dst = edge.dst.label if edge.dst is not None else "?"
        parts.append(f"--[{edge.label}]--> {dst}")
    return " ".join(parts)


def predict_cycles(graph: CallGraph) -> list[Finding]:
    """All predicted wait cycles, one ALP120 finding per cycle."""
    findings: list[Finding] = []
    for component in cycles(graph):
        edges = _cycle_edges(graph, component)
        anchor = edges[0]
        classes = sorted(
            {n.cls for e in edges for n in (e.src, e.dst) if n and n.cls}
        )
        findings.append(
            Finding(
                code="ALP120",
                message=(
                    f"predicted wait-for cycle among "
                    f"{{{', '.join(classes)}}}: {describe_cycle(edges)}"
                ),
                path=anchor.path,
                line=anchor.line,
                obj=anchor.src.cls,
                entry=anchor.entry,
            )
        )
    return findings


def cycle_class_sets(graph: CallGraph) -> list[set[str]]:
    """Class-name participant sets per predicted cycle (soundness gate)."""
    sets = [{n.cls for n in component if n.cls} for component in cycles(graph)]
    return [classes for classes in sets if classes]
