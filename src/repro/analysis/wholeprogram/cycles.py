"""ALP120: predict inter-manager wait cycles from the static call graph.

The runtime wait-for graph (:mod:`repro.kernel.waitgraph`) detects a
cycle once the processes are already stuck; this module finds the same
shape *before a single tick runs* by running the same SCC routine over
the resolved edges of the whole-program call graph.  Every non-trivial
strongly connected component — and every self-loop that is not a plain
manager self-call, which the per-class linter already reports as ALP111
— yields one finding whose message walks the full predicted cycle with
the runtime graph's own ``walk_cycle`` and ``describe_cycle``, so it is
in ``DeadlockError``'s ``A --[label]--> B`` notation by construction.

Soundness contract (enforced by the CI gate in
``tests/analysis/test_soundness.py``): unknown-target edges never
*complete* a cycle, but because an unresolved yielded call is recorded
explicitly rather than dropped, a program whose cycles hide behind
dynamic dispatch still shows dangling ``?`` edges in the DOT export —
the analysis degrades to visible uncertainty, not to silence.
"""

from __future__ import annotations

from operator import attrgetter

from ...kernel.waitgraph import cyclic_components, describe_cycle, walk_cycle
from ..findings import Finding
from .callgraph import CallGraph, Node


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


def predict_cycles(graph: CallGraph) -> list[Finding]:
    """All predicted wait cycles, one ALP120 finding per cycle."""
    findings: list[Finding] = []
    for component in cycles(graph):
        edges = walk_cycle(component[0], component, graph.resolved_edges())
        anchor = edges[0]
        classes = sorted(
            {n.cls for e in edges for n in (e.src, e.dst) if n and n.cls}
        )
        findings.append(
            Finding(
                code="ALP120",
                message=(
                    f"predicted wait-for cycle among "
                    f"{{{', '.join(classes)}}}: "
                    f"{describe_cycle(edges, attrgetter('label'))}"
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
