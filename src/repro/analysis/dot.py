"""Graphviz DOT export of the runtime wait-for graph.

The structured snapshot that ``DeadlockError.wait_for`` (and the live
detector) carries, rendered for ``dot``/Graphviz so a blocked run can be
*seen* — and laid side by side with the critical-path report of the
same run (``python -m repro.obs.analyze TRACE.json``) or with the static
call graph, which marks its predicted cycles the same way
(:data:`CYCLE_NODE`, :data:`CYCLE_EDGE`).

Rendering rules:

* every blocked process is an ellipse node; members of a wait-for cycle
  are filled red — the deadlock participants jump out;
* edges carry the protocol label (``call kv.put[0] (awaiting accept)``);
  edges a pending timer could dissolve (timed calls, selects holding a
  feasible ``Timeout`` guard) are dashed, cycle edges are bold red;
* exhausted hidden procedure arrays (§2.5 overflow with every slot
  held) are grey boxes listing the holders.

Input is either a live :class:`~repro.kernel.waitgraph.WaitForSnapshot`
or its ``to_json()`` dict (the CLI reads the latter from a file)::

    python -m repro.analysis --dot snapshot.json > wait_for.dot
    dot -Tsvg wait_for.dot -o wait_for.svg
"""

from __future__ import annotations

from typing import Any

from ..kernel.waitgraph import WaitForSnapshot

CYCLE_NODE = 'style=filled, fillcolor="#f4cccc", color=red'
CYCLE_EDGE = ["color=red", "penwidth=2"]


def quote(text: Any) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def edge_line(src: Any, dst: Any, label: Any, styles: list[str]) -> str:
    attr = f", {', '.join(styles)}" if styles else ""
    return f"  {quote(src)} -> {quote(dst)} [label={quote(label)}{attr}];"


def _quote_multiline(parts: list[str]) -> str:
    # DOT line breaks are a literal backslash-n inside the quoted label.
    return '"' + "\\n".join(quote(p)[1:-1] for p in parts) + '"'


def to_dot(snapshot: "WaitForSnapshot | dict[str, Any]") -> str:
    """Render a wait-for snapshot (live or ``to_json()`` form) as DOT."""
    data = snapshot.to_json() if isinstance(snapshot, WaitForSnapshot) else snapshot
    edges = data.get("edges", [])
    cycle_edges = {
        (src, dst) for cycle in data.get("cycles", []) for src, dst in cycle
    }
    cycle_nodes = {name for pair in cycle_edges for name in pair}
    nodes: list[str] = list(data.get("processes", []))
    for edge in edges:
        for name in (edge["src"], edge["dst"]):
            if name not in nodes:
                nodes.append(name)

    lines = ["digraph wait_for {"]
    lines.append("  rankdir=LR;")
    lines.append(
        f"  label={quote('wait-for graph at t=' + str(data.get('time', '?')))};"
    )
    lines.append("  node [shape=ellipse, fontname=monospace];")
    for name in nodes:
        attrs = f" [{CYCLE_NODE}]" if name in cycle_nodes else ""
        lines.append(f"  {quote(name)}{attrs};")
    for edge in edges:
        styles = []
        if (edge["src"], edge["dst"]) in cycle_edges:
            styles.extend(CYCLE_EDGE)
        if not edge.get("definite", True):
            styles.append("style=dashed")
        lines.append(
            edge_line(edge["src"], edge["dst"], edge.get("label", ""), styles)
        )
    for index, pool in enumerate(data.get("pools", [])):
        label = _quote_multiline(
            [
                f"{pool['obj']}.{pool['entry']}[1..{pool['array_size']}] exhausted",
                f"{pool['waiting']} caller(s) queued",
                *pool.get("holders", []),
            ]
        )
        lines.append(
            f"  pool{index} [shape=box, style=filled, fillcolor=lightgrey, "
            f"label={label}];"
        )
    lines.append("}")
    return "\n".join(lines)
