"""The runtime wait-for graph: who is blocked on whom, and why.

Built on the structured ``Process.waiting_for`` records the kernel (and
the entry-call machinery in ``repro.core``) maintain (``blocked_on`` is
their rendering as text).  Each blocked process becomes a node; an edge
``P → Q`` means "P cannot make progress until Q acts", labelled with the
object/entry/slot involved:

* a caller blocked in an entry call waits on the target object's
  **manager** while the call is attached/accepted/awaiting ``finish``,
  on the **body process** while the body runs, and on the **slot
  holders** while the hidden procedure array is exhausted;
* a manager blocked in a ``select`` whose ``await`` guards cannot fire
  waits on the started bodies those guards watch
  (:meth:`~repro.core.primitives.AwaitGuard.wait_targets`);
* ``join``/``par`` waiters wait on their targets/children.

A cycle of such edges is a deadlock: every participant needs another
participant to move first.  :meth:`WaitForSnapshot.cycles` finds them
(:func:`cyclic_components`, :func:`walk_cycle`; :func:`describe_cycle`
writes them), and the kernel attaches the whole snapshot to
:class:`~repro.errors.DeadlockError` as ``.wait_for`` so tests and the
faults runtime can assert on the cycle structurally instead of parsing
the exception text.  The opt-in *live* detector
(:class:`repro.analysis.LiveDeadlockDetector`) builds the same snapshot
periodically and flags definite cycles — and exhausted hidden pools —
*before* quiescence.

Edges are marked *definite* unless a pending timer could dissolve them
(a timed entry call, or a select that also holds a feasible ``Timeout``
guard); the live detector only raises on all-definite cycles, while at
quiescence the distinction is moot (an empty event queue has no timers
left to fire).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping

from .process import Process, ProcessState
from .timeouts import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class WaitEdge:
    """One "waits on" relation: ``src`` cannot proceed until ``dst`` acts."""

    __slots__ = ("src", "dst", "label", "definite", "obj", "entry", "slot")

    def __init__(
        self,
        src: Process,
        dst: Process,
        label: str,
        definite: bool = True,
        obj: str | None = None,
        entry: str | None = None,
        slot: int | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.label = label
        self.definite = definite
        #: ``alps_name`` of the object involved, if the wait is an entry
        #: call or a manager-side await; None for join/par edges.
        self.obj = obj
        self.entry = entry
        self.slot = slot

    def describe(self) -> str:
        return f"{self.src.name} --[{self.label}]--> {self.dst.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WaitEdge {self.describe()}>"


class PoolReport:
    """A hidden procedure array with callers queued behind full slots."""

    __slots__ = ("obj", "entry", "array_size", "waiting", "holders")

    def __init__(
        self,
        obj: str,
        entry: str,
        array_size: int,
        waiting: int,
        holders: list[str],
    ) -> None:
        self.obj = obj
        self.entry = entry
        self.array_size = array_size
        #: Calls queued with no free slot to attach to.
        self.waiting = waiting
        #: ``"entry[slot]=state"`` descriptions of the occupying calls.
        self.holders = holders

    def describe(self) -> str:
        return (
            f"{self.obj}.{self.entry}[1..{self.array_size}] exhausted: "
            f"{self.waiting} caller(s) queued behind "
            f"{', '.join(self.holders) or 'nothing'}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PoolReport {self.describe()}>"


class WaitForSnapshot:
    """The wait-for graph at one instant, attached to ``DeadlockError``."""

    def __init__(
        self,
        time: int,
        processes: list[Process],
        edges: list[WaitEdge],
        pools: list[PoolReport],
    ) -> None:
        #: Virtual time the snapshot was taken.
        self.time = time
        #: Every blocked, alive process (daemons included — a manager in
        #: a cycle is the interesting node).
        self.processes = processes
        self.edges = edges
        #: Exhausted hidden procedure arrays (slots all held, calls queued).
        self.pools = pools

    # -- queries -----------------------------------------------------------

    def edges_from(self, proc: Process) -> list[WaitEdge]:
        return [e for e in self.edges if e.src is proc]

    def cycles(self, definite_only: bool = False) -> list[list[WaitEdge]]:
        """Circular waits, one edge-cycle per strongly connected component.

        Returns each cycle as the list of edges walked head-to-tail (the
        last edge returns to the first edge's source).  With
        ``definite_only`` edges that a pending timer could dissolve are
        excluded before searching.
        """
        edges = [e for e in self.edges if e.definite] if definite_only else self.edges
        successors: dict[Process, list[Process]] = {}
        for edge in edges:
            successors.setdefault(edge.src, []).append(edge.dst)
        return [
            walk_cycle(min(component, key=attrgetter("pid")), component, edges)
            for component in cyclic_components(successors)
        ]

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-safe form of the snapshot (names, not Process objects).

        This is the interchange format of the DOT exporter: dump it next
        to a failing run (``json.dump(err.wait_for.to_json(), fh)``) and
        render it later with ``python -m repro.analysis --dot FILE``.
        """
        return {
            "type": "wait_for",
            "time": self.time,
            "processes": [p.name for p in self.processes],
            "edges": [
                {
                    "src": e.src.name,
                    "dst": e.dst.name,
                    "label": e.label,
                    "definite": e.definite,
                    "obj": e.obj,
                    "entry": e.entry,
                    "slot": e.slot,
                }
                for e in self.edges
            ],
            "pools": [
                {
                    "obj": p.obj,
                    "entry": p.entry,
                    "array_size": p.array_size,
                    "waiting": p.waiting,
                    "holders": list(p.holders),
                }
                for p in self.pools
            ],
            "cycles": [
                [[e.src.name, e.dst.name] for e in cycle]
                for cycle in self.cycles()
            ],
        }

    def describe_cycles(self) -> str:
        """Multi-line rendering of every cycle (and exhausted pool)."""
        lines = []
        for cycle in self.cycles():
            lines.append("wait-for cycle: " + describe_cycle(cycle))
        for pool in self.pools:
            lines.append("exhausted pool: " + pool.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WaitForSnapshot t={self.time} "
            f"{len(self.processes)} blocked, {len(self.edges)} edges>"
        )


def strongly_connected(
    successors: Mapping[Hashable, Iterable[Hashable]],
) -> list[list]:
    """Strongly connected components of a directed graph (iterative Tarjan).

    ``successors`` maps a node to the nodes it points at; a node that
    only ever appears as a successor has none of its own.  Roots and
    successors are visited in insertion order and a component lists its
    members in stack-pop order, so the result is a pure function of how
    the mapping was built (``DeadlockError`` text and ALP120 findings are
    compared byte for byte).
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []

    def visit(node: Hashable) -> tuple:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(successors.get(node, ()))

    for root in successors:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in index:
                    work.append(visit(nxt))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    components.append(component)
    return components


def cyclic_components(
    successors: Mapping[Hashable, Iterable[Hashable]],
) -> list[list]:
    """The components that are cycles: several members, or one self-loop.

    The one definition of "is this a circular wait", for the runtime
    graph here and the static call graph (``repro.analysis``, ALP120).
    """
    return [
        component
        for component in strongly_connected(successors)
        if not (
            len(component) == 1
            and component[0] not in successors.get(component[0], ())
        )
    ]


def walk_cycle(start: Hashable, component: Iterable, edges: Iterable) -> list:
    """One edge cycle from ``start`` through its cyclic component.

    Of the ``edges`` (``src``/``dst`` nodes) inside the component, each
    step takes the one back to ``start``, else the first to an unvisited
    node, else the first; the prefix the walk never returns to is cut.
    The one walk for the runtime graph (started at the smallest pid) and
    the static call graph (ALP120, at the component's first node).
    """
    members = set(component)
    out: dict = {}
    for edge in edges:
        if edge.src in members and edge.dst in members:
            out.setdefault(edge.src, []).append(edge)
    walk: list = []
    seen: set = set()
    node = start
    while node not in seen:
        seen.add(node)
        options = out[node]  # a cyclic component leaves no member stuck
        chosen = next((e for e in options if e.dst == start), None)
        if chosen is None:
            chosen = next((e for e in options if e.dst not in seen), options[0])
        walk.append(chosen)
        node = chosen.dst
    if walk:
        closing = walk[-1].dst
        for i, edge in enumerate(walk):
            if edge.src == closing:
                return walk[i:]
    return walk


def describe_cycle(cycle: list, name: Callable[[Any], str] = attrgetter("name")) -> str:
    """``A --[label]--> B --[label]--> A``: the one notation of a wait
    cycle, ``DeadlockError``'s and ALP120's.  ``name`` names a node: a
    process's ``name`` here, ``Node.label`` in the call graph."""
    parts = [name(cycle[0].src)]
    parts.extend(f"--[{edge.label}]--> {name(edge.dst)}" for edge in cycle)
    return " ".join(parts)


def _call_target_edges(proc: Process, call: Any) -> Iterable[WaitEdge]:
    """Edges for a process blocked in an entry call (RPC semantics)."""
    from ..core.calls import CallState  # local import: kernel < core layering

    obj = call.obj
    obj_name = obj.alps_name
    slot_txt = f"[{call.slot}]" if call.slot is not None else ""
    label = f"call {obj_name}.{call.entry}{slot_txt}"
    definite = call.timeout is None
    manager = obj.manager_process

    if call.state == CallState.STARTED:
        body = call.body_process
        if body is not None and body.alive:
            yield WaitEdge(
                proc,
                body,
                label + " (body running)",
                definite,
                obj=obj_name,
                entry=call.entry,
                slot=call.slot,
            )
        else:
            # Started but no worker assigned: the body job is backlogged
            # behind a saturated server pool, so the caller waits on
            # every call holding a worker (without these edges a
            # recursion through a bounded pool deadlocks without the
            # graph ever closing the cycle).
            yield from _pool_backlog_edges(
                proc, call, label, definite, obj_name
            )
        return

    if call.state in (CallState.ATTACHED, CallState.ACCEPTED):
        phase = "awaiting accept" if call.state == CallState.ATTACHED else "awaiting start/finish"
    elif call.state in (CallState.BODY_DONE, CallState.AWAITED):
        phase = "awaiting finish"
    else:
        phase = "awaiting slot" if call.slot is None else "pending"

    if call.spec.intercepted and manager is not None and manager.alive:
        yield WaitEdge(
            proc,
            manager,
            f"{label} ({phase})",
            definite,
            obj=obj_name,
            entry=call.entry,
            slot=call.slot,
        )
    if call.slot is None:
        # Pool exhaustion: also wait on whoever holds the slots.
        for held in obj._entry_runtime(call.entry).slots:
            if held is None or held is call:
                continue
            holder = None
            if held.state == CallState.STARTED and held.body_process is not None:
                holder = held.body_process
            elif not call.spec.intercepted:
                holder = None  # unmanaged attached call: body imminent
            if holder is not None and holder.alive:
                yield WaitEdge(
                    proc,
                    holder,
                    f"{label} (slot {held.slot} held by call #{held.call_id})",
                    definite,
                    obj=obj_name,
                    entry=call.entry,
                    slot=held.slot,
                )
        yield from _pool_backlog_edges(proc, call, label, definite, obj_name)


def _pool_backlog_edges(
    proc: Process, call: Any, label: str, definite: bool, obj_name: str
) -> Iterable[WaitEdge]:
    """Edges for a call whose body job queues behind a saturated pool."""
    pool = call.obj._pool
    if not any(c is call for c in pool.queued_calls()):
        return
    for held in pool.active:
        body = held.body_process
        if body is not None and body.alive:
            yield WaitEdge(
                proc,
                body,
                f"{label} (worker held by call #{held.call_id})",
                definite,
                obj=obj_name,
                entry=call.entry,
                slot=held.slot,
            )


def build_wait_graph(kernel: "Kernel") -> WaitForSnapshot:
    """Snapshot the wait-for graph of every blocked process on ``kernel``."""
    blocked = [p for p in kernel.processes() if p.state == ProcessState.BLOCKED]
    edges: list[WaitEdge] = []
    for proc in blocked:
        record = proc.waiting_for
        if record is None:
            continue
        kind, payload = record
        if kind == "call":
            edges.extend(_call_target_edges(proc, payload))
        elif kind == "join":
            target = payload
            if target.alive:
                edges.append(WaitEdge(proc, target, f"join({target.name})"))
        elif kind == "par":
            for child in payload:
                if child.alive:
                    edges.append(WaitEdge(proc, child, f"par({child.name})"))
        elif kind == "select":
            # A select with a live Timeout guard will fire on its own;
            # edges derived from it are not definite.
            definite = not any(
                isinstance(g, Timeout) and not g._consumed for g in payload
            )
            for guard in payload:
                if guard.wait_targets is None:
                    continue
                runtime = guard.runtime
                for target in guard.wait_targets(kernel):
                    if target is not None and target.alive:
                        edges.append(
                            WaitEdge(
                                proc,
                                target,
                                guard.describe() + f" (body {target.name})",
                                definite,
                                obj=runtime.obj.alps_name,
                                entry=runtime.spec.name,
                            )
                        )
        # "send" and unknown kinds contribute no edges: a blocked channel
        # sender can be released by any future receiver.

    pools: list[PoolReport] = []
    for obj in kernel._alps_objects:  # registered AlpsObjects
        for runtime in obj._runtimes.values():
            if not runtime.waiting:
                continue
            if any(slot is None for slot in runtime.slots):
                continue  # free capacity exists; attachment is imminent
            pools.append(
                PoolReport(
                    obj.alps_name,
                    runtime.spec.name,
                    runtime.array_size,
                    len(runtime.waiting),
                    [
                        f"{runtime.spec.name}[{c.slot}]={c.state.value}"
                        for c in runtime.slots
                        if c is not None
                    ],
                )
            )

    return WaitForSnapshot(kernel.clock.now, blocked, edges, pools)
