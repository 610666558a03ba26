"""Simulated multi-node network.

The paper targets distributed systems: "Calls to the entry procedures of
an object are implemented as remote procedure calls" (§1) and "The ALPS
kernel is currently being implemented in C on a 16-node transputer
network" (§4).  We model the machine as a graph of nodes joined by links
with integer latencies.  Placing an object on a node makes calls from
processes on other nodes pay the (shortest-path) request and response
latency; message passing to channels homed on a node pays the same.

Routing is static shortest-path (computed by Dijkstra at first use and
cached; topology changes invalidate the cache).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process


class Node:
    """One machine in the simulated network."""

    def __init__(self, network: "Network", name: str, cpus: int | None = None) -> None:
        self.network = network
        self.name = name
        #: Objects placed here (name → object), for diagnostics.
        self.objects: dict[str, Any] = {}
        #: Declared CPU count; None inherits the kernel-wide default
        #: machine.  A count gives this node its own scheduling domain
        #: (:mod:`repro.kernel.sched`): processes homed here contend on
        #: node-local per-CPU runqueues, and load never balances across
        #: nodes — they are separate machines.
        self.cpus = cpus

    def spawn(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> "Process":
        """Spawn a process whose home is this node."""
        proc = self.network.kernel.spawn(fn, *args, **kwargs)
        proc.node = self
        return proc

    def place(self, obj: Any) -> Any:
        """Place an ALPS object (or channel) on this node; returns it."""
        obj.node = self
        name = getattr(obj, "alps_name", None) or getattr(obj, "name", repr(obj))
        self.objects[name] = obj
        # The object's manager lives on this node too: a node crash must
        # take it down together with the placed object.
        manager = getattr(obj, "manager_process", None)
        if manager is not None:
            manager.node = self
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name}>"


class Network:
    """A weighted graph of :class:`Node` objects with latency queries."""

    def __init__(self, kernel: "Kernel", name: str = "net") -> None:
        self.kernel = kernel
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: dict[str, dict[str, int]] = {}
        self._routes: dict[str, dict[str, int]] | None = None
        self._routes_epoch = -1
        #: Fault injector, if installed (:func:`repro.faults.install`).
        #: Downed links/nodes are subtracted from the routed topology.
        self.faults: Any = None
        #: Total messages × hops carried (benchmark metric).  The hot
        #: path updates this plain attribute; the registry reads it
        #: lazily through a callback-backed gauge at snapshot time.
        self.traffic = 0
        kernel.metrics.gauge(
            f"net.{name}.traffic", "Messages × hops carried",
            fn=lambda: self.traffic,
        )

    # -- topology ---------------------------------------------------------

    def add_node(self, name: str, cpus: int | None = None) -> Node:
        """Add a node; ``cpus`` gives it a node-local scheduling domain."""
        if name in self._nodes:
            raise NetworkError(f"duplicate node {name!r}")
        node = Node(self, name, cpus=cpus)
        if cpus is not None:
            # Registration is keyed by node name kernel-wide, so a CPU
            # count may be declared once per name even across networks.
            self.kernel.cpu_scheduler.add_domain(name, cpus)
        self._nodes[name] = node
        self._links[name] = {}
        self._routes = None
        return node

    def connect(self, a: Node | str, b: Node | str, latency: int = 1) -> None:
        """Add a bidirectional link of the given latency."""
        name_a = a.name if isinstance(a, Node) else a
        name_b = b.name if isinstance(b, Node) else b
        if name_a not in self._nodes or name_b not in self._nodes:
            raise NetworkError(f"unknown node in connect({name_a!r}, {name_b!r})")
        if name_a == name_b:
            raise NetworkError(f"cannot link {name_a!r} to itself")
        if latency < 0:
            raise NetworkError(f"latency must be >= 0, got {latency}")
        self._links[name_a][name_b] = latency
        self._links[name_b][name_a] = latency
        self._routes = None

    def node(self, name: str) -> Node:
        node = self._nodes.get(name)
        if node is None:
            raise NetworkError(f"unknown node {name!r}")
        return node

    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    # -- routing ------------------------------------------------------------

    def _dijkstra(self, links: dict[str, dict[str, int]], source: str) -> dict[str, int]:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for v, w in links.get(u, {}).items():
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def _ensure_routes(self) -> dict[str, dict[str, int]]:
        epoch = 0 if self.faults is None else self.faults.epoch
        if self._routes is None or epoch != self._routes_epoch:
            links = self._links
            if self.faults is not None:
                links = self.faults.filter_links(links)
            self._routes = {name: self._dijkstra(links, name) for name in self._nodes}
            self._routes_epoch = epoch
        return self._routes

    def latency_or_none(self, a: Node | str, b: Node | str, size: int = 1) -> int | None:
        """Like :meth:`latency`, but None instead of raising on no route.

        What the wire asks (:mod:`repro.net.wire`): under a fault injector
        an unreachable destination is a partition, not an API misuse.
        """
        name_a = a.name if isinstance(a, Node) else a
        name_b = b.name if isinstance(b, Node) else b
        if name_a == name_b:
            return 0
        routes = self._ensure_routes()
        dist = routes[name_a].get(name_b)
        if dist is None:
            return None
        self.traffic += dist
        return dist * max(1, size)

    def latency(self, a: Node | str, b: Node | str, size: int = 1) -> int:
        """Shortest-path latency between two nodes (0 for co-located).

        ``size`` scales the cost linearly: a message of ``size`` units
        takes ``size × path_latency`` — the simple store-and-forward model
        appropriate for transputer links.
        """
        result = self.latency_or_none(a, b, size=size)
        if result is None:
            name_a = a.name if isinstance(a, Node) else a
            name_b = b.name if isinstance(b, Node) else b
            raise NetworkError(f"no route from {name_a!r} to {name_b!r}")
        return result

    def diameter(self) -> int:
        """Largest shortest-path latency between any two nodes."""
        routes = self._ensure_routes()
        best = 0
        for src, dists in routes.items():
            for dst, d in dists.items():
                if dst != src:
                    best = max(best, d)
        return best
