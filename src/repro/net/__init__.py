"""Simulated distributed substrate: nodes, topologies, remote calls (§1, §4)."""

from .network import Network, Node
from .placement import choose_nodes, node_load
from .rpc import NetChannel, NetSend
from .topologies import full_mesh, hypercube, ring, star, transputer_grid

__all__ = [
    "Network",
    "Node",
    "choose_nodes",
    "node_load",
    "NetChannel",
    "NetSend",
    "transputer_grid",
    "ring",
    "star",
    "full_mesh",
    "hypercube",
]
