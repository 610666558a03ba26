"""The ALPS object model: managers, hidden procedure arrays, call protocol."""

from .admission import (
    ACCEPT_PRI,
    AWAIT_PRI,
    SHED_PRI,
    SHED_PRI_ALWAYS,
    SWEEP_PRI,
    DeadlineSweepGuard,
    PredictedWaitGuard,
    ShedGuard,
)
from .calls import Call, CallState
from .combining import Combiner
from .entry import EntrySpec, Intercept, ObjectDefinition, entry, icpt, local
from .manager import ManagerSpec, manager_process
from .monitoring import (
    LatencySummary,
    max_overlap,
    queue_times,
    response_times,
    summarize,
    throughput,
)
from .object_model import AlpsObject, BoundEntry
from .pool import DYNAMIC, PoolConfig, ServerPool
from .primitives import (
    AcceptGuard,
    AwaitGuard,
    EntryCall,
    Finish,
    Reject,
    Start,
    WhenGuard,
    accept,
    await_call,
    execute_call,
)
from .select import loop, par_range

__all__ = [
    "AlpsObject",
    "BoundEntry",
    "entry",
    "local",
    "icpt",
    "Intercept",
    "EntrySpec",
    "ObjectDefinition",
    "manager_process",
    "ManagerSpec",
    "Call",
    "CallState",
    "EntryCall",
    "AcceptGuard",
    "AwaitGuard",
    "WhenGuard",
    "ShedGuard",
    "DeadlineSweepGuard",
    "PredictedWaitGuard",
    "Start",
    "Finish",
    "Reject",
    "AWAIT_PRI",
    "SWEEP_PRI",
    "SHED_PRI",
    "ACCEPT_PRI",
    "SHED_PRI_ALWAYS",
    "accept",
    "await_call",
    "execute_call",
    "Combiner",
    "PoolConfig",
    "ServerPool",
    "DYNAMIC",
    "par_range",
    "loop",
    "LatencySummary",
    "summarize",
    "response_times",
    "queue_times",
    "throughput",
    "max_overlap",
]
