"""Deterministic lightweight-process kernel (the paper's "ALPS kernel").

Public surface::

    from repro.kernel import Kernel, Spawn, Join, Delay, Charge, Select, Par

See :mod:`repro.kernel.kernel` for the scheduler itself.
"""

from .clock import VirtualClock
from .costs import DEFAULT, FREE, HEAVY_PROCESSES, CostModel
from .kernel import Kernel
from .process import (
    PRIORITY_BACKGROUND,
    PRIORITY_KERNEL,
    PRIORITY_MANAGER,
    PRIORITY_NORMAL,
    Process,
    ProcessState,
)
from .stats import KernelStats
from .syscalls import (
    Charge,
    Delay,
    Join,
    Kill,
    Now,
    Par,
    Select,
    SelectResult,
    Self,
    SetPriority,
    Spawn,
    Syscall,
    Yield,
)
from .timeouts import Timeout
from .tracing import Trace, TraceEvent
from .waiting import Guard, Ready, Waitable

__all__ = [
    "Kernel",
    "KernelStats",
    "VirtualClock",
    "CostModel",
    "DEFAULT",
    "FREE",
    "HEAVY_PROCESSES",
    "Process",
    "ProcessState",
    "PRIORITY_KERNEL",
    "PRIORITY_MANAGER",
    "PRIORITY_NORMAL",
    "PRIORITY_BACKGROUND",
    "Syscall",
    "Spawn",
    "Join",
    "Delay",
    "Charge",
    "Yield",
    "Now",
    "Self",
    "Kill",
    "SetPriority",
    "Select",
    "SelectResult",
    "Par",
    "Timeout",
    "Guard",
    "Ready",
    "Waitable",
    "Trace",
    "TraceEvent",
]
