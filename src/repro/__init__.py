"""repro — a reproduction of *Synchronization and Scheduling in ALPS
Objects* (Vishnubhotla, ICDCS 1988).

The package implements the ALPS concurrent-object model as an embedded
Python DSL on a deterministic virtual-time kernel:

* :mod:`repro.kernel` — lightweight processes, priority scheduling,
  virtual time, ``select`` with guards;
* :mod:`repro.channels` — asynchronous typed point-to-point channels;
* :mod:`repro.core` — ALPS objects, managers (``accept``/``start``/
  ``await``/``finish``), hidden procedure arrays, hidden parameters and
  results, request combining, server-process pools;
* :mod:`repro.baselines` — semaphores, monitors, serializers, path
  expressions and Ada-style rendezvous on the same kernel, for the
  comparisons the paper draws in §1;
* :mod:`repro.net` — a simulated multi-node network (including the 4×4
  transputer grid of §4) with remote entry calls;
* :mod:`repro.faults` — deterministic fault injection (crashes, partitions,
  message loss) with detection and recovery combinators;
* :mod:`repro.replication` — primary/backup replicated objects with
  automatic failover, promotion and catch-up;
* :mod:`repro.stdlib` — the paper's example objects, ready to use;
* :mod:`repro.workloads` — arrival processes and popularity distributions
  for the benchmark harness.

Quickstart::

    from repro import Kernel, AlpsObject, entry, manager_process, Select
    from repro.core import AcceptGuard

    class Cell(AlpsObject):
        @entry
        def put(self, value):
            self.value = value

        @entry(returns=1)
        def get(self):
            return self.value

        @manager_process(intercepts=["put", "get"])
        def mgr(self):
            full = False
            while True:
                result = yield Select(
                    AcceptGuard(self, "put", when=lambda v: not full),
                    AcceptGuard(self, "get") if full else WhenGuard(False),
                )
                yield from self.execute(result.value)
                full = result.value.entry == "put"

See ``examples/quickstart.py`` for a complete runnable program.
"""

from .channels import Channel, Mailbox, Receive, ReceiveGuard, Send, TryReceive
from .core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Call,
    CallState,
    Combiner,
    Finish,
    Intercept,
    PoolConfig,
    Reject,
    ShedGuard,
    Start,
    WhenGuard,
    accept,
    await_call,
    entry,
    execute_call,
    icpt,
    local,
    manager_process,
    par_range,
)
from .errors import (
    AdmissionError,
    AlpsError,
    CallError,
    ChannelError,
    DeadlockError,
    GuardExhaustedError,
    InterceptError,
    NetworkError,
    ObjectModelError,
    ProtocolError,
    RemoteCallError,
    ReplicationError,
    SelectError,
)
from .faults import (
    ExponentialBackoff,
    FaultPlan,
    FixedBackoff,
    Heartbeat,
    RetryPolicy,
    retry,
)
from .faults import install as install_faults
from .replication import Replicated, place_replicated
from .kernel import (
    Charge,
    CostModel,
    Delay,
    Join,
    Kernel,
    Now,
    Par,
    Select,
    SelectResult,
    Spawn,
    Timeout,
    Yield,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # kernel
    "Kernel",
    "CostModel",
    "Spawn",
    "Join",
    "Delay",
    "Charge",
    "Yield",
    "Now",
    "Select",
    "SelectResult",
    "Par",
    "Timeout",
    # channels
    "Channel",
    "Send",
    "Receive",
    "TryReceive",
    "ReceiveGuard",
    "Mailbox",
    # core
    "AlpsObject",
    "entry",
    "local",
    "icpt",
    "Intercept",
    "manager_process",
    "Call",
    "CallState",
    "AcceptGuard",
    "AwaitGuard",
    "WhenGuard",
    "Start",
    "Finish",
    "Reject",
    "ShedGuard",
    "accept",
    "await_call",
    "execute_call",
    "Combiner",
    "PoolConfig",
    "par_range",
    # faults
    "FaultPlan",
    "install_faults",
    "retry",
    "RetryPolicy",
    "FixedBackoff",
    "ExponentialBackoff",
    "Heartbeat",
    # replication
    "Replicated",
    "place_replicated",
    # errors
    "AdmissionError",
    "AlpsError",
    "DeadlockError",
    "GuardExhaustedError",
    "SelectError",
    "ChannelError",
    "CallError",
    "ObjectModelError",
    "InterceptError",
    "ProtocolError",
    "NetworkError",
    "RemoteCallError",
    "ReplicationError",
]
