"""repro.faults — deterministic fault injection and recovery.

Three layers over the ALPS substrate:

* **injection** — :class:`FaultPlan` scripts node crashes/restarts, link
  and partition faults, message loss/duplication/jitter and slow CPUs;
  :func:`install` wires the plan into a kernel+network pair;
* **detection** — crashed targets fail pending callers with
  :class:`~repro.errors.RemoteCallError` after ``detection_delay``; timed
  entry calls (``yield obj.p(args, timeout=n)``) bound any single call;
  :class:`Heartbeat`/:class:`Beacon` give application-level liveness;
* **recovery** — :func:`retry` with :class:`FixedBackoff` /
  :class:`ExponentialBackoff` policies, bounded in aggregate by
  :class:`RetryBudget` (token bucket shared per caller/object pair, see
  :func:`shared_budget`) and :class:`CircuitBreaker` (deterministic
  closed/open/half-open), and (in ``repro.stdlib``) the ``Supervisor``
  object that restarts crashed objects and re-queues interrupted calls.

Same seed + same plan ⇒ same faults at the same ticks ⇒ the same
interleaving — fault scenarios are as replayable as fault-free runs.
"""

from .detect import Beacon, Heartbeat
from .plan import (
    FaultPlan,
    LinkFault,
    MessageRule,
    NodeCrash,
    PartitionFault,
    SlowCpu,
)
from .retry import (
    CircuitBreaker,
    ExponentialBackoff,
    FixedBackoff,
    RetryBudget,
    RetryPolicy,
    retry,
    shared_budget,
)
from .runtime import FaultRuntime, install

__all__ = [
    "FaultPlan",
    "NodeCrash",
    "LinkFault",
    "PartitionFault",
    "SlowCpu",
    "MessageRule",
    "FaultRuntime",
    "install",
    "retry",
    "RetryPolicy",
    "FixedBackoff",
    "ExponentialBackoff",
    "RetryBudget",
    "CircuitBreaker",
    "shared_budget",
    "Beacon",
    "Heartbeat",
]
