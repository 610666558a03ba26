"""Server-process pool strategies (§3 Implementation Issues).

The paper discusses three ways to provide the process that executes a
started entry body:

* **dynamic** — create a (lightweight) process at ``start`` time; simple,
  but expensive "in many operating systems [where] dynamic process
  creation is expensive";
* **per-slot** — preallocate one process per element of the hidden
  procedure array ``P[1..N]`` when the object is created; the mapping
  between procedures and processes is one-to-one;
* **shared** — preallocate a pool of ``M << N`` processes and assign one
  to a call "at the time it is started rather than when the call arrives",
  attractive "for resources in high demand where the average queue length
  is significant".

The paper says "the programmer may be allowed to choose between these
alternative implementations using compiler switches"; here the switch is
the ``pool=`` argument to the object constructor.  Benchmark E6 sweeps the
strategies.

A worker is considered busy from ``start`` until the manager ``finish``es
the call ("both the finish P(...) and P terminate together", §2.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ObjectModelError
from ..kernel.process import PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from .calls import Call


@dataclass(frozen=True)
class PoolConfig:
    """The "compiler switch": which strategy an object uses for servers.

    ``mode`` is ``"dynamic"``, ``"per-slot"`` or ``"shared"``; ``size``
    is required for ``"shared"`` (the paper's ``M``); ``lightweight``
    selects the process-creation cost class charged for workers.
    """

    mode: str = "dynamic"
    size: int | None = None
    lightweight: bool = True
    priority: int = PRIORITY_NORMAL

    def __post_init__(self) -> None:
        if self.mode not in ("dynamic", "per-slot", "shared"):
            raise ObjectModelError(f"unknown pool mode {self.mode!r}")
        if self.mode == "shared" and (self.size is None or self.size < 1):
            raise ObjectModelError("shared pool requires size >= 1")


DYNAMIC = PoolConfig("dynamic")


class ServerPool:
    """Dispatches started calls onto server processes according to a strategy.

    ``dispatch(call)`` runs the call's body
    (:meth:`EntryRuntime.run_body <repro.core.runtime.EntryRuntime.run_body>`)
    on some process as soon as a worker is available; ``release(call)``
    marks the call's worker free again.  Calls queue FIFO when all workers
    are busy, which is exactly the §3 behaviour for the shared pool.
    """

    def __init__(self, kernel: "Kernel", name: str, config: PoolConfig, slots: int) -> None:
        self.kernel = kernel
        self.name = name
        self.config = config
        #: Total slots across all entry arrays (used by per-slot sizing).
        self.slots = slots
        if config.mode == "dynamic":
            self.capacity: int | None = None
        elif config.mode == "per-slot":
            self.capacity = slots
        else:
            self.capacity = config.size
        self._busy = 0
        self._backlog: deque["Call"] = deque()
        #: Calls currently holding a worker, in dispatch order — the
        #: wait-for graph names them when backlogged callers queue behind
        #: a saturated pool.
        self.active: list["Call"] = []
        #: Lifetime counters for benchmarks.
        self.queued_starts = 0
        self.max_busy = 0
        if self.capacity is not None:
            # Preallocation cost: the kernel charges creation for each
            # worker up front, reproducing the §3 startup-cost trade-off.
            cost = (
                kernel.costs.lwp_create
                if config.lightweight
                else kernel.costs.process_create
            )
            kernel.stats.spawns += self.capacity
            if config.lightweight:
                kernel.stats.lwp_spawns += self.capacity
            self.preallocation_cost = cost * self.capacity
        else:
            self.preallocation_cost = 0

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def backlog(self) -> int:
        return len(self._backlog)

    def dispatch(self, call: "Call") -> None:
        """Run the body of ``call`` now, or queue it until a worker frees."""
        if self.capacity is not None and self._busy >= self.capacity:
            self._backlog.append(call)
            self.queued_starts += 1
            return
        self._run(call)

    def _run(self, call: "Call") -> None:
        call.dispatched_at = self.kernel.clock.now
        self.active.append(call)
        self._busy += 1
        self.max_busy = max(self.max_busy, self._busy)
        name = f"{self.name}.{call.entry}[{call.slot}]#{call.call_id}"
        if self.capacity is None:
            # Dynamic creation: the per-start creation cost is charged on
            # the caller's behalf and delays the body's first dispatch
            # (§3: "dynamic process creation is expensive").
            proc = self.kernel.spawn(
                call.runtime.run_body,
                call,
                name=name,
                priority=self.config.priority,
                lightweight=self.config.lightweight,
                daemon=True,
                charge_to=call.caller,
            )
        else:
            # Preallocated workers were charged at pool construction;
            # dispatching onto one is free of creation cost.
            proc = self.kernel.spawn(
                call.runtime.run_body,
                call,
                name=name,
                priority=self.config.priority,
                lightweight=True,
                daemon=True,
            )
            self.kernel.stats.spawns -= 1  # reuse, not a new process
            self.kernel.stats.lwp_spawns -= 1
        # Server processes live where the object lives; a node crash must
        # take executing bodies down with it.
        proc.node = call.obj.node
        # Entry calls issued from inside the body (nested calls) parent
        # under this call's span; None whenever spans are disabled.
        proc.span = call.span
        # Nested calls inherit the remaining end-to-end budget: a body
        # serving a deadlined call cannot grant its callees more time
        # than its own caller has left (deadline propagation).
        proc.deadline_at = call.deadline_at
        call.body_process = proc

    def release(self, call: "Call") -> None:
        """The call finished; free its worker and start a queued job."""
        self._busy -= 1
        try:
            self.active.remove(call)
        except ValueError:
            pass  # crash recovery may have reset the roster already
        if self._backlog and (self.capacity is None or self._busy < self.capacity):
            self._run(self._backlog.popleft())

    def queued_calls(self) -> list["Call"]:
        """Calls backlogged behind a saturated pool, FIFO order."""
        return list(self._backlog)

    def reset(self) -> None:
        """Drop all busy/queued state (crash recovery)."""
        self._busy = 0
        self._backlog.clear()
        self.active.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServerPool {self.name} mode={self.config.mode} "
            f"busy={self._busy}/{self.capacity} backlog={len(self._backlog)}>"
        )
