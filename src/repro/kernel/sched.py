"""SMP virtual machine: per-CPU runqueues, scheduling classes, balancing.

The kernel models a machine of M virtual CPUs grouped into node-local
*scheduling domains* (one per :class:`repro.net.network.Node` that
declares ``cpus=``, plus the kernel-wide default domain from
``Kernel(num_cpus=...)``).  Each CPU dispatches independently in virtual
time; simulated work (``Charge``, creation costs, guard-poll charges)
becomes a *grant* on some CPU of the issuing process's domain.

Two scheduling classes, in the KOS/Linux shape adapted to a
discrete-event world where grants are non-preemptive:

* **strict class** (priority < ``PRIORITY_NORMAL``) — the paper's
  manager priority: ordered by ``(priority, seq)`` and always granted
  before fair work when a CPU frees ("preempt-at-grant"), so a manager's
  synchronization steps overtake queued entry bodies (§1, §3);
* **fair class** (priority >= ``PRIORITY_NORMAL``) — CFS-style: ordered
  by per-process virtual runtime, which advances with granted work
  scaled by priority, so entry bodies and pool servers share CPUs
  proportionally.  The heap key is the fully deterministic tie-break
  ``(vruntime, node, cpu, pid, seq)``.

Work conservation: a submission starts immediately when any CPU of the
domain is free; a CPU that finishes takes from its own runqueues first
and otherwise *steals* the front item of the most-loaded sibling, so no
CPU idles while its domain has queued work.  A periodic balancer
(armed only while work is queued, cancelled through the kernel's
cancel-dict so it never inflates the simulation end time) equalizes
runqueue depths within a domain.  Load never moves between domains:
nodes are separate machines.

Determinism rules (load-bearing — the trace differ and the committed
fixtures pin them):

* a **single-CPU domain has its own path: one ``(priority, seq)`` heap
  for all classes** (``_submit_strict``/``_start_strict``), because it
  is measurably cheaper, not because it is older: with one CPU as the
  degenerate case of the general grant path, ``chan_timer`` (nearly
  every grant queues) cost +9.1% ``pyops_per_op`` merged straight and
  +7.9% leaned out, against a 3% bound (DESIGN.md §13).  ``submit``
  selects on ``count``; ``chan_timer`` and ``pool_smp`` benchmark one
  side each, and ``tests/fixtures/smp`` pins the one-CPU trace bytes;
* every choice (CPU pick, steal victim, balance move) breaks ties by
  the lowest CPU index and the deterministic heap keys above, never by
  iteration order of a set or dict;
* observability annotations (``cpu=`` span tags, ``migrate`` instants)
  are emitted only in multi-CPU domains and only while ``kernel.obs``
  is enabled, preserving the zero-cost contract and single-CPU trace
  bytes.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable

from ..errors import KernelError
from .process import PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import Process

#: How often (virtual ticks) a domain's balancer re-equalizes runqueue
#: depths while work is queued.  0 disables periodic balancing (idle
#: steal alone already keeps domains work-conserving).
DEFAULT_BALANCE_PERIOD = 50


class _Work:
    """One pending CPU grant: a duration and a completion action."""

    __slots__ = ("proc", "priority", "duration", "action", "seq", "vruntime")

    def __init__(
        self,
        proc: "Process | None",
        priority: int,
        duration: int,
        action: Callable[[], None],
        seq: int,
    ) -> None:
        self.proc = proc
        self.priority = priority
        self.duration = duration
        self.action = action
        self.seq = seq
        #: Normalized virtual runtime at enqueue (fair class only).
        self.vruntime = 0


class _Cpu:
    """One virtual CPU: busy flag, runqueues, accounting."""

    __slots__ = (
        "index",
        "key",
        "free",
        "rt",
        "fair",
        "queued_ticks",
        "busy_ticks",
        "fair_clock",
    )

    def __init__(self, index: int, key: str) -> None:
        self.index = index
        #: Stats key (``cpu0`` / ``<node>.cpu0``) under ``stats.cpu``.
        self.key = key
        self.free = True
        #: Strict-class runqueue: heap of ``((priority, seq), work)``.
        self.rt: list[tuple[tuple, _Work]] = []
        #: Fair-class runqueue: heap of
        #: ``((vruntime, node, cpu, pid, seq), work)``.
        self.fair: list[tuple[tuple, _Work]] = []
        #: Total duration of queued (not yet granted) work.
        self.queued_ticks = 0
        #: Total ticks granted on this CPU (utilization accounting).
        self.busy_ticks = 0
        #: Monotone floor for fair vruntime normalization: new arrivals
        #: never sort before work this CPU has already dispatched past.
        self.fair_clock = 0

    @property
    def queue_len(self) -> int:
        return len(self.rt) + len(self.fair)


class SchedDomain:
    """A node-local group of CPUs sharing runqueues, steal and balancing.

    ``name`` is ``""`` for the kernel-wide default domain and the node
    name for per-node domains.  Load never crosses domains.
    """

    __slots__ = (
        "kernel",
        "name",
        "count",
        "cpus",
        "_free",
        "_seq",
        "_waiting",
        "peak_queue",
        "balance_period",
        "_balance_cancel",
    )

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        count: int,
        balance_period: int = DEFAULT_BALANCE_PERIOD,
    ) -> None:
        if count < 1:
            raise KernelError(f"domain {name!r}: cpu count must be >= 1, got {count}")
        self.kernel = kernel
        self.name = name
        self.count = count
        prefix = f"{name}." if name else ""
        self.cpus = [_Cpu(i, f"{prefix}cpu{i}") for i in range(count)]
        self._free = count
        self._seq = 0
        #: Single-CPU (strict) domain runqueue: ``(priority, seq,
        #: duration, action)`` — no ``_Work`` record, CPU pick or class
        #: choice per grant (module docstring has the measured cost).
        self._waiting: list[tuple[int, int, int, Callable[[], None]]] = []
        self.peak_queue = 0
        self.balance_period = balance_period
        self._balance_cancel: dict | None = None
        util_name = f"cpu.{name}.util" if name else "cpu.util"
        kernel.metrics.gauge(
            util_name,
            "Fraction of this scheduling domain's CPU capacity in use",
            fn=self.utilization_now,
        )

    # -- shared accounting ----------------------------------------------

    @property
    def queued(self) -> int:
        """Grants waiting for a CPU (all runqueues of the domain)."""
        if self.count == 1:
            return len(self._waiting)
        return sum(cpu.queue_len for cpu in self.cpus)

    @property
    def busy_ticks(self) -> int:
        return sum(cpu.busy_ticks for cpu in self.cpus)

    def utilization(self, elapsed: int) -> float:
        """Fraction of the domain's CPU capacity used over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_ticks / (elapsed * self.count)

    def utilization_now(self) -> float:
        """Gauge callback: utilization over the elapsed virtual time."""
        return round(self.utilization(self.kernel.clock.now), 4)

    def _account(self, cpu: _Cpu, duration: int) -> None:
        cpu.busy_ticks += duration
        self.kernel.stats.cpu[cpu.key] = cpu.busy_ticks

    # -- submission ------------------------------------------------------

    def submit(
        self,
        proc: "Process | None",
        priority: int,
        duration: int,
        action: Callable[[], None],
    ) -> None:
        """Grant ``duration`` ticks of CPU, then call ``action()``."""
        if duration <= 0:
            action()
            return
        if self.count == 1:
            self._submit_strict(priority, duration, action)
        else:
            self._submit_smp(proc, priority, duration, action)

    # -- single-CPU domain: the strict path ------------------------------
    #
    # Pinned call for call by tests/fixtures/smp/trace_e1_cpus1.json:
    # start if the CPU is free, else queue by (priority, seq); on finish,
    # free the CPU, start the best queued grant, then run the action.

    def _submit_strict(
        self, priority: int, duration: int, action: Callable[[], None]
    ) -> None:
        if self._free > 0:
            self._start_strict(duration, action)
        else:
            self._seq += 1
            heapq.heappush(self._waiting, (priority, self._seq, duration, action))
            self.peak_queue = max(self.peak_queue, len(self._waiting))

    def _start_strict(self, duration: int, action: Callable[[], None]) -> None:
        self._free -= 1
        cpu = self.cpus[0]
        self._account(cpu, duration)
        end = self.kernel.clock.now + duration

        def finish() -> None:
            self._free += 1
            if self._waiting:
                _prio, _seq, next_duration, next_action = heapq.heappop(self._waiting)
                self._start_strict(next_duration, next_action)
            action()

        self.kernel.post(end, finish)

    # -- multi-CPU domain: per-CPU runqueues + classes -------------------

    def _submit_smp(
        self,
        proc: "Process | None",
        priority: int,
        duration: int,
        action: Callable[[], None],
    ) -> None:
        self._seq += 1
        work = _Work(proc, priority, duration, action, self._seq)
        cpu = self._pick_free(proc)
        if cpu is not None:
            self._start_smp(cpu, work)
            return
        target = min(self.cpus, key=lambda c: (c.queued_ticks, c.index))
        self._enqueue(target, work)
        self.peak_queue = max(self.peak_queue, self.queued)
        self._arm_balancer()

    def _pick_free(self, proc: "Process | None") -> _Cpu | None:
        """The CPU a new grant starts on: last-used if free, else lowest."""
        if proc is not None and proc.last_cpu is not None:
            name, index = proc.last_cpu
            if name == self.name and index < self.count and self.cpus[index].free:
                return self.cpus[index]
        for cpu in self.cpus:
            if cpu.free:
                return cpu
        return None

    def _fair_key(self, cpu: _Cpu, work: _Work) -> tuple:
        pid = work.proc.pid if work.proc is not None else 0
        return (work.vruntime, self.name, cpu.index, pid, work.seq)

    def _enqueue(self, cpu: _Cpu, work: _Work) -> None:
        if work.priority < PRIORITY_NORMAL:
            heapq.heappush(cpu.rt, ((work.priority, work.seq), work))
        else:
            base = work.proc.vruntime if work.proc is not None else 0
            work.vruntime = max(base, cpu.fair_clock)
            heapq.heappush(cpu.fair, (self._fair_key(cpu, work), work))
        cpu.queued_ticks += work.duration

    def _start_smp(self, cpu: _Cpu, work: _Work) -> None:
        cpu.free = False
        self._account(cpu, work.duration)
        kernel = self.kernel
        proc = work.proc
        if proc is not None:
            here = (self.name, cpu.index)
            prev = proc.last_cpu
            if prev is not None and prev != here:
                kernel.stats.migrations += 1
                if kernel.obs.enabled:
                    kernel.obs.instant(
                        "migrate",
                        process=proc.name,
                        frm=f"{prev[0] or 'cpu'}/{prev[1]}",
                        to=f"{self.name or 'cpu'}/{cpu.index}",
                    )
            proc.last_cpu = here
            if work.priority >= PRIORITY_NORMAL:
                vruntime = max(proc.vruntime, cpu.fair_clock)
                cpu.fair_clock = vruntime
                # Priority scales the charge: background work (priority
                # 1000) ages 10x faster than normal work, so it yields
                # the CPU to peers with smaller vruntime.
                proc.vruntime = (
                    vruntime + work.duration * work.priority // PRIORITY_NORMAL
                )
            if kernel.obs.enabled and proc.span is not None:
                proc.span.attrs["cpu"] = f"{self.name or 'cpu'}/{cpu.index}"
        end = kernel.clock.now + work.duration
        action = work.action

        def finish() -> None:
            cpu.free = True
            next_work = self._next_work(cpu)
            if next_work is not None:
                self._start_smp(cpu, next_work)
            if self.queued == 0:
                # Cancelled events are dropped before the clock advances,
                # so a drained domain never inflates the simulation end.
                self._cancel_balancer()
            action()

        kernel.post(end, finish)

    def _pop_front(self, cpu: _Cpu) -> _Work | None:
        """Best queued grant of one CPU: strict class first, then fair."""
        if cpu.rt:
            work = heapq.heappop(cpu.rt)[1]
        elif cpu.fair:
            work = heapq.heappop(cpu.fair)[1]
        else:
            return None
        cpu.queued_ticks -= work.duration
        return work

    def _next_work(self, cpu: _Cpu) -> _Work | None:
        """What a freshly freed CPU runs next: own queue, else steal."""
        work = self._pop_front(cpu)
        if work is not None:
            return work
        victim = None
        for other in self.cpus:
            if other is cpu or not other.queue_len:
                continue
            if victim is None or (other.queued_ticks, -other.index) > (
                victim.queued_ticks,
                -victim.index,
            ):
                victim = other
        if victim is None:
            return None
        work = self._pop_front(victim)
        self.kernel.stats.steals += 1
        return work

    # -- periodic balancing ----------------------------------------------

    def _arm_balancer(self) -> None:
        if self.balance_period <= 0 or self._balance_cancel is not None:
            return
        cancel = {"cancelled": False}
        self._balance_cancel = cancel
        self.kernel.post(
            self.kernel.clock.now + self.balance_period, self._balance, cancel=cancel
        )

    def _cancel_balancer(self) -> None:
        if self._balance_cancel is not None:
            self._balance_cancel["cancelled"] = True
            self._balance_cancel = None

    def _balance(self) -> None:
        self._balance_cancel = None
        if self.queued == 0:
            return
        self.kernel.stats.balance_runs += 1
        while True:
            busiest = max(self.cpus, key=lambda c: (c.queue_len, -c.index))
            idlest = min(self.cpus, key=lambda c: (c.queue_len, c.index))
            if busiest.queue_len - idlest.queue_len <= 1:
                break
            moved = self._pop_front(busiest)
            if moved is None:  # pragma: no cover - queue_len guards this
                break
            self._enqueue(idlest, moved)
        if self.queued:
            self._arm_balancer()


class SmpScheduler:
    """All scheduling domains of one kernel, keyed by node name.

    The default domain (``""``) models ``Kernel(num_cpus=N)``; nodes
    that declare ``cpus=`` get their own.  ``domain_of`` routes a
    process's CPU grants: node domain when its home node has one, the
    default domain otherwise; ``None`` means the unbounded machine (the
    kernel posts the work's end directly: pure latency, no contention).
    """

    __slots__ = ("kernel", "domains", "default", "balance_period")

    def __init__(
        self,
        kernel: "Kernel",
        default_cpus: int | None,
        balance_period: int = DEFAULT_BALANCE_PERIOD,
    ) -> None:
        self.kernel = kernel
        self.balance_period = balance_period
        self.domains: dict[str, SchedDomain] = {}
        self.default: SchedDomain | None = (
            None if default_cpus is None else self.add_domain("", default_cpus)
        )

    def add_domain(self, name: str, count: int) -> SchedDomain:
        """Register a scheduling domain (idempotence is an error)."""
        if name in self.domains:
            raise KernelError(f"scheduling domain {name!r} already exists")
        domain = SchedDomain(self.kernel, name, count, self.balance_period)
        self.domains[name] = domain
        return domain

    def domain_of(self, proc: "Process | None") -> SchedDomain | None:
        """The domain whose CPUs serve ``proc``'s grants."""
        if proc is not None and proc.node is not None:
            domain = self.domains.get(getattr(proc.node, "name", ""))
            if domain is not None:
                return domain
        return self.default

    def domain(self, name: str) -> SchedDomain | None:
        return self.domains.get(name)

    def queue_depth(self, node: Any = None) -> int:
        """Queued grants in the domain serving ``node`` (admission input)."""
        domain = None
        if node is not None:
            domain = self.domains.get(getattr(node, "name", node))
        if domain is None:
            domain = self.default
        return 0 if domain is None else domain.queued

    # -- kernel-facing aggregates ---------------------------------------

    @property
    def queued(self) -> int:
        return sum(d.queued for d in self.domains.values())

    @property
    def peak_queue(self) -> int:
        return max((d.peak_queue for d in self.domains.values()), default=0)

    @property
    def busy_ticks(self) -> int:
        return sum(d.busy_ticks for d in self.domains.values())

    def utilization(self, elapsed: int) -> float:
        """Capacity-weighted utilization across every finite domain."""
        total_cpus = sum(d.count for d in self.domains.values())
        if elapsed <= 0 or total_cpus == 0:
            return 0.0
        return self.busy_ticks / (elapsed * total_cpus)
