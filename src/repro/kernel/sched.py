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

One grant path, one completion kind.  :meth:`SchedDomain.grant` is what
the kernel calls, always for a paying process and a process to step: the
grant's end is **one flat kernel record**
(:meth:`Kernel.post_release <repro.kernel.kernel.Kernel.post_release>`)
carrying the CPU's pre-built ``release`` hook and the process to step.
When it surfaces the run loop calls ``release`` — free the CPU or start
(or steal) the next queued grant, disarm a drained balancer: kernel
priority, ahead of every step at that instant — and then dispatches the
process by the same direct-vs-requeue rule as on the unbounded machine
(DESIGN.md §5.2).  What a domain counts it keeps as counters
(``queued``, ``_free``, per-CPU ``queued_ticks``), never as a scan of
its runqueues; ``tests/helpers.py`` checks counter == scan after every
kernel event.

Determinism rules (load-bearing — the trace differ and the committed
fixtures pin them):

* a **single-CPU domain has its own path: one ``(priority, seq)`` heap
  for all classes** (``_start_strict``/``_release_strict``), because it
  is measurably cheaper, not because it is older: with one CPU as the
  degenerate case of the general grant path, ``chan_timer`` (nearly
  every grant queues) cost +9.1% ``pyops_per_op`` merged straight and
  +7.9% leaned out, against a 3% bound (DESIGN.md §13).  ``grant``
  selects on ``count``; ``chan_timer`` and ``pool_smp`` benchmark one
  side each, and ``tests/fixtures/smp`` pins the trace bytes of both;
* every choice (CPU pick, steal victim, balance move) breaks ties by
  the lowest CPU index and the deterministic heap keys above, never by
  iteration order of a set or dict;
* observability annotations (``cpu=`` span tags, ``migrate`` instants)
  are emitted only in multi-CPU domains and only while ``kernel.obs``
  is enabled, preserving the zero-cost contract and single-CPU trace
  bytes.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable

from ..errors import KernelError
from .process import PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import Process

#: How often (virtual ticks) a domain's balancer re-equalizes runqueue
#: depths while work is queued.
BALANCE_PERIOD = 50


class _Work:
    """One queued CPU grant of a multi-CPU domain (:meth:`SchedDomain.grant`)."""

    __slots__ = ("proc", "priority", "duration", "target", "epoch", "seq")

    def __init__(
        self,
        proc: "Process",
        priority: int,
        duration: int,
        target: "Process",
        epoch: int,
        seq: int,
    ) -> None:
        self.proc = proc
        self.priority = priority
        self.duration = duration
        self.target = target
        self.epoch = epoch
        self.seq = seq


class _Cpu:
    """One virtual CPU: busy flag, runqueues, accounting."""

    __slots__ = (
        "index",
        "key",
        "here",
        "label",
        "release",
        "free",
        "rt",
        "fair",
        "queued_ticks",
        "busy_ticks",
        "fair_clock",
    )

    def __init__(self, domain: "SchedDomain", index: int) -> None:
        self.index = index
        prefix = f"{domain.name}." if domain.name else ""
        #: Stats key (``cpu0`` / ``<node>.cpu0``) under ``stats.cpu``.
        self.key = f"{prefix}cpu{index}"
        #: What ``Process.last_cpu`` holds after a grant here.
        self.here = (domain.name, index)
        #: ``cpu=`` span tag and ``migrate`` endpoint.
        self.label = f"{domain.name or 'cpu'}/{index}"
        #: Runs when a grant on this CPU ends: free it or start the next.
        self.release: Callable[[], None] = partial(
            domain._release_strict if domain.count == 1 else domain._release_smp,
            self,
        )
        self.free = True
        #: Strict-class runqueue: heap of ``((priority, seq), work)``.
        self.rt: list[tuple[tuple, _Work]] = []
        #: Fair-class runqueue: heap of
        #: ``((vruntime, node, cpu, pid, seq), work)``.
        self.fair: list[tuple[tuple, _Work]] = []
        #: Total duration of queued (not yet granted) work.  Durations
        #: are positive, so it is 0 exactly when both runqueues are empty.
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
        "queued",
        "_free",
        "_seq",
        "_waiting",
        "peak_queue",
        "_balance_cancel",
    )

    def __init__(self, kernel: "Kernel", name: str, count: int) -> None:
        if count < 1:
            raise KernelError(f"domain {name!r}: cpu count must be >= 1, got {count}")
        self.kernel = kernel
        self.name = name
        self.count = count
        self.cpus = [_Cpu(self, i) for i in range(count)]
        #: Grants waiting for a CPU (all runqueues of the domain).
        self.queued = 0
        #: CPUs with no grant running.
        self._free = count
        self._seq = 0
        #: Single-CPU (strict) domain runqueue: ``(priority, seq,
        #: duration, target, epoch)`` — no ``_Work`` record, CPU pick or
        #: class choice per grant (module docstring has the measured cost).
        self._waiting: list[tuple] = []
        self.peak_queue = 0
        self._balance_cancel: dict | None = None
        util_name = f"cpu.{name}.util" if name else "cpu.util"
        kernel.metrics.gauge(
            util_name,
            "Fraction of this scheduling domain's CPU capacity in use",
            fn=self.utilization_now,
        )

    # -- shared accounting ----------------------------------------------

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

    # -- submission ------------------------------------------------------

    def grant(
        self,
        proc: "Process",
        priority: int,
        duration: int,
        target: "Process",
        epoch: int,
    ) -> None:
        """Grant ``proc`` ``duration`` (> 0) ticks of CPU at ``priority``.

        The grant ends in one kernel record
        (:meth:`~repro.kernel.kernel.Kernel.post_release`): the CPU's
        release, then ``target`` is dispatched if its epoch is still
        ``epoch``.
        """
        if self.count == 1:
            if self._free:
                self._free = 0
                self._start_strict(self.cpus[0], duration, target, epoch)
            else:
                self._seq = seq = self._seq + 1
                heappush(self._waiting, (priority, seq, duration, target, epoch))
                self.queued = queued = self.queued + 1
                if queued > self.peak_queue:
                    self.peak_queue = queued
        elif self._free:
            cpu = self._pick_free(proc)
            cpu.free = False
            self._free -= 1
            self._start_smp(cpu, proc, priority, duration, target, epoch)
        else:
            self._seq = seq = self._seq + 1
            shallowest = min(self.cpus, key=lambda c: (c.queued_ticks, c.index))
            self._enqueue(
                shallowest, _Work(proc, priority, duration, target, epoch, seq)
            )
            if self.queued > self.peak_queue:
                self.peak_queue = self.queued
            self._arm_balancer()

    # -- single-CPU domain: the strict path ------------------------------
    #
    # Pinned call for call by tests/fixtures/smp/trace_e1_cpus1.json:
    # start if the CPU is free, else queue by (priority, seq); on release,
    # start the best queued grant, else free the CPU.

    def _start_strict(
        self, cpu: _Cpu, duration: int, target: "Process", epoch: int
    ) -> None:
        cpu.busy_ticks = busy = cpu.busy_ticks + duration
        kernel = self.kernel
        kernel.stats.cpu[cpu.key] = busy
        kernel.post_release(kernel.clock._now + duration, cpu.release, target, epoch)

    def _release_strict(self, cpu: _Cpu) -> None:
        if self._waiting:
            _prio, _seq, duration, target, epoch = heappop(self._waiting)
            self.queued -= 1
            self._start_strict(cpu, duration, target, epoch)
        else:
            self._free = 1

    # -- multi-CPU domain: per-CPU runqueues + classes -------------------

    def _pick_free(self, proc: "Process") -> _Cpu:
        """The CPU a new grant starts on: last-used if free, else lowest.

        Called only while ``_free`` says one is.
        """
        last = proc.last_cpu
        if last is not None and last[0] == self.name:
            cpu = self.cpus[last[1]]
            if cpu.free:
                return cpu
        for cpu in self.cpus:
            if cpu.free:
                return cpu
        raise KernelError(f"domain {self.name!r}: {self._free} CPUs free, none found")

    def _enqueue(self, cpu: _Cpu, work: _Work) -> None:
        if work.priority < PRIORITY_NORMAL:
            heappush(cpu.rt, ((work.priority, work.seq), work))
        else:
            # Fair key: virtual runtime normalized against the CPU's floor.
            proc = work.proc
            vruntime = cpu.fair_clock
            if proc.vruntime > vruntime:
                vruntime = proc.vruntime
            heappush(
                cpu.fair, ((vruntime, self.name, cpu.index, proc.pid, work.seq), work)
            )
        cpu.queued_ticks += work.duration
        self.queued += 1

    def _start_smp(
        self,
        cpu: _Cpu,
        proc: "Process",
        priority: int,
        duration: int,
        target: "Process",
        epoch: int,
    ) -> None:
        cpu.busy_ticks = busy = cpu.busy_ticks + duration
        kernel = self.kernel
        kernel.stats.cpu[cpu.key] = busy
        prev = proc.last_cpu
        if prev != cpu.here:
            if prev is not None:
                kernel.stats.migrations += 1
                if kernel.obs.enabled:
                    kernel.obs.instant(
                        "migrate",
                        process=proc.name,
                        frm=f"{prev[0] or 'cpu'}/{prev[1]}",
                        to=cpu.label,
                    )
            proc.last_cpu = cpu.here
        if priority >= PRIORITY_NORMAL:
            vruntime = proc.vruntime
            if cpu.fair_clock > vruntime:
                vruntime = cpu.fair_clock
            cpu.fair_clock = vruntime
            # Priority scales the charge: background work (priority
            # 1000) ages 10x faster than normal work, so it yields
            # the CPU to peers with smaller vruntime.
            proc.vruntime = vruntime + duration * priority // PRIORITY_NORMAL
        if kernel.obs.enabled and proc.span is not None:
            proc.span.attrs["cpu"] = cpu.label
        kernel.post_release(kernel.clock._now + duration, cpu.release, target, epoch)

    def _release_smp(self, cpu: _Cpu) -> None:
        if not self.queued:
            # Nothing to run or steal (so no balancer armed either).
            cpu.free = True
            self._free += 1
            return
        work = self._pop_front(cpu)
        if work is None:
            # Steal the front of the sibling with the most queued ticks
            # (lowest index on a tie); ``cpu`` itself has none.
            victim, most = cpu, 0
            for other in self.cpus:
                if other.queued_ticks > most:
                    victim, most = other, other.queued_ticks
            work = self._pop_front(victim)
            self.kernel.stats.steals += 1
        self._start_smp(
            cpu, work.proc, work.priority, work.duration, work.target, work.epoch
        )
        if not self.queued:
            # Cancelled events are dropped before the clock advances,
            # so a drained domain never inflates the simulation end.
            self._cancel_balancer()

    def _pop_front(self, cpu: _Cpu) -> _Work | None:
        """Best queued grant of one CPU: strict class first, then fair."""
        if cpu.rt:
            work = heappop(cpu.rt)[1]
        elif cpu.fair:
            work = heappop(cpu.fair)[1]
        else:
            return None
        cpu.queued_ticks -= work.duration
        self.queued -= 1
        return work

    # -- periodic balancing ----------------------------------------------

    def _arm_balancer(self) -> None:
        if self._balance_cancel is not None:
            return
        cancel = {"cancelled": False}
        self._balance_cancel = cancel
        self.kernel.post(
            self.kernel.clock.now + BALANCE_PERIOD, self._balance, cancel=cancel
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

    __slots__ = ("kernel", "domains", "default")

    def __init__(self, kernel: "Kernel", default_cpus: int | None) -> None:
        self.kernel = kernel
        self.domains: dict[str, SchedDomain] = {}
        self.default: SchedDomain | None = (
            None if default_cpus is None else self.add_domain("", default_cpus)
        )

    def add_domain(self, name: str, count: int) -> SchedDomain:
        """Register a scheduling domain (idempotence is an error)."""
        if name in self.domains:
            raise KernelError(f"scheduling domain {name!r} already exists")
        domain = SchedDomain(self.kernel, name, count)
        self.domains[name] = domain
        return domain

    def domain_of(self, proc: "Process") -> SchedDomain | None:
        """The domain whose CPUs serve ``proc``'s grants."""
        if proc.node is not None:
            domain = self.domains.get(proc.node.name)
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
