"""The ALPS kernel: a deterministic discrete-event scheduler for
lightweight processes.

This is our substitute for the run-time kernel the paper describes in §3/§4
(implemented there in C on a 16-node transputer network).  Processes are
generator coroutines; they interact with the kernel by yielding syscalls
(:mod:`repro.kernel.syscalls`).  The kernel provides:

* **priority scheduling** — events are dispatched in (time, priority, FIFO)
  order, so a high-priority manager runs before same-instant entry bodies,
  reproducing the paper's "the manager should execute at a higher priority
  so that it is more receptive to entry calls";
* **virtual time** — simulated work (``Charge``/``Delay``) advances a
  virtual clock; on a finite machine work contends for processors
  (:mod:`repro.kernel.sched`), on an unbounded one it overlaps freely;
* **selective waiting** — the generic guard protocol under ``select``/
  ``loop``, with run-time priorities and acceptance conditions;
* **deadlock detection** — if the event queue drains while a non-daemon
  process is blocked, a :class:`~repro.errors.DeadlockError` is raised with
  a listing of who waits on what.

Determinism: every run with the same seed and program replays the same
interleaving.  Points the paper leaves to "the implementation" (arbitrary
guard choice, arbitrary slot attachment) are governed by the
``arbitration`` policy (``"ordered"`` or seeded ``"random"``).
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable

from ..errors import DeadlockError, GuardExhaustedError, KernelError, ProcessError
from ..obs import MetricsRegistry, Observability
from .clock import VirtualClock
from .costs import DEFAULT, CostModel
from .sched import SmpScheduler
from .process import (
    DEAD_STATES,
    PRIORITY_NORMAL,
    Process,
    ProcessState,
    as_generator,
    format_blocked,
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
    Yield,
)
from .tracing import Trace
from .waiting import Guard, Ready, Waitable

# Event records are flat heap entries ``(when, priority, seq, proc, a, b)``
# (DESIGN.md §5.2).  ``seq`` is unique, so ordering never looks past it.
# ``proc is None`` marks a callback: ``a`` is the callable, ``b`` its
# cancel dict or None.  Otherwise ``a`` is ``proc.epoch`` at push time and
# ``b`` says what surfaces: one of the kinds below, or — the end of a grant
# on a finite machine, pushed by :meth:`Kernel.post_release` — the CPU's
# ``release`` callable, run before anything is decided about ``proc``.
# Each record is pushed in the frame that decides it, with no helper frame
# between.  The kernel reads ``clock._now`` directly on these paths
# (``clock.now`` is a property call per event), and the run loop writes
# it while no clock observer is subscribed.
_STEP = 0  # dispatch proc; dropped before the clock moves when stale
_RESUME = 1  # proc's CPU grant ends (unbounded machine); proc is READY
_WAKE = 2  # proc's Delay expires; proc is BLOCKED


#: Bucket key of guards with no ``poll_source``: never empty, so a sweep
#: always polls them.
_ALWAYS = (None,)

#: ``_SelectPlan.compiled`` of a ranked plan: its buckets run in the
#: order ``Kernel._choose`` ranks ready guards under ``"ordered"``, so a
#: sweep may stop at the first ready one.
_FIRST_WINS = object()


def _rank(pair: tuple[int, Guard]) -> tuple[bool, int, int]:
    """``Kernel._choose``'s key for a static ``pri``, then guard index."""
    pri = pair[1].pri
    return (pri is None, 0 if pri is None else int(pri), pair[0])


class _SelectPlan:
    """What the kernel derives from a ``Select``'s guards (DESIGN.md §5.1).

    Built on a select's first run and kept on the ``Select`` only when no
    guard overrides ``Guard.feasible``; a select that comes back skips
    the feasibility pass, is bucketed (or ranked) on that second run and
    fills its block lists once.  Host work only: nothing here is modelled.
    """

    __slots__ = (
        "pairs", "count", "buckets", "compiled",
        "waitables", "on_block", "on_unblock", "texts", "text",
    )

    def __init__(self, select: Select) -> None:
        #: Feasible (index, guard) pairs, in guard-index order.
        self.pairs = pairs = []
        static = True
        for index, guard in enumerate(select.guards):
            if not guard.always_feasible:
                static = False
                if not guard.feasible():
                    continue
            pairs.append((index, guard))
        self.count = len(pairs)
        if static:
            select._plan = self
        #: ``(source, pairs)``: a sweep polls ``pairs`` only while
        #: ``source`` is non-empty.  One always-polled bucket until
        #: :meth:`compile`.
        self.buckets = [(_ALWAYS, pairs)]
        self.compiled = False
        #: Distinct waitables in first-seen order (waiter order is wake
        #: order); None until the first block (:meth:`fill_block_lists`).
        self.waitables: list[Waitable] | None = None

    def compile(self, ordered: bool) -> None:
        """Bucket the guards by ``poll_source`` (the select's second run).

        Under ``"ordered"`` arbitration, when every guard names a source
        and no ``pri`` is callable, the pairs are ranked instead: sorted
        by :func:`_rank`, adjacent pairs on one source sharing a bucket.
        """
        pairs = self.pairs
        if ordered and all(
            guard.poll_source is not None and not callable(guard.pri)
            for _index, guard in pairs
        ):
            ranked: list[tuple[Any, list]] = []
            for pair in sorted(pairs, key=_rank):
                source = pair[1].poll_source
                if ranked and ranked[-1][0] is source:
                    ranked[-1][1].append(pair)
                else:
                    ranked.append((source, [pair]))
            self.buckets = ranked
            self.compiled = _FIRST_WINS
            return
        buckets: dict[int, tuple[Any, list]] = {}
        for pair in pairs:
            source = pair[1].poll_source
            if source is None:
                source = _ALWAYS
            bucket = buckets.get(id(source))
            if bucket is None:
                bucket = buckets[id(source)] = (source, [])
            bucket[1].append(pair)
        self.buckets = list(buckets.values())
        self.compiled = True

    def fill_block_lists(self) -> None:
        self.waitables = waitables = []
        self.on_block = on_block = []
        self.on_unblock = on_unblock = []
        for _index, guard in self.pairs:
            for waitable in guard.waitables():
                if waitable not in waitables:
                    waitables.append(waitable)
            if guard.on_block is not None:
                on_block.append(guard)
            if guard.on_unblock is not None:
                on_unblock.append(guard)


class _PendingSelect:
    """Bookkeeping for a process blocked in ``Select``.

    Doubles as the process's ``waiting_for`` payload: iterating yields
    the feasible guards and ``str()`` renders ``select(accept get, ...)``
    — only when a trace, a deadlock report or a debugger actually reads
    it, and once per plan: the text is kept on the plan (its ``text``
    slot, unset until then, joined from :meth:`guard_texts`) for every
    later block under it.
    """

    __slots__ = ("select", "plan", "poll_count")

    def __init__(self, select: Select, plan: _SelectPlan) -> None:
        self.select = select
        #: The plan this process blocked under (a reused ``Select`` may
        #: be blocked on by several processes: they share it).
        self.plan = plan
        #: Guard polls performed on behalf of this select, the polls of
        #: the blocking ``_do_select`` included.
        self.poll_count = plan.count

    def __iter__(self):
        return (guard for _index, guard in self.plan.pairs)

    def __str__(self) -> str:
        plan = self.plan
        try:
            return plan.text
        except AttributeError:
            plan.text = text = "select(" + ", ".join(self.guard_texts().values()) + ")"
            return text

    def guard_texts(self) -> dict[int, str]:
        """Guard index -> ``describe()``, kept on the plan like the text
        (a guard's ``describe()`` is fixed for its lifetime)."""
        plan = self.plan
        try:
            return plan.texts
        except AttributeError:
            plan.texts = texts = {}
            for index, guard in plan.pairs:
                texts[index] = guard.describe()
            return texts


class Kernel:
    """Deterministic virtual-time scheduler for lightweight processes.

    Parameters
    ----------
    costs:
        Tick charges for kernel events (:class:`~repro.kernel.costs.CostModel`).
    num_cpus:
        ``None`` for an unbounded machine (pure latency model) or a positive
        integer for a finite machine where simulated work contends on an
        SMP scheduler (per-CPU runqueues; see :mod:`repro.kernel.sched`).
        Nodes may additionally declare their own CPU counts
        (``Network.add_node(name, cpus=...)``), which become node-local
        scheduling domains.
    seed:
        Seed for all "arbitrary" choices; same seed => same run.
    arbitration:
        ``"ordered"`` resolves arbitrary choices by textual/FIFO order,
        ``"random"`` uses the seeded RNG (still deterministic per seed).
    trace:
        Enable event tracing (off by default; see
        :class:`~repro.kernel.tracing.Trace`).
    spans:
        Enable per-call span recording (off by default; see
        :class:`~repro.obs.Observability`).  Attaching a sink via
        ``kernel.obs.add_sink(...)`` also enables it.
    """

    def __init__(
        self,
        costs: CostModel = DEFAULT,
        num_cpus: int | None = None,
        seed: int = 0,
        arbitration: str = "ordered",
        trace: bool = False,
        spans: bool = False,
    ) -> None:
        costs.validate()
        if arbitration not in ("ordered", "random"):
            raise KernelError(f"unknown arbitration policy {arbitration!r}")
        if num_cpus is not None and num_cpus < 1:
            raise ValueError(f"num_cpus must be >= 1 or None, got {num_cpus}")
        self.costs = costs
        self.clock = VirtualClock()
        self.rng = random.Random(seed)
        self.arbitration = arbitration
        self.trace = Trace(enabled=trace)
        self.stats = KernelStats()
        #: Typed metric registry: every count that is not a ``stats`` field.
        self.metrics = MetricsRegistry()
        #: Span recording and sink fan-out; disabled unless requested.
        self.obs = Observability(self)
        if spans:
            self.obs.enable()
        #: The SMP virtual machine: scheduling domains of per-CPU
        #: runqueues (:mod:`repro.kernel.sched`).  The default domain
        #: exists only on a finite machine; node-local domains register
        #: through ``Network.add_node(name, cpus=...)`` either way.
        self.cpu_scheduler = SmpScheduler(self, num_cpus)
        #: Fault-injection engine, if one is installed
        #: (:func:`repro.faults.install`).  ``None`` means the substrate is
        #: perfect: no crashes, no loss, no degradation.
        self.faults: Any = None

        #: Heap of flat event records (layout at the top of this module).
        self._events: list[tuple] = []
        self._seq = 0
        #: ``type(syscall)`` -> handler; grows as extension syscall types
        #: and subclasses are first seen (:meth:`_learn_syscall`).
        self._handlers = dict(_KERNEL_SYSCALLS)
        self._next_pid = 1
        #: Per-kernel entry-call ids (a process-global counter would leak
        #: across kernels and make otherwise identical runs diverge in
        #: trace/process names).
        self._next_call_id = 0
        self._processes: dict[int, Process] = {}
        #: Every AlpsObject created on this kernel (registered by
        #: ``AlpsObject.__init__``); the wait-for graph scans it for
        #: exhausted hidden procedure arrays.
        self._alps_objects: list[Any] = []
        self._pending_selects: dict[int, _PendingSelect] = {}
        self._last_stepped: Process | None = None
        self._running = False

    @property
    def current_process(self) -> Process | None:
        """The process whose generator is executing right now.

        Valid only from code running inside a process body (the kernel
        points it at a process immediately before resuming its
        generator); observability helpers use it to attach spans to the
        calling process without spending a ``Self`` syscall — which
        would insert an extra event and perturb same-tick ordering.
        """
        return self._last_stepped

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        priority: int = PRIORITY_NORMAL,
        lightweight: bool = True,
        daemon: bool = False,
        charge_to: Process | None = None,
        **kwargs: Any,
    ) -> Process:
        """Create a process running ``fn(*args, **kwargs)``.

        ``fn`` may be a generator function (the normal case) or a plain
        function (called here; the process returns its result).  The new
        process is scheduled immediately at the current time; it actually
        runs when its event reaches the front of the queue.
        """
        body = fn(*args, **kwargs)
        if type(body) is not GeneratorType:  # duck-typed, or a plain result
            body = as_generator(lambda: body)
        pid = self._next_pid
        self._next_pid = pid + 1
        self._processes[pid] = proc = Process(
            pid,
            name or getattr(fn, "__name__", "proc"),
            body,
            priority,
            daemon,
            ProcessState.READY,
        )
        stats = self.stats
        stats.spawns += 1
        if lightweight:
            stats.lwp_spawns += 1
            cost = self.costs.lwp_create
        else:
            cost = self.costs.process_create
        if not (cost and charge_to is not None):
            # A new process's epoch is 0.
            self._seq = seq = self._seq + 1
            heappush(self._events, (self.clock._now, priority, seq, proc, 0, _STEP))
        elif self.cpu_scheduler.domains:
            self._step_after_cpu(proc, cost, charge_to)
        else:
            # Creation cost delays the new process's first dispatch; the
            # work is queued at the *creator's* priority (on a finite
            # machine, on the creator's CPUs).
            self._seq = seq = self._seq + 1
            heappush(
                self._events,
                (self.clock._now + cost, charge_to.priority, seq, proc, 0, _RESUME),
            )
        trace = self.trace
        if trace.enabled or trace._listeners:  # ``trace.recording``, inlined
            trace.record(self.clock._now, "spawn", proc.name, pid=pid, priority=priority)
        return proc

    def process_count(self, alive_only: bool = True) -> int:
        """Number of live processes: the table's size whatever ``alive_only``
        says, since a process leaves the table as it exits."""
        return len(self._processes)

    def processes(self) -> list[Process]:
        """Snapshot of the live processes (NEW/READY/RUNNING/BLOCKED), in
        pid order.  A dead process is reachable only through the handles
        its users kept."""
        return list(self._processes.values())

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------

    def post(
        self,
        when: int,
        callback: Callable[[], None],
        priority: int = 0,
        cancel: dict | None = None,
    ) -> None:
        """Run ``callback`` at absolute virtual time ``when``.

        Used by timeout guards and network links.  Callbacks run at kernel
        priority by default (before same-instant process steps).  If
        ``cancel`` is given and ``cancel["cancelled"]`` is true when the
        event surfaces, it is dropped without advancing the clock.
        """
        if when < self.clock._now:
            raise KernelError(f"cannot post event in the past ({when} < {self.clock.now})")
        self._seq = seq = self._seq + 1
        heappush(self._events, (when, priority, seq, None, callback, cancel))

    def post_release(
        self, when: int, release: Callable[[], None], proc: Process, epoch: int
    ) -> None:
        """A CPU grant made by :mod:`.sched` ends at ``when``.

        One record: ``release()`` runs at kernel priority, ahead of every
        step at that instant, whatever became of ``proc``; then ``proc``
        is dispatched as on the unbounded machine, if its epoch is still
        ``epoch``.
        """
        self._seq = seq = self._seq + 1
        heappush(self._events, (when, 0, seq, proc, epoch, release))

    def has_live_events(self, ignoring: Process | None = None) -> bool:
        """Is anything queued that will still do work when it surfaces?

        Cancelled callbacks and events of dead or re-parked processes do
        not count, nor do events of ``ignoring`` (a watchdog asking
        whether anything *besides itself* keeps the run going).  The end
        of a finite-machine grant always counts: it frees a CPU, which
        may start another process's queued work.
        """
        for _when, _prio, _seq, proc, a, b in self._events:
            if proc is None:
                if b is None or not b.get("cancelled"):
                    return True
            elif callable(b) or (
                proc is not ignoring
                and proc.epoch == a
                and proc.state not in DEAD_STATES
            ):
                return True
        return False

    def schedule_resume(self, proc: Process, value: Any = None, cost: int = 0) -> None:
        """Unblock ``proc``, delivering ``value`` from its pending syscall.

        ``cost`` ticks of CPU are consumed first (queued by the process's
        priority on a finite machine).
        """
        if proc.state in DEAD_STATES:
            return
        proc._resume_value = value
        proc._resume_exception = None
        proc.state = ProcessState.READY
        proc.waiting_for = None
        proc.epoch = epoch = proc.epoch + 1
        if cost <= 0:
            self._seq = seq = self._seq + 1
            heappush(
                self._events, (self.clock._now, proc.priority, seq, proc, epoch, _STEP)
            )
        elif self.cpu_scheduler.domains:
            self._step_after_cpu(proc, cost, proc)
        else:
            # The work starts now and ends in one record (DESIGN.md §5.2).
            self._seq = seq = self._seq + 1
            heappush(
                self._events,
                (self.clock._now + cost, proc.priority, seq, proc, epoch, _RESUME),
            )

    def schedule_throw(self, proc: Process, exc: BaseException) -> None:
        """Unblock ``proc`` by raising ``exc`` inside it."""
        if proc.state in DEAD_STATES:
            return
        if proc.pid in self._pending_selects:  # rare; saves the call
            # Thrown into while blocked in a select: the select is over.
            self._cancel_pending_select(proc)
        proc._resume_exception = exc
        proc.state = ProcessState.READY
        proc.waiting_for = None
        # Also retires a CPU completion still pending for ``proc``: its
        # record carries the epoch it was queued under.
        proc.epoch = epoch = proc.epoch + 1
        self._seq = seq = self._seq + 1
        heappush(
            self._events, (self.clock._now, proc.priority, seq, proc, epoch, _STEP)
        )

    def _step_after_cpu(self, proc: Process, ticks: int, payer: Process) -> None:
        """Dispatch ``proc`` once ``payer`` has consumed ``ticks`` of CPU,
        on a kernel with scheduling domains (on the unbounded machine the
        caller pushes the one ``_RESUME`` record itself).

        ``payer`` (the process the work belongs to: ``proc`` itself, or
        its creator for a creation cost) routes the grant to its home
        node's scheduling domain at its priority; on a node with no
        declared CPUs the kernel-wide default applies, and with no
        default either the work runs unbounded, as on a kernel with no
        domains.  On a domain it contends on per-CPU runqueues where
        strict-class work (priority < ``PRIORITY_NORMAL``) is granted
        first, so a high-priority manager's synchronization steps
        overtake queued entry-body work — the paper's receptiveness
        argument (§1, §3) — and ends in one :meth:`post_release` record.
        Either way the completion is void if ``proc`` was re-parked
        (thrown into) meanwhile.
        """
        domain = self.cpu_scheduler.domain_of(payer)
        if domain is None:
            # ``priority`` fixes same-instant order among finished work.
            when = self.clock._now + ticks
            self._seq = seq = self._seq + 1
            heappush(self._events, (when, payer.priority, seq, proc, proc.epoch, _RESUME))
        else:
            domain.grant(payer, payer.priority, ticks, proc, proc.epoch)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> KernelStats:
        """Dispatch events until quiescence (or ``until`` / ``max_events``).

        Returns the accumulated statistics.  Raises
        :class:`~repro.errors.DeadlockError` if the system quiesces while a
        non-daemon process is still blocked.  The kernel is resumable:
        calling :meth:`run` again continues where the previous call
        stopped.  ``max_events`` counts heap records dispatched; a CPU
        completion (on the unbounded machine or a finite one) or ``Delay``
        expiry that steps its process on the spot is one.
        """
        if self._running:
            raise KernelError("kernel.run() is not reentrant")
        self._running = True
        events = self._events
        clock = self.clock
        # The list itself: a process that subscribes mid-run is seen.
        observers = clock._observers
        stats = self.stats
        limit = -1 if max_events is None else max_events
        dispatched = 0
        try:
            while events:
                if dispatched == limit:
                    return stats
                when, _prio, _seq, proc, a, b = events[0]
                # Drop stale events *before* advancing the clock so that
                # cancelled timers do not inflate the simulation end time.
                if proc is None:
                    if b is not None and b.get("cancelled"):
                        heappop(events)
                        stats.stale_events += 1
                        continue
                elif not b and (proc.epoch != a or proc.state in DEAD_STATES):
                    heappop(events)
                    stats.stale_events += 1
                    continue
                if until is not None and when > until:
                    clock.advance_to(until)
                    return stats
                heappop(events)
                if when != clock._now:
                    if observers or when < clock._now:
                        # Observers to call, or a record left behind by
                        # an outside ``advance_to`` (which raises).
                        clock.advance_to(when)
                    else:
                        clock._now = int(when)  # ``advance_to``'s int
                dispatched += 1
                if proc is None:
                    a()
                elif not b:
                    self._step_process(proc)
                elif proc.epoch != a or proc.state in DEAD_STATES:
                    # A completion always moves the clock to its time (the
                    # CPU was busy until then), even when nobody is left
                    # to resume.
                    stats.stale_events += 1
                    if callable(b):
                        b()
                else:
                    if b != _RESUME:
                        if b == _WAKE:
                            proc.state = ProcessState.READY
                            proc.waiting_for = None
                            proc.epoch += 1
                        else:
                            # A finite machine's grant: CPU bookkeeping at
                            # kernel priority first, then the same rule.
                            b()
                    # One event per resumption: step now unless something
                    # else is due at this instant at proc's priority or
                    # better; then proc goes behind it, as a step with a
                    # fresh seq (DESIGN.md §5.2).
                    if events and events[0][0] == when and events[0][1] <= proc.priority:
                        self._seq = seq = self._seq + 1
                        heappush(events, (when, proc.priority, seq, proc, proc.epoch, _STEP))
                    else:
                        self._step_process(proc)
        finally:
            self._running = False
        # A bounded run (until/max_events) may legitimately drain the
        # queue while callers intend to inject more work afterwards; only
        # an unbounded run can conclude deadlock.
        if until is None and max_events is None:
            self._check_quiescence()
        return stats

    def run_process(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        priority: int = PRIORITY_NORMAL,
        until: int | None = None,
        **kwargs: Any,
    ) -> Any:
        """Convenience: spawn ``fn``, run to quiescence, return its result."""
        proc = self.spawn(fn, *args, name=name, priority=priority, **kwargs)
        self.run(until=until)
        if proc.state == ProcessState.FAILED and proc.exception is not None:
            raise proc.exception
        if proc.alive:
            raise KernelError(
                f"run_process: {proc.name!r} did not finish "
                f"(state={proc.state.value}, blocked_on={proc.blocked_on!r})"
            )
        return proc.result

    def _check_quiescence(self) -> None:
        blocked = [
            p
            for p in self._processes.values()
            if not p.daemon and p.state == ProcessState.BLOCKED
        ]
        if blocked:
            from .waitgraph import build_wait_graph

            snapshot = build_wait_graph(self)
            message = (
                "deadlock: no events pending but these processes are blocked:\n"
                + format_blocked(blocked)
            )
            cycle_text = snapshot.describe_cycles()
            if cycle_text:
                message += "\n" + cycle_text
            raise DeadlockError(message, blocked=blocked, wait_for=snapshot)

    # ------------------------------------------------------------------
    # Process stepping and syscall dispatch
    # ------------------------------------------------------------------

    def _step_process(self, proc: Process) -> None:
        """Resume ``proc`` until its next yield and interpret what it yields."""
        stats = self.stats
        # Context-switch and dispatch charges are folded into the cost of
        # whatever the syscall does.
        cost = self.costs.dispatch
        if self._last_stepped is not proc:
            stats.context_switches += 1
            cost += self.costs.context_switch
            self._last_stepped = proc
        proc.state = ProcessState.RUNNING
        stats.resumptions += 1
        proc.resumptions += 1
        try:
            thrown = proc._resume_exception
            if thrown is not None:
                proc._resume_exception = None
                syscall = proc.body.throw(thrown)
            else:
                value = proc._resume_value
                proc._resume_value = None
                syscall = proc.body.send(value)
        except StopIteration as stop:
            proc.state = ProcessState.DONE
            proc.result = stop.value
        except BaseException as exc:
            proc.state = ProcessState.FAILED
            proc.exception = exc
            unwatched = not proc.exit_watchers
            self._on_exit(proc)
            if unwatched:
                raise
            return
        else:
            try:
                handler = self._handlers[type(syscall)]
            except KeyError:
                handler = self._learn_syscall(syscall)
            if handler is None:
                # Extension point: channels, entry calls, manager primitives.
                syscall.handle(self, proc, cost)
            else:
                handler(self, proc, syscall, cost)
            return
        self._on_exit(proc)

    def _on_exit(self, proc: Process) -> None:
        """Book a termination (any kind), tell the exit watchers, and drop
        ``proc`` from the table: whoever names it now holds the handle."""
        self.stats.exits += 1
        trace = self.trace
        if trace.enabled or trace._listeners:  # ``trace.recording``, inlined
            trace.record(self.clock._now, "exit", proc.name, state=proc.state.value)
        watchers = proc.exit_watchers
        if watchers is not None:
            # A watcher holds its waiter's record, which names ``proc``:
            # a cycle unless the list goes.
            proc.exit_watchers = None
            for watcher in watchers:
                watcher(proc)
        del self._processes[proc.pid]

    def _learn_syscall(self, syscall: Any) -> Callable[..., None] | None:
        """First sight of a syscall type: find its handler and memoise it.

        A subclass of a kernel syscall is handled as its base; any other
        type with a ``handle`` method is an extension syscall (``None``
        in the table: :meth:`_step_process` calls ``syscall.handle``).
        """
        cls = type(syscall)
        for base, handler in _KERNEL_SYSCALLS.items():
            if issubclass(cls, base):
                break
        else:
            if not hasattr(cls, "handle"):
                # Not memoised: an instance may carry its own ``handle``.
                return None if hasattr(syscall, "handle") else Kernel._not_a_syscall
            handler = None
        self._handlers[cls] = handler
        return handler

    def _not_a_syscall(self, proc: Process, syscall: Any, cost: int) -> None:
        self.schedule_throw(
            proc,
            ProcessError(f"{proc.name!r} yielded {syscall!r}, which is not a syscall"),
        )

    # -- kernel syscall handlers: ``handler(kernel, proc, syscall, cost)`` --

    def _do_spawn(self, proc: Process, syscall: Spawn, cost: int) -> None:
        child = self.spawn(
            syscall.fn,
            *syscall.args,
            name=syscall.name,
            priority=syscall.priority,
            lightweight=syscall.lightweight,
            charge_to=proc,
            **syscall.kwargs,
        )
        # A child lives where its creator lives and under its deadline.
        child.node = proc.node
        child.deadline_at = proc.deadline_at
        self.schedule_resume(proc, child, cost=cost)

    def _do_delay(self, proc: Process, syscall: Delay, cost: int) -> None:
        if syscall.ticks < 0:
            self.schedule_throw(proc, KernelError("Delay ticks must be >= 0"))
            return
        proc.state = ProcessState.BLOCKED
        proc.waiting_for = ("delay", syscall.ticks)
        proc.epoch += 1
        when = self.clock._now + syscall.ticks + cost
        self._seq = seq = self._seq + 1
        heappush(self._events, (when, proc.priority, seq, proc, proc.epoch, _WAKE))

    def _do_charge(self, proc: Process, syscall: Charge, cost: int) -> None:
        if syscall.ticks < 0:
            self.schedule_throw(proc, KernelError("Charge ticks must be >= 0"))
            return
        ticks = syscall.ticks
        if self.faults is not None:
            # Slow-CPU degradation: work on a degraded node dilates.
            ticks = self.faults.scale_work(proc, ticks)
        self.stats.work_ticks += ticks
        self.schedule_resume(proc, None, cost=cost + ticks)

    def _do_yield(self, proc: Process, syscall: Yield, cost: int) -> None:
        self.schedule_resume(proc, None, cost=cost)

    def _do_now(self, proc: Process, syscall: Now, cost: int) -> None:
        self.schedule_resume(proc, self.clock.now, cost=cost)

    def _do_self(self, proc: Process, syscall: Self, cost: int) -> None:
        self.schedule_resume(proc, proc, cost=cost)

    def _do_kill(self, proc: Process, syscall: Kill, cost: int) -> None:
        was_alive = self.kill_process(syscall.process)
        self.schedule_resume(proc, was_alive, cost=cost)

    def _do_set_priority(self, proc: Process, syscall: SetPriority, cost: int) -> None:
        target = syscall.process or proc
        target.priority = syscall.priority
        self.schedule_resume(proc, None, cost=cost)

    def kill_process(self, target: Process) -> bool:
        """Terminate ``target`` immediately (the ``Kill`` syscall's core).

        Also the primitive the fault injector uses to crash every process
        on a node.  Returns True if the target was alive.
        """
        if target.state in DEAD_STATES:
            return False
        self._cancel_pending_select(target)
        target.kill()
        self._on_exit(target)
        return True

    # ------------------------------------------------------------------
    # Join / Par
    # ------------------------------------------------------------------

    def _do_join(self, proc: Process, syscall: Join, cost: int) -> None:
        target = syscall.process
        if target.state == ProcessState.DONE:
            self.schedule_resume(proc, target.result, cost=cost)
            return
        if target.state == ProcessState.FAILED:
            assert target.exception is not None
            self.schedule_throw(proc, target.exception)
            return
        if target.state == ProcessState.KILLED:
            self.schedule_throw(
                proc, ProcessError(f"join: {target.name!r} was killed")
            )
            return

        proc.state = ProcessState.BLOCKED
        proc.waiting_for = record = ("join", target)

        def on_exit(dead: Process) -> None:
            if proc.waiting_for is not record:
                return  # thrown out of this join meanwhile
            if dead.state == ProcessState.FAILED and dead.exception is not None:
                self.schedule_throw(proc, dead.exception)
            elif dead.state == ProcessState.KILLED:
                self.schedule_throw(
                    proc, ProcessError(f"join: {dead.name!r} was killed")
                )
            else:
                self.schedule_resume(proc, dead.result)

        if target.exit_watchers is None:
            target.exit_watchers = [on_exit]
        else:
            target.exit_watchers.append(on_exit)

    def _do_par(self, proc: Process, par: Par, cost: int) -> None:
        """§2.1.1 ``par``: run all thunks, wait for all, return results."""
        if not par.thunks:
            self.schedule_resume(proc, [], cost=cost)
            return
        results: list[Any] = [None] * len(par.thunks)
        remaining = len(par.thunks)
        children: list[Process] = []
        proc.state = ProcessState.BLOCKED
        proc.waiting_for = record = ("par", children)

        def make_watcher(index: int) -> Callable[[Process], None]:
            def on_exit(child: Process) -> None:
                nonlocal remaining
                if proc.waiting_for is not record:
                    return  # the par is over: a child failed, or a throw
                if child.state == ProcessState.FAILED and child.exception is not None:
                    self.schedule_throw(proc, child.exception)
                elif child.state == ProcessState.KILLED:
                    self.schedule_throw(
                        proc, ProcessError(f"par: {child.name!r} was killed")
                    )
                else:
                    results[index] = child.result
                    remaining -= 1
                    if remaining == 0:
                        self.schedule_resume(proc, results)

            return on_exit

        for index, thunk in enumerate(par.thunks):
            child = self.spawn(
                thunk,
                name=f"{proc.name}.par[{index}]",
                priority=par.priority,
                charge_to=proc,
            )
            child.node = proc.node
            child.deadline_at = proc.deadline_at
            children.append(child)
            child.exit_watchers = [make_watcher(index)]

    # ------------------------------------------------------------------
    # Select machinery
    # ------------------------------------------------------------------

    def _sweep(self, plan: _SelectPlan) -> list[tuple[int, Guard, Ready]]:
        """One sweep: every feasible guard polled once, each a modelled poll.

        The host skips the buckets whose source says "nothing there", and
        a ranked plan's guards after its first ready one (their polls are
        modelled all the same: side-effect free, they could not win).
        """
        self.stats.guard_polls += plan.count
        ready: list[tuple[int, Guard, Ready]] = []
        for source, pairs in plan.buckets:
            if source:
                for index, guard in pairs:
                    outcome = guard.poll(self)
                    if outcome is not None:
                        ready.append((index, guard, outcome))
                        if plan.compiled is _FIRST_WINS:
                            return ready
        return ready

    def _choose(
        self, ready: list[tuple[int, Guard, Ready]]
    ) -> tuple[int, Guard, Ready]:
        """Pick among ready guards: smallest ``pri`` first, then policy."""
        if len(ready) == 1:
            return ready[0]
        keyed = [
            (guard.effective_pri(outcome), index, guard, outcome)
            for index, guard, outcome in ready
        ]
        best_pri = min(k[0] for k in keyed)
        candidates = [k for k in keyed if k[0] == best_pri]
        if len(candidates) > 1:
            # Textual order, whatever order the sweep's buckets polled in
            # (indices are distinct: the sort never compares guards).
            candidates.sort()
            if self.arbitration == "random":
                return self.rng.choice(candidates)[1:]
        return candidates[0][1:]

    def _do_select(self, proc: Process, select: Select, cost: int) -> None:
        self.stats.selects += 1
        plan = select._plan
        if plan is None:
            plan = _SelectPlan(select)
        elif not plan.compiled:
            plan.compile(self.arbitration == "ordered")
        ready = self._sweep(plan)
        if ready:
            index, guard, outcome = self._choose(ready)
            value = guard.commit(self, proc, outcome)
            self.stats.commits += 1
            result = value if select.unwrap else SelectResult(index, guard, value)
            cost += self.costs.guard_poll * plan.count + guard.commit_cost
            self.schedule_resume(proc, result, cost=cost)
            return
        if select.else_:
            result = (
                select.else_value
                if select.unwrap
                else SelectResult(-1, None, select.else_value)
            )
            cost += self.costs.guard_poll * plan.count
            self.schedule_resume(proc, result, cost=cost)
            return
        if not plan.count:
            self.schedule_throw(
                proc,
                GuardExhaustedError(
                    f"{proc.name!r}: select has no feasible guard and no else "
                    f"({[g.describe() for g in select.guards]})"
                ),
            )
            return
        # Block: register once on each distinct waitable of the feasible
        # guards, in first-seen order (waiter order is wake order).
        if plan.waitables is None:
            plan.fill_block_lists()
        pending = _PendingSelect(select, plan)
        proc.state = ProcessState.BLOCKED
        proc.waiting_for = ("select", pending)  # rendered on demand (``str``)
        self._pending_selects[proc.pid] = pending
        for waitable in plan.waitables:
            waitable.add_waiter(proc)
        for guard in plan.on_block:
            guard.on_block(self, proc)
        trace = self.trace
        if trace.enabled or trace._listeners:  # ``trace.recording``, inlined
            trace.record(self.clock._now, "block", proc.name, on=str(pending))

    def reevaluate_select(self, proc: Process) -> bool:
        """Re-poll the pending select of ``proc`` after a state change.

        Called by :meth:`~repro.kernel.waiting.Waitable.notify`.  Returns
        True if the select fired.
        """
        pending = self._pending_selects.get(proc.pid)
        if pending is None or proc.state in DEAD_STATES:
            return False
        plan = pending.plan
        ready = self._sweep(plan)
        pending.poll_count += plan.count
        if not ready:
            return False
        index, guard, outcome = self._choose(ready)
        self._cancel_pending_select(proc)
        value = guard.commit(self, proc, outcome)
        self.stats.commits += 1
        wake_cost = self.costs.guard_poll * pending.poll_count + guard.commit_cost
        result = (
            value if pending.select.unwrap else SelectResult(index, guard, value)
        )
        self.schedule_resume(proc, result, cost=wake_cost)
        trace = self.trace
        if trace.enabled or trace._listeners:  # ``trace.recording``, inlined
            trace.record(
                self.clock._now, "wake", proc.name, guard=pending.guard_texts()[index]
            )
        return True

    def _cancel_pending_select(self, proc: Process) -> None:
        pending = self._pending_selects.pop(proc.pid, None)
        if pending is None:
            return
        plan = pending.plan
        for waitable in plan.waitables:
            waitable.remove_waiter(proc)
        for guard in plan.on_unblock:
            guard.on_unblock(self, proc)

    def notify(self, waitable: Waitable) -> None:
        """Tell blocked selectors that ``waitable`` changed state."""
        waitable.notify(self)


#: Handlers of the kernel's own syscalls, in the order a subclass is
#: matched against them.
_KERNEL_SYSCALLS: dict[type, Callable[..., None]] = {
    Spawn: Kernel._do_spawn,
    Join: Kernel._do_join,
    Delay: Kernel._do_delay,
    Charge: Kernel._do_charge,
    Select: Kernel._do_select,
    Par: Kernel._do_par,
    Yield: Kernel._do_yield,
    Now: Kernel._do_now,
    Self: Kernel._do_self,
    Kill: Kernel._do_kill,
    SetPriority: Kernel._do_set_priority,
}
