"""The fault-injection engine: a :class:`FaultPlan` made live.

:func:`install` hooks a :class:`FaultRuntime` into the kernel and the
network.  From then on the places that move work consult it:

* **messages** — :func:`repro.net.wire.carry`, the one path every entry
  call leg and ``NetSend`` takes, asks :meth:`fate` what becomes of each
  message and reports the ones it could not deliver to :meth:`drop`;
  the request leg first asks :meth:`admit` whether the target is up;
* **work** — ``Charge`` asks :meth:`scale_work` to dilate ticks on
  degraded nodes;
* **routing** — the network's Dijkstra cache keys on :attr:`epoch`, which
  bumps on every topology transition, and routes over
  :meth:`filter_links`.

Determinism: all transitions are scheduled through ``kernel.post`` at
plan-specified virtual ticks, and every probabilistic decision draws from
one ``random.Random(plan.seed)`` in event order — so the same seed and
plan reproduce the same faults, and (on the deterministic kernel) the
same interleaving.

Crash semantics: every process homed on a crashed node is killed.  Calls
interrupted mid-flight are *captured*; for an object registered with
:meth:`supervise` they are held for a Supervisor to :meth:`requeue` after
restart, otherwise each caller is failed with
:class:`~repro.errors.RemoteCallError` once the failure detector's
``detection_delay`` elapses.  A caller therefore always unblocks — with
results, an error, or a re-queued retry — except when a *request* is
silently lost and the call carries no ``timeout``; the kernel then
reports the hang honestly as a ``DeadlockError`` at quiescence.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from ..core.calls import Call, CallState
from ..errors import NetworkError, RemoteCallError
from ..kernel.syscalls import Select
from ..kernel.waiting import EventCount
from ..net.wire import send_request
from .plan import FaultPlan, NodeCrash, PartitionFault

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process
    from ..net.network import Network, Node


class FaultRuntime:
    """Live fault state; installed as ``kernel.faults`` / ``network.faults``."""

    def __init__(self, kernel: "Kernel", network: "Network", plan: FaultPlan) -> None:
        self.kernel = kernel
        self.network = network
        self.plan = plan
        #: One RNG for every probabilistic fate, drawn in event order.
        self.rng = random.Random(plan.seed)
        #: Bumped on every topology transition; the network's route cache
        #: keys on it.
        self.epoch = 0
        #: Crash/restart/link/partition transitions: supervisors block on
        #: it to observe them.
        self.events = EventCount("fault-events")
        self._down_nodes: set[str] = set()
        self._down_links: set[tuple[str, str]] = set()
        self._partition_cuts: dict[PartitionFault, frozenset] = {}
        #: Remote calls issued to placed objects, scanned on crash to
        #: capture in-flight work (pruned lazily).
        self._inflight: list[Call] = []
        #: Objects whose interrupted calls a Supervisor will re-queue.
        self._supervised: set[Any] = set()
        self._interrupted: dict[Any, list[Call]] = {}
        m = kernel.metrics
        self.c_node_crashes = m.counter(
            "faults.node_crashes", "Node crash transitions")
        self.c_node_restarts = m.counter(
            "faults.node_restarts", "Node restart transitions")
        self.c_calls_to_down = m.counter(
            "faults.calls_to_down_target", "Calls issued to a crashed object/node")
        #: Messages the network lost, by leg (see :meth:`drop`).
        self._dropped = {
            "request": m.counter(
                "faults.dropped_requests", "Entry-call request legs lost"),
            "response": m.counter(
                "faults.dropped_responses", "Entry-call response legs lost"),
            "message": m.counter(
                "faults.dropped_messages", "NetSend messages lost"),
        }
        self.c_failed_calls = m.counter(
            "faults.failed_calls", "Calls failed with RemoteCallError")
        self.c_duplicated_messages = m.counter(
            "faults.duplicated_messages", "NetSend messages delivered twice")
        self.c_requeued_calls = m.counter(
            "faults.requeued_calls", "Interrupted calls re-queued after restart")

    # ------------------------------------------------------------------
    # Scheduling the plan
    # ------------------------------------------------------------------

    def _schedule(self) -> None:
        """Validate node names and post every scripted transition."""
        net = self.network
        for crash in self.plan.crashes:
            net.node(crash.node)
        for link in self.plan.link_faults:
            net.node(link.a), net.node(link.b)
        for part in self.plan.partitions:
            for name in part.group_a + part.group_b:
                net.node(name)
        for slow in self.plan.slow_cpus:
            net.node(slow.node)

        now = self.kernel.clock.now
        post = self.kernel.post
        for crash in self.plan.crashes:
            post(max(now, crash.at), lambda c=crash: self._crash_node(c))
            if crash.restart_at is not None:
                post(max(now, crash.restart_at), lambda c=crash: self._restart_node(c))
        for link in self.plan.link_faults:
            post(max(now, link.at), lambda l=link: self._set_link(l.a, l.b, down=True))
            if link.up_at is not None:
                post(max(now, link.up_at), lambda l=link: self._set_link(l.a, l.b, down=False))
        for part in self.plan.partitions:
            post(max(now, part.at), lambda p=part: self._set_partition(p, active=True))
            if part.heal_at is not None:
                post(max(now, part.heal_at), lambda p=part: self._set_partition(p, active=False))

    def wait_for_events(self, seen: int) -> Select:
        """A blocking select that fires once transitions exceed ``seen``."""
        select = Select(self.events.beyond(seen))
        select.unwrap = True
        return select

    # ------------------------------------------------------------------
    # Topology state
    # ------------------------------------------------------------------

    def node_up(self, name: str) -> bool:
        return name not in self._down_nodes

    def is_down(self, obj: Any) -> bool:
        """Is ``obj`` crashed, or homed on a node that is?"""
        node = obj.node
        return obj._crashed or (node is not None and node.name in self._down_nodes)

    def _cut(self, a: str, b: str) -> bool:
        pair = (a, b) if a <= b else (b, a)
        if pair in self._down_links:
            return True
        return any(pair in cuts for cuts in self._partition_cuts.values())

    def filter_links(self, links: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
        """The routable topology: links minus downed nodes/links/cuts."""
        out: dict[str, dict[str, int]] = {}
        for a, nbrs in links.items():
            if a in self._down_nodes:
                out[a] = {}
                continue
            out[a] = {
                b: w
                for b, w in nbrs.items()
                if b not in self._down_nodes and not self._cut(a, b)
            }
        return out

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _crash_node(self, fault: NodeCrash) -> None:
        name = fault.node
        if name in self._down_nodes:
            return
        kernel = self.kernel
        node = self.network.node(name)
        self._down_nodes.add(name)
        self.epoch += 1
        killed = 0
        for proc in kernel.processes():
            if proc.node is node:
                kernel.kill_process(proc)
                killed += 1
        kernel.trace.record(
            kernel.clock.now, "crash", name, killed=killed, restart_at=fault.restart_at
        )
        self.c_node_crashes.inc()
        for obj in list(node.objects.values()):
            if hasattr(obj, "_runtimes"):
                self._crash_object(obj, node)
        self.events.bump(self.kernel)

    def _restart_node(self, fault: NodeCrash) -> None:
        if fault.node not in self._down_nodes:
            return
        self._down_nodes.discard(fault.node)
        self.epoch += 1
        self.kernel.trace.record(self.kernel.clock.now, "restart", fault.node)
        self.c_node_restarts.inc()
        # Placed objects stay crashed until something (a Supervisor, or
        # the test harness) calls obj.restart().
        self.events.bump(self.kernel)

    def _set_link(self, a: str, b: str, down: bool) -> None:
        pair = (a, b) if a <= b else (b, a)
        if down:
            self._down_links.add(pair)
        else:
            self._down_links.discard(pair)
        self.epoch += 1
        self.kernel.trace.record(
            self.kernel.clock.now, "link", f"{pair[0]}--{pair[1]}", down=down
        )
        self.events.bump(self.kernel)

    def _set_partition(self, fault: PartitionFault, active: bool) -> None:
        if active:
            cuts = frozenset(
                (a, b) if a <= b else (b, a)
                for a in fault.group_a
                for b in fault.group_b
            )
            self._partition_cuts[fault] = cuts
        else:
            self._partition_cuts.pop(fault, None)
        self.epoch += 1
        self.kernel.trace.record(
            self.kernel.clock.now,
            "partition",
            self.network.name,
            groups=[list(fault.group_a), list(fault.group_b)],
            healed=not active,
        )
        self.events.bump(self.kernel)

    def _crash_object(self, obj: Any, node: "Node") -> None:
        """Take a placed object down, capturing its interrupted calls."""
        held = obj.crash()
        on_the_wire = [call for call in self._inflight if call.obj is obj]
        self._inflight = [call for call in self._inflight if call.obj is not obj]
        records: list[Call] = []
        for call in dict.fromkeys(held + on_the_wire):
            # Stale in-flight deliveries must not land on the restarted
            # object (the Supervisor owns redelivery).
            call.delivery_epoch += 1
            if call.caller_resumed or not call.caller.alive:
                continue
            if call.caller.node is node:
                continue  # the caller died in the same crash
            call.interrupted = True
            records.append(call)

        if obj in self._supervised:
            self._interrupted.setdefault(obj, []).extend(records)
        else:
            for call in records:
                self._fail_later(
                    call,
                    f"call to {obj.alps_name}.{call.entry} interrupted by "
                    f"crash of node {node.name}",
                )

    # ------------------------------------------------------------------
    # What the wire (repro.net.wire) and ``Charge`` ask
    # ------------------------------------------------------------------

    def admit(self, call: Call) -> bool:
        """May ``call`` be sent?  Not to a target that is down: the failure
        detector then fails the caller after ``detection_delay``.  An
        admitted call to a placed object is tracked, so that a crash can
        capture it wherever it is."""
        obj = call.obj
        node = obj.node
        if self.is_down(obj):
            self.c_calls_to_down.inc()
            self._fail_later(
                call,
                f"{obj.alps_name} is down"
                + (f" (node {node.name})" if node is not None else ""),
            )
            return False
        if node is not None:  # unplaced objects live outside the failure model
            if len(self._inflight) > 64:
                self._inflight = [
                    c
                    for c in self._inflight
                    if not c.caller_resumed
                    and c.state not in (CallState.DONE, CallState.FAILED)
                ]
            self._inflight.append(call)
        return True

    def fate(self, leg: str, latency: int, src: str, dst: str) -> list[int]:
        """Delivery delays of one routed message; empty when it is lost.

        One draw per matching rule from the seeded RNG, in rule order,
        then one jitter draw per copy delivered.  Only a ``"message"``
        (``NetSend``) can be duplicated: a second request would run the
        body twice and a second response resume the caller twice.
        """
        rng = self.rng
        may_duplicate = leg == "message"
        dropped = duplicated = False
        jitter = 0
        for rule in self.plan.rules_for(src, dst):
            if rule.drop_rate and rng.random() < rule.drop_rate:
                dropped = True
            if may_duplicate and rule.duplicate_rate and rng.random() < rule.duplicate_rate:
                duplicated = True
            jitter = max(jitter, rule.jitter)
        if dropped:
            return []
        delays = [latency + (rng.randint(0, jitter) if jitter else 0)]
        if duplicated:
            self.c_duplicated_messages.inc()
            delays.append(latency + (rng.randint(0, jitter) if jitter else 0))
        return delays

    def drop(self, leg: str, reason: str, subject: Any, src: "Node", dst: "Node") -> None:
        """Record a message the network did not deliver.

        ``subject`` is the call of a ``"request"``/``"response"`` leg, the
        sender of a ``"message"``.  Lost responses and messages are
        counted; a request only when it is silently lost: one with no
        route is a partition the failure detector sees, so its caller
        fails after ``detection_delay``, and one whose target went down
        while it was on the wire belongs to the crash.
        """
        kernel = self.kernel
        if leg == "message":
            who, detail = subject.name, {"src": src.name, "dst": dst.name}
        else:
            who = subject.caller.name
            detail = {"entry": subject.entry, "obj": subject.obj.alps_name}
        kernel.trace.record(
            kernel.clock.now, "drop", who, leg=leg, **detail, reason=reason
        )
        if leg != "request" or reason == "loss":
            self._dropped[leg].inc()
        elif reason == "no route":
            self._fail_later(
                subject,
                f"no route from {src.name} to {dst.name} for call to "
                f"{subject.obj.alps_name}.{subject.entry}",
            )

    def _fail_later(self, call: Call, reason: str) -> None:
        """Fail ``call`` once the failure detector's delay has passed."""

        def fail() -> None:
            if not call.caller_resumed:
                self.c_failed_calls.inc()
                error = RemoteCallError(reason, entry=call.entry, obj=call.obj.alps_name)
                call.runtime.fail(call, error, "failed")

        when = self.kernel.clock.now + self.plan.detection_delay
        self.kernel.post(when, fail, priority=call.caller.priority)

    def scale_work(self, proc: "Process", ticks: int) -> int:
        """Dilate ``Charge``d work on a degraded node."""
        if not self.plan.slow_cpus:
            return ticks
        node = proc.node
        if node is None:
            return ticks
        now = self.kernel.clock.now
        factor = 1.0
        for slow in self.plan.slow_cpus:
            if (
                slow.node == node.name
                and slow.at <= now
                and (slow.until is None or now < slow.until)
            ):
                factor = max(factor, slow.factor)
        return ticks if factor == 1.0 else int(round(ticks * factor))

    # ------------------------------------------------------------------
    # Recovery (used by repro.stdlib.Supervisor)
    # ------------------------------------------------------------------

    def supervise(self, obj: Any) -> Any:
        """Hold ``obj``'s interrupted calls for re-queueing after restart."""
        self._supervised.add(obj)
        return obj

    def take_interrupted(self, obj: Any) -> list[Call]:
        """Remove and return the calls a crash interrupted on ``obj``."""
        return self._interrupted.pop(obj, [])

    def requeue(self, call: Call) -> bool:
        """Re-submit an interrupted call to its (restarted) object.

        Returns True when the call was re-queued.  The caller never
        notices the crash: it is still blocked on the original invocation
        and will be resumed by the re-executed call (at-least-once
        semantics — the body may run twice if the crash hit after
        execution but before the response).
        """
        kernel = self.kernel
        caller = call.caller
        if call.caller_resumed or not caller.alive or not call.interrupted:
            return False
        obj = call.obj
        if self.is_down(obj):
            # Crashed again before we could re-queue: hold the call for
            # the next recovery round.
            self._interrupted.setdefault(obj, []).append(call)
            return False

        call.interrupted = False
        call.delivery_epoch += 1
        call.runtime.requeue(call)
        self.c_requeued_calls.inc()
        kernel.trace.record(
            kernel.clock.now, "retry", caller.name,
            entry=call.entry, obj=obj.alps_name, requeued=True,
        )
        # A request leg like the first, but the Supervisor owns
        # redelivery: the message draws no fate.
        send_request(kernel, call, fate=False)
        return True

    def describe(self) -> str:
        return (
            f"faults(epoch={self.epoch} down_nodes={sorted(self._down_nodes)} "
            f"down_links={sorted(self._down_links)} "
            f"partitions={len(self._partition_cuts)})"
        )


def install(kernel: "Kernel", network: "Network", plan: FaultPlan) -> FaultRuntime:
    """Hook ``plan`` into ``kernel`` and ``network``; returns the runtime.

    Must be called before the run starts (transitions are posted at their
    scripted ticks).  Only one plan per kernel.
    """
    if kernel.faults is not None:
        raise NetworkError("a fault plan is already installed on this kernel")
    runtime = FaultRuntime(kernel, network, plan)
    kernel.faults = runtime
    network.faults = runtime
    runtime._schedule()
    return runtime
