"""Admission control and backpressure, in the paper's vocabulary.

Heavy open-loop traffic forces a question the paper's examples never
face: what does a manager do when offered load exceeds capacity and the
hidden procedure array plus its overflow queue (§2.5) only grow?  The
answer composes three mechanisms ALPS already has:

* **queue-cap guards** — an acceptance condition reading ``#P``
  (§2.5.1): ``when #P > cap`` opens a *load-shedding arm* exactly when
  the backlog exceeds the budget;
* **load-shedding** — the arm accepts the excess call (rendezvous is
  the only way to reach it) and yields
  :class:`~repro.core.primitives.Reject`, resuming the caller with
  :class:`~repro.errors.AdmissionError` at finish cost, far below
  service cost.  It sheds the *oldest* attached call, while the plain
  accept arm keeps element order (§2.5 leaves the choice open), so no
  queued call waits out an overload;
* **``pri``-based preference for in-flight work** — run-time guard
  priorities (§2.4) order the manager's arms so work already admitted
  completes before new work is admitted.

The conventional arm priorities (smallest wins):

======================  ====  =================================================
arm                     pri   rationale
======================  ====  =================================================
``await`` (in-flight)   0     finish admitted work first: it holds slots/workers
sweep (dead calls)      1     free slots held by expired calls at reject cost
shed (``#P > cap``)     2     under overload, drain the backlog at reject cost
normal ``accept``       3     admit new work only when not saturated
======================  ====  =================================================

Two latency-aware arms extend the ladder (PR 7): a
:class:`DeadlineSweepGuard` rendezvouses with calls that are already
*dead* — their end-to-end deadline expired while queued, or their caller
was already resumed by a per-hop timeout — so the slot frees at reject
cost instead of wasting a manager body on a caller that is gone; a
:class:`PredictedWaitGuard` sheds a deadlined call on arrival when the
EWMA of the entry's service time times the queue depth already exceeds
the call's remaining budget (serving it would only produce a
late-and-discarded response).

Managers whose normal accept arm carries a *callable* ``pri`` (SCAN,
best-fit) use :data:`SHED_PRI_ALWAYS` for the shed arm instead — a priority
value below any the callable can produce, so shedding still wins under
overload.

Usage inside a manager::

    result = yield Select(
        AwaitGuard(self, "get", pri=AWAIT_PRI),
        ShedGuard(self, "get", cap=self.queue_cap),
        AcceptGuard(self, "get", pri=ACCEPT_PRI),
    )
    call = result.value
    if isinstance(result.guard, ShedGuard):
        yield Reject(call)
    ...
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

from .primitives import AcceptGuard

_attached_at = attrgetter("attached_at")

#: Conventional arm priorities (see module docstring; smallest wins).
AWAIT_PRI = 0
SWEEP_PRI = 1
SHED_PRI = 2
ACCEPT_PRI = 3

#: Shed-arm priority that undercuts callable accept priorities (SCAN
#: keys, best-fit negated amounts) — any value those expressions can
#: realistically produce sorts after it.
SHED_PRI_ALWAYS = -(10**9)


class ShedGuard(AcceptGuard):
    """``accept P when #P > cap pri E`` — the load-shedding arm.

    An :class:`~repro.core.primitives.AcceptGuard` whose acceptance
    condition is the queue-cap predicate; the manager recognizes the
    chosen arm by type and yields ``Reject`` instead of ``Start``.  The
    guard sheds the oldest attached call (smallest ``attached_at``; a
    callable ``pri`` is evaluated on that call to rank the arm, §2.4), so
    the backlog never silently ages: ``attach`` reuses the lowest free
    element first, and shedding in element order let low elements turn
    over while a call parked in a high one waited out the overload
    (DESIGN.md §11.2).

    ``reason`` is the machine-readable shed reason the manager forwards
    to ``Reject(call, reason=guard.reason)``; subclasses override it so
    the shed-reason metrics breakdown (``admission.shed.<reason>``) can
    tell queue caps, deadline sweeps and predicted-wait sheds apart.
    """

    reason = "queue-cap"

    def __init__(
        self,
        obj: Any,
        proc_name: str,
        cap: int,
        pri: Any = SHED_PRI,
    ) -> None:
        if cap < 0:
            raise ValueError(f"queue cap must be >= 0, got {cap}")
        super().__init__(obj, proc_name, pri=pri)
        self.cap = cap

    def refuses(self, kernel: Any) -> bool:
        # ``when #P > cap`` reads no parameters: test it once, not per call
        # (``pending_count()`` inline: under overload every poll gets here).
        runtime = self.runtime
        return len(runtime.attached) + len(runtime.waiting) <= self.cap

    def choose(self, kernel: Any, calls: list) -> Any:
        # ``calls`` is the whole element-ordered index, never empty here:
        # the first minimum is the lowest element among the oldest.
        return min(calls, key=_attached_at)

    def describe(self) -> str:
        return f"shed {self.runtime.spec.name} (#P > {self.cap})"


class DeadlineSweepGuard(ShedGuard):
    """Sweep arm: rendezvous with queued calls that are already dead.

    Ready when an ATTACHED call's end-to-end deadline has expired — or
    its caller was already resumed by a per-hop timeout or crash
    detection — so serving it could not possibly help anyone.  The
    manager yields ``Reject`` and the slot frees at reject cost; since
    the caller is long gone, no error reaches it (``EntryRuntime.fail``
    settles a call at most once).  Sweeps in element order, and in O(1)
    finds nothing to sweep while no attached call carries an expiry.

    Runs at :data:`SWEEP_PRI`, between ``await`` and the queue-cap shed
    arm: freeing a slot held by a corpse beats shedding a live call.
    """

    reason = "deadline-expired"

    def __init__(self, obj: Any, proc_name: str, pri: Any = SWEEP_PRI) -> None:
        AcceptGuard.__init__(self, obj, proc_name, when=None, pri=pri)
        self.cap = None

    def refuses(self, kernel: Any) -> bool:
        # Only a call with an armed expiry can be dead while it is queued.
        return not self.runtime.mortal

    def choose(self, kernel: Any, calls: list) -> Any:
        now = kernel.clock.now
        for call in calls:
            if call.dead(now):
                return call
        return None

    def describe(self) -> str:
        return f"sweep {self.runtime.spec.name} (deadline expired)"


class PredictedWaitGuard(ShedGuard):
    """Latency-aware shed arm: refuse calls that cannot make their deadline.

    Ready for an ATTACHED, deadlined, still-live call when the entry's
    predicted wait — the EWMA of observed body service times multiplied
    by the current queue depth (``#P``) — already exceeds the call's
    remaining budget.  Shedding it on arrival costs one reject; serving
    it would cost a full body *and* still end in ``DeadlineExceeded``.

    Until the first body completes there is no service-time estimate and
    the guard stays quiet (never ready): admission decisions are only
    made from measured evidence, so an idle object admits everything.

    The estimate is the entry's shared
    :class:`~repro.obs.live.stream.Ewma`
    (:attr:`~repro.core.runtime.EntryRuntime.service_estimator`) — the
    same object the live telemetry plane exposes through
    :meth:`repro.obs.live.LivePlane.service_ewma`, so dashboards show
    exactly the number admission control acts on.
    """

    reason = "predicted-wait"

    def __init__(self, obj: Any, proc_name: str, pri: Any = SHED_PRI) -> None:
        AcceptGuard.__init__(self, obj, proc_name, when=None, pri=pri)
        self.cap = None

    def refuses(self, kernel: Any) -> bool:
        # No estimate yet, or no deadlined call attached to apply it to.
        runtime = self.runtime
        return not runtime.mortal or runtime.service_estimator.value is None

    def choose(self, kernel: Any, calls: list) -> Any:
        runtime = self.runtime
        now = kernel.clock.now
        predicted = runtime.service_estimator.value * runtime.pending_count()
        for call in calls:
            if call.deadline_at is None or call.caller_resumed:
                continue
            if predicted > call.deadline_at - now:
                return call
        return None

    def describe(self) -> str:
        return f"shed {self.runtime.spec.name} (predicted wait > deadline)"
