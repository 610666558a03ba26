"""Per-object, per-entry runtime state: the hidden procedure array.

An :class:`EntryRuntime` owns the array slots of one entry procedure, the
overflow queue of calls waiting to be attached ("if there are more
requests than can be accommodated in the procedure array P, the remaining
requests continue to wait", §2.5), and the two waitables managers block
on: *arrival* (a call became attached, so ``accept`` may fire) and
*completion* (a body became ready to terminate, so ``await`` may fire).

It is also the only writer of the §2.3 protocol.  Every edge a call can
take is one method here that moves ``call.state``, the slot index, the
timestamps and ``kernel.stats`` together (the table is DESIGN.md §12.2);
guards, syscalls and the fault injector call these methods and never
assign a state or touch the index themselves.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

from ..errors import AdmissionError, DeadlineExceeded, ProtocolError, RemoteCallError
from ..kernel.syscalls import Charge
from ..kernel.waiting import Waitable
from ..net.wire import send_response
from ..obs.live.stream import Ewma
from .calls import Call, CallState

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from .entry import EntrySpec
    from .pool import ServerPool


#: Smoothing factor of the per-entry service-time EWMA read by
#: :class:`~repro.core.admission.PredictedWaitGuard`.  Fixed (not
#: configurable per call) so two same-seed runs predict identically.
EWMA_ALPHA = 0.2

_intercepted_args = attrgetter("intercepted_args")
_intercepted_results = attrgetter("intercepted_results")
_slot = attrgetter("slot")


class EntryRuntime:
    """Runtime state for one entry procedure of one object instance."""

    def __init__(self, obj: Any, spec: "EntrySpec", kernel: "Kernel", pool: "ServerPool") -> None:
        self.obj = obj
        self.spec = spec
        self.kernel = kernel
        self.pool = pool
        #: Does a manager intercept this entry?  If not, a body starts as
        #: soon as its call holds an element and finishes when it returns.
        self.managed = spec.intercepted
        self.array_size = spec.resolve_array(obj)
        #: ``slots[i]`` is the call currently attached to ``P[i]`` (through
        #: its whole accept→finish life), or None when the element is free.
        self.slots: list[Call | None] = [None] * self.array_size
        #: The slot index: the free element indices, the ATTACHED calls and
        #: the BODY_DONE calls — the two states guards ask about — each in
        #: ascending element order.  Written only by the transitions below
        #: and handed to guards uncopied, so a poll builds nothing.  Always
        #: equal to a scan of ``slots`` (``tests/core/test_slot_index.py``).
        self.free_slots: list[int] = list(range(self.array_size))
        self.attached: list[Call] = []
        self.done: list[Call] = []
        #: How many ``attached`` calls carry an armed expiry: only those can
        #: be dead while queued, so at 0 the sweep arms have nothing to find.
        self.mortal = 0
        #: Calls waiting for a free array element.
        self.waiting: deque[Call] = deque()
        #: Notified when a call becomes ATTACHED (wakes ``accept`` guards).
        self.arrival = Waitable()
        #: Notified when a body reaches BODY_DONE (wakes ``await`` guards).
        self.completion = Waitable()
        #: Completed calls, retained when the object records statistics.
        self.completed: list[Call] = []
        self.record_calls = False
        #: EWMA of observed body service times (dispatch → body done), in
        #: ticks; ``.value`` is None until the first body completes.
        #: Deterministic: updated only from virtual timestamps, in
        #: completion order.  One estimator serves two readers —
        #: :class:`~repro.core.admission.PredictedWaitGuard` and the live
        #: telemetry plane's query API
        #: (:meth:`repro.obs.live.LivePlane.service_ewma`) — and it is
        #: always on, so schedules are identical with the plane on or off.
        self.service_estimator = Ewma(EWMA_ALPHA)

    @property
    def service_ewma(self) -> float | None:
        """The current service-time estimate in ticks (None if unmeasured)."""
        return self.service_estimator.value

    #: ``attached`` and ``done`` as element indices: derived, read-only views.
    attached_slots = property(lambda self: [call.slot for call in self.attached])
    done_slots = property(lambda self: [call.slot for call in self.done])

    # ------------------------------------------------------------------
    # Arrival and attachment (§2.5)
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """The paper's ``#P``: attached-but-not-accepted plus waiting."""
        return len(self.attached) + len(self.waiting)

    def submit(self, call: Call) -> None:
        """A new invocation arrived: attach it, queue it, or run it.

        A non-intercepted entry has no manager rendezvous — "each time an
        entry procedure is called a process is created implicitly and
        made to execute the procedure" (§2.3) — so its body starts at
        once; array elements still bound concurrency if it declares any.
        """
        self.kernel.stats.calls_issued += 1
        bounded = self.managed or self.spec.array is not None
        if bounded and not self.attach(call):
            self.waiting.append(call)
            self._queue_event("slot.queue.enter", call)
        elif not self.managed:
            self.start(call)

    def attach(self, call: Call) -> bool:
        """PENDING → ATTACHED on a free element, if any.

        The element is "selected arbitrarily by the implementation"
        (§2.5); under ``ordered`` arbitration the lowest free index is
        used, under ``random`` a seeded-random free index.
        """
        free = self.free_slots
        if not free:
            return False
        if self.kernel.arbitration == "random" and len(free) > 1:
            index = self.kernel.rng.choice(free)
            free.remove(index)
        else:
            index = free.pop(0)
        call.slot = index
        call.state = CallState.ATTACHED
        call.attached_at = self.kernel.clock.now
        self.slots[index] = call
        insort(self.attached, call, key=_slot)
        if call.expiry_cancel is not None:
            self.mortal += 1
        self.kernel.notify(self.arrival)
        return True

    def _queue_event(self, kind: str, call: Call) -> None:
        """Sink-only instant marking a slot-queue boundary (§2.5 overflow).

        Pure observation: delivered straight to the attached sinks, never
        the event queue, so the schedule is untouched (the neutrality
        test in ``tests/obs/`` runs this path with sinks on and off).
        """
        obs = self.kernel.obs
        if not obs.enabled:
            return
        obs.instant(
            kind,
            process=call.caller.name,
            obj=self.obj.alps_name,
            entry=self.spec.name,
            call_id=call.call_id,
            slot=call.slot,
            waiting=len(self.waiting),
        )

    def detach(self, call: Call) -> None:
        """Free the call's element and attach the next waiting call."""
        assert call.slot is not None
        if self.slots[call.slot] is not call:
            raise ProtocolError(
                f"{self.spec.name}[{call.slot}]: detach of a call that is "
                f"not attached there"
            )
        self.slots[call.slot] = None
        insort(self.free_slots, call.slot)
        if self.waiting:
            nxt = self.waiting.popleft()
            self.attach(nxt)  # cannot fail: an element was just freed
            self._queue_event("slot.queue.leave", nxt)
            if not self.managed:
                self.start(nxt)  # no manager will ever accept it

    def retire(self, call: Call) -> None:
        """The call leaves the object: free its worker, then its element.

        Called on the way to DONE or FAILED, while ``call.state`` still
        says how far the call got: only an ACCEPTED call (combined or
        rejected) never had a body started.
        """
        if call.state is not CallState.ACCEPTED:
            self.pool.release(call)
        if call.slot is not None:
            self.detach(call)

    # ------------------------------------------------------------------
    # Guard views
    # ------------------------------------------------------------------

    def _matching(
        self,
        indexed: list[Call],
        state: CallState,
        slot: int | None,
        when: Callable[..., bool] | None,
        values: Callable[[Call], tuple],
    ) -> list[Call]:
        if slot is None:
            calls = indexed
        else:
            call = self.slots[slot] if 0 <= slot < self.array_size else None
            calls = [call] if call is not None and call.state is state else []
        if when is not None:
            calls = [call for call in calls if when(*values(call))]
        return calls

    def acceptable(
        self, slot: int | None, when: Callable[..., bool] | None
    ) -> list[Call]:
        """ATTACHED calls matching ``slot`` and the acceptance condition.

        In element order; empty when none.  ``when`` is evaluated on the
        intercepted-parameter subsequence — the SR-style "receive into
        temporaries, then test" of §2.4.  Read-only: with neither ``slot``
        nor ``when`` the result is the index list itself.
        """
        return self._matching(
            self.attached, CallState.ATTACHED, slot, when, _intercepted_args
        )

    def awaitable(
        self, slot: int | None, when: Callable[..., bool] | None
    ) -> list[Call]:
        """BODY_DONE calls matching ``slot`` and the result condition (read-only too)."""
        return self._matching(
            self.done, CallState.BODY_DONE, slot, when, _intercepted_results
        )

    # ------------------------------------------------------------------
    # The manager's edges (§2.3)
    # ------------------------------------------------------------------

    def accepted(self, call: Call) -> None:
        """ATTACHED → ACCEPTED: the manager rendezvoused with the call."""
        call._expect_state(CallState.ATTACHED)
        self.attached.remove(call)
        if call.expiry_cancel is not None:
            self.mortal -= 1
        call.state = CallState.ACCEPTED
        call.accepted_at = self.kernel.clock.now
        self.kernel.stats.accepts += 1

    def start(self, call: Call, hidden: tuple = ()) -> None:
        """→ STARTED: dispatch the body of ``call`` onto a server process.

        From ACCEPTED for a managed entry, whose body reports BODY_DONE
        and waits for ``finish``; straight from arrival (PENDING, or
        ATTACHED if the entry declares an array) for a non-intercepted
        one, whose body finishes the call itself.
        """
        if call.state is CallState.ATTACHED:  # unmanaged: no accept came first
            self.attached.remove(call)
            if call.expiry_cancel is not None:
                self.mortal -= 1
        call.hidden_args = hidden
        call.state = CallState.STARTED
        call.started_at = self.kernel.clock.now
        self.kernel.stats.starts += 1
        self.pool.dispatch(call)

    def run_body(self, call: Call):
        """What the server process of a started ``call`` runs (→ BODY_DONE,
        or straight to DONE for a non-intercepted entry)."""
        spec = self.spec
        try:
            if spec.work:
                yield Charge(spec.work, label=spec.name)
            raw = spec.fn(self.obj, *call.args, *call.hidden_args)
            if hasattr(raw, "send") and hasattr(raw, "throw"):
                raw = yield from raw
            results = spec.normalize_results(raw)
        except GeneratorExit:
            # The server process was killed (node crash): whoever
            # killed it owns cleanup and caller notification; the
            # caller must not receive a GeneratorExit.
            raise
        except BaseException as exc:
            # A failing body must not wedge the object: free the slot
            # and worker, and re-raise the error in the caller.
            self.retire(call)
            self.fail(call, exc)
            return
        call.body_results = results
        call.body_done_at = self.kernel.clock.now
        self.observe_service(call)
        if self.managed:
            call.state = CallState.BODY_DONE
            if self.slots[call.slot] is call:  # not orphaned by reset()
                insort(self.done, call, key=_slot)
            self.kernel.notify(self.completion)
            # The server process conceptually lives until the manager
            # executes finish (§2.3: "both the finish P(...) and P
            # terminate together").  The finish primitive resumes the
            # caller and releases the worker; this generator ends here
            # but the pool slot stays occupied until release().
        else:
            self.finish(call, results[: spec.returns])

    def awaited(self, call: Call) -> None:
        """BODY_DONE → AWAITED: the manager received the results."""
        call._expect_state(CallState.BODY_DONE)
        self.done.remove(call)
        call.state = CallState.AWAITED
        self.kernel.stats.awaits += 1

    def finish(self, call: Call, results: tuple) -> None:
        """→ DONE, the one ok fate; ``results`` are the caller's.

        From AWAITED the manager endorsed the body's termination; from
        ACCEPTED it *combined* the call away and no body ever ran (§2.7);
        from STARTED a non-intercepted body returned.
        """
        stats = self.kernel.stats
        if self.managed:
            stats.finishes += 1
            if call.state is CallState.ACCEPTED:
                call.combined = True
                stats.calls_combined += 1
        stats.calls_completed += 1
        self.retire(call)
        call.state = CallState.DONE
        call.finished_at = self.kernel.clock.now
        if self.record_calls:
            self.completed.append(call)
        self.resume_caller(call, results)

    def reject(self, call: Call, reason: str) -> None:
        """ACCEPTED → FAILED with no body: shed a live call, sweep a dead one.

        A sweep — the caller was already resumed by a deadline expiry, a
        per-hop timeout or crash detection — only frees the element, so
        it is not counted as a shed response (and ``fail`` owes nobody).
        """
        kernel = self.kernel
        if call.caller_resumed:
            kernel.metrics.counter(
                "admission.swept",
                "Dead queued calls swept at accept time (slot freed, "
                "no response owed)",
            ).inc()
        else:
            kernel.stats.calls_shed += 1
            kernel.metrics.counter(
                f"admission.shed.{reason}",
                "Calls shed by admission control, by reason",
            ).inc()
        self.retire(call)
        obj, entry = self.obj.alps_name, self.spec.name
        self.fail(
            call,
            AdmissionError(
                f"{obj}.{entry} shed the call ({reason})",
                entry=entry,
                obj=obj,
                reason=reason,
            ),
            "shed",
        )

    # ------------------------------------------------------------------
    # Settlement: the caller is resumed exactly once
    # ------------------------------------------------------------------

    def resume_caller(self, call: Call, results: tuple) -> None:
        """Deliver ``results`` (definition results only) to the caller.

        A caller is resumed at most once: if the call already expired (a
        timed call), or was failed by crash detection, the response is
        discarded.  A remote caller's response crosses the network; one
        lost there settles nothing — the caller recovers through a
        timeout (plus retry), never through a silent double-resume.
        """
        if call.caller_resumed:
            return
        returns = self.spec.returns
        value = None if returns == 0 else results[0] if returns == 1 else tuple(results)
        kernel = self.kernel
        if call.response_delay is None:
            # A settlement wakes only the wait that made the call: a caller
            # thrown out of it from outside the protocol waits elsewhere.
            record = call.caller.waiting_for
            if record is not None and record[1] is call:
                kernel.schedule_resume(call.caller, value)
        elif not send_response(kernel, call, value):
            return
        call.caller_resumed = True
        if call.expiry_cancel is not None:
            call.expiry_cancel["cancelled"] = True
        if kernel.obs.enabled:
            kernel.obs.complete_call(call, status="ok")

    def fail(
        self,
        call: Call,
        exc: BaseException,
        status: str = "error",
        expired: bool = False,
    ) -> None:
        """Settle ``call`` by raising ``exc`` in its caller, at most once.

        Every fate but ok ends here; ``status`` labels the root span:
        ``"error"`` (the body raised), ``"shed"`` (admission control),
        ``"failed"`` (crash detection), ``"timeout"``/``"deadline"``.

        The last two are ``expired``, the one fate that leaves
        ``call.state`` alone: the caller is gone (``call.dead()``) but
        the object may still rendezvous with the corpse — a sweep arm
        frees the element at reject cost, a plain accept arm serves it
        and discards the response (at-least-once).  Forcing FAILED here
        would wedge the element and race the accept/start/reject window;
        sweeping managers are woken instead, if the call is still in
        ``#P`` (one that was never delivered is not).
        """
        if not expired:
            call.state = CallState.FAILED
        if call.caller_resumed:
            return
        kernel = self.kernel
        call.caller_resumed = True
        call.finished_at = kernel.clock.now
        if call.expiry_cancel is not None:
            call.expiry_cancel["cancelled"] = True
        if kernel.obs.enabled:
            kernel.obs.complete_call(call, status=status)
        if expired:
            self._expired(call, status)
        record = call.caller.waiting_for
        if record is not None and record[1] is call:  # as in resume_caller
            kernel.schedule_throw(call.caller, exc)

    def _expired(self, call: Call, status: str) -> None:
        """Trace an expiry; wake sweep arms if it left a corpse in ``#P``."""
        kernel = self.kernel
        counter = kernel.metrics.counter
        obj, entry = self.obj.alps_name, self.spec.name
        if status == "deadline":
            counter("deadline.expired", "Calls whose end-to-end deadline expired").inc()
            kernel.trace.record(
                kernel.clock.now, "deadline_exceeded", call.caller.name,
                entry=entry, obj=obj, state=call.state.value,
            )
        else:
            kernel.trace.record(
                kernel.clock.now, "call_timeout", call.caller.name,
                entry=entry, obj=obj, after=call.timeout,
            )
        if call.state is CallState.ATTACHED or (
            call.state is CallState.PENDING and call in self.waiting
        ):
            kernel.notify(self.arrival)
            if status == "deadline":
                counter(
                    "deadline.expired_queued",
                    "Deadlines that expired while the call was still queued",
                ).inc()

    def arm_expiry(self, call: Call) -> None:
        """Post the one event that can expire ``call``.

        Whichever of the per-hop timeout and the end-to-end deadline
        comes first settles the call and so voids the other; on a tie
        the timeout wins.  Cancelled at the first settlement.
        """
        when = call.deadline_at
        if call.timeout is not None:
            due = call.issued_at + call.timeout
            if when is None or due <= when:
                when = due
        call.expiry_cancel = cancel = {"cancelled": False}
        self.kernel.post(
            when, lambda: self.expire(call), priority=call.caller.priority, cancel=cancel
        )

    def expire(self, call: Call) -> None:
        """The armed expiry fired (or the budget was spent before issue)."""
        obj, entry = self.obj.alps_name, self.spec.name
        timeout = call.timeout
        if timeout is not None and call.issued_at + timeout <= self.kernel.clock.now:
            exc: RemoteCallError = RemoteCallError(
                f"call to {obj}.{entry} timed out after {timeout} ticks",
                entry=entry,
                obj=obj,
            )
            status = "timeout"
        else:
            exc = DeadlineExceeded(
                f"call to {obj}.{entry} exceeded its deadline "
                f"(t={call.deadline_at})",
                entry=entry,
                obj=obj,
                deadline_at=call.deadline_at,
            )
            status = "deadline"
        self.fail(call, exc, status, expired=True)

    def requeue(self, call: Call) -> None:
        """→ PENDING: forget an attempt a crash interrupted.

        The supervisor re-submits the call once the object is back; the
        caller never notices, and the armed expiry keeps its anchor.
        """
        call.state = CallState.PENDING
        call.slot = None
        call.hidden_args = ()
        call.body_results = None
        call.body_process = None
        call.combined = False

    def observe_service(self, call: Call) -> None:
        """Fold one completed body's service time into the EWMA."""
        start = call.dispatched_at if call.dispatched_at is not None else call.started_at
        if start is None or call.body_done_at is None:
            return
        sample = call.body_done_at - start
        self.service_estimator.update(sample)

    def reset(self) -> None:
        """Forget all in-flight calls (crash recovery; see ``AlpsObject.restart``)."""
        self.slots = [None] * self.array_size
        # In place: guards hold these lists as their ``poll_source``.
        self.free_slots[:] = range(self.array_size)
        self.attached.clear()
        self.done.clear()
        self.mortal = 0
        self.waiting.clear()

    def describe(self) -> str:
        return (
            f"{self.spec.name}[1..{self.array_size}] "
            f"attached={self.array_size - len(self.free_slots)} "
            f"waiting={len(self.waiting)}"
        )
