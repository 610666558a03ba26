"""Per-object, per-entry runtime state: the hidden procedure array.

An :class:`EntryRuntime` owns the array slots of one entry procedure, the
overflow queue of calls waiting to be attached ("if there are more
requests than can be accommodated in the procedure array P, the remaining
requests continue to wait", §2.5), and the two waitables managers block
on: *arrival* (a call became attached, so ``accept`` may fire) and
*completion* (a body became ready to terminate, so ``await`` may fire).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ProtocolError
from ..kernel.waiting import Waitable
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


class EntryRuntime:
    """Runtime state for one entry procedure of one object instance."""

    def __init__(self, obj: Any, spec: "EntrySpec", kernel: "Kernel", pool: "ServerPool") -> None:
        self.obj = obj
        self.spec = spec
        self.kernel = kernel
        self.pool = pool
        self.array_size = spec.resolve_array(obj)
        #: ``slots[i]`` is the call currently attached to ``P[i]`` (through
        #: its whole accept→finish life), or None when the element is free.
        self.slots: list[Call | None] = [None] * self.array_size
        #: The slot index: ascending element indices that are free, whose
        #: call is ATTACHED, and whose call is BODY_DONE — the two states
        #: guards ask about.  Maintained at the transition sites
        #: (``try_attach``, ``detach``, ``AcceptGuard.commit``,
        #: ``start_body``, body-done, ``AwaitGuard.commit``, ``reset``) so
        #: a poll costs O(matches), not O(array).  Always equal to a scan
        #: of ``slots`` (``tests/core/test_slot_index.py``).
        self.free_slots: list[int] = list(range(self.array_size))
        self.attached_slots: list[int] = []
        self.done_slots: list[int] = []
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

    # ------------------------------------------------------------------
    # Attachment (§2.5)
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """The paper's ``#P``: attached-but-not-accepted plus waiting."""
        return len(self.attached_slots) + len(self.waiting)

    def submit(self, call: Call) -> None:
        """A new invocation arrived: attach it or queue it."""
        if call.issued_at is None:
            call.issued_at = self.kernel.clock.now
        self.kernel.stats.calls_issued += 1
        if not self.try_attach(call):
            self.waiting.append(call)
            self._queue_event("slot.queue.enter", call)

    def submit_unmanaged(self, call: Call) -> None:
        """Invocation of a non-intercepted entry (§2.3).

        No manager rendezvous: "each time an entry procedure is called a
        process is created implicitly and made to execute the procedure".
        Array slots still bound concurrency if the entry declares one.
        """
        if call.issued_at is None:
            call.issued_at = self.kernel.clock.now
        self.kernel.stats.calls_issued += 1
        if self.spec.array is not None and not self.try_attach(call):
            self.waiting.append(call)
            self._queue_event("slot.queue.enter", call)
            return
        self.start_body(call, managed=False)

    def try_attach(self, call: Call) -> bool:
        """Attach ``call`` to a free element, if any.

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
        insort(self.attached_slots, index)
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
        """Free the call's slot and attach the next waiting call."""
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
            self.try_attach(nxt)  # cannot fail: an element was just freed
            self._queue_event("slot.queue.leave", nxt)

    # ------------------------------------------------------------------
    # Guard views
    # ------------------------------------------------------------------

    def _matching(
        self,
        indexed: list[int],
        state: CallState,
        slot: int | None,
        when: Callable[..., bool] | None,
        values: Callable[[Call], tuple],
    ) -> list[Call]:
        slots = self.slots
        if slot is None:
            calls = [slots[i] for i in indexed]
        else:
            call = slots[slot] if 0 <= slot < self.array_size else None
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
        temporaries, then test" of §2.4.
        """
        return self._matching(
            self.attached_slots, CallState.ATTACHED, slot, when, _intercepted_args
        )

    def awaitable(
        self, slot: int | None, when: Callable[..., bool] | None
    ) -> list[Call]:
        """BODY_DONE calls matching ``slot`` and the result condition."""
        return self._matching(
            self.done_slots, CallState.BODY_DONE, slot, when, _intercepted_results
        )

    # ------------------------------------------------------------------
    # Body execution
    # ------------------------------------------------------------------

    def start_body(self, call: Call, managed: bool) -> None:
        """Dispatch the body of ``call`` onto a server process.

        ``managed`` bodies report BODY_DONE and wait for ``finish``;
        unmanaged (non-intercepted) bodies deliver results directly.
        """
        runtime = self

        def job():
            try:
                if runtime.spec.work:
                    from ..kernel.syscalls import Charge

                    yield Charge(runtime.spec.work, label=runtime.spec.name)
                raw = runtime.spec.fn(runtime.obj, *call.args, *call.hidden_args)
                if hasattr(raw, "send") and hasattr(raw, "throw"):
                    raw = yield from raw
                results = runtime.spec.normalize_results(raw)
            except GeneratorExit:
                # The server process was killed (node crash): whoever
                # killed it owns cleanup and caller notification; the
                # caller must not receive a GeneratorExit.
                raise
            except BaseException as exc:
                # A failing body must not wedge the object: free the slot
                # and worker, and re-raise the error in the caller.
                runtime.pool.release(call)
                if call.slot is not None:
                    runtime.detach(call)
                runtime.fail_caller(call, exc)
                return
            call.body_results = results
            call.body_done_at = runtime.kernel.clock.now
            runtime.observe_service(call)
            if managed:
                call.state = CallState.BODY_DONE
                if runtime.slots[call.slot] is call:  # not orphaned by reset()
                    insort(runtime.done_slots, call.slot)
                runtime.kernel.notify(runtime.completion)
                # The server process conceptually lives until the manager
                # executes finish (§2.3: "both the finish P(...) and P
                # terminate together").  The finish primitive resumes the
                # caller and releases the worker; this generator ends here
                # but the pool slot stays occupied until release().
            else:
                runtime.complete_unmanaged(call)

        if call.state is CallState.ATTACHED:  # unmanaged: no accept came first
            self.attached_slots.remove(call.slot)
        call.state = CallState.STARTED
        call.started_at = self.kernel.clock.now
        self.kernel.stats.starts += 1
        self.pool.dispatch(job, call)

    def complete_unmanaged(self, call: Call) -> None:
        """Finish a non-intercepted call: results flow straight back."""
        call.state = CallState.DONE
        call.finished_at = self.kernel.clock.now
        self.kernel.stats.calls_completed += 1
        self.pool.release(call)
        if call.slot is not None:
            self.detach(call)
            # With no manager to accept them, newly attached waiting calls
            # must be started here.
            for index in list(self.attached_slots):
                self.start_body(self.slots[index], managed=False)
        self.record(call)
        self.resume_caller(call, call.body_results[: self.spec.returns])

    def resume_caller(self, call: Call, results: tuple) -> None:
        """Deliver ``results`` (definition results only) to the caller.

        A caller is resumed at most once: if the call already expired (a
        timed call), or was failed by crash detection, the response is
        discarded.  With a fault injector installed, the response leg may
        itself be lost or jittered.
        """
        if call.caller_resumed:
            return
        faults = self.kernel.faults
        if faults is not None and faults.drop_response(call):
            # Response lost in the network; the caller recovers through a
            # timeout (plus retry), never through a silent double-resume.
            return
        call.caller_resumed = True
        if call.timeout_cancel is not None:
            call.timeout_cancel["cancelled"] = True
        if call.deadline_cancel is not None:
            call.deadline_cancel["cancelled"] = True
        value: Any
        if self.spec.returns == 0:
            value = None
        elif self.spec.returns == 1:
            value = results[0]
        else:
            value = tuple(results)
        if call.response_delay:
            kernel = self.kernel
            # The caller-perceived completion includes the response leg.
            if call.finished_at is not None:
                call.finished_at += call.response_delay
            kernel.post(
                kernel.clock.now + call.response_delay,
                lambda: kernel.schedule_resume(call.caller, value),
                priority=call.caller.priority,
            )
        else:
            self.kernel.schedule_resume(call.caller, value)
        if self.kernel.obs.enabled:
            self.kernel.obs.complete_call(call, status="ok")

    def fail_caller(
        self, call: Call, exc: BaseException, status: str = "error"
    ) -> None:
        """Propagate a body failure to the caller (at most once).

        ``status`` labels the call's root span on completion — ``"error"``
        for body failures, ``"shed"`` when admission control rejected it.
        """
        call.state = CallState.FAILED
        if call.caller_resumed:
            return
        call.caller_resumed = True
        if call.timeout_cancel is not None:
            call.timeout_cancel["cancelled"] = True
        if call.deadline_cancel is not None:
            call.deadline_cancel["cancelled"] = True
        if self.kernel.obs.enabled:
            self.kernel.obs.complete_call(call, status=status)
        self.kernel.schedule_throw(call.caller, exc)

    def observe_service(self, call: Call) -> None:
        """Fold one completed body's service time into the EWMA."""
        start = call.dispatched_at if call.dispatched_at is not None else call.started_at
        if start is None or call.body_done_at is None:
            return
        sample = call.body_done_at - start
        self.service_estimator.update(sample)

    def record(self, call: Call) -> None:
        if self.record_calls:
            self.completed.append(call)

    def reset(self) -> None:
        """Forget all in-flight calls (crash recovery; see ``AlpsObject.restart``)."""
        self.slots = [None] * self.array_size
        # In place: guards hold these lists as their ``poll_source``.
        self.free_slots[:] = range(self.array_size)
        self.attached_slots.clear()
        self.done_slots.clear()
        self.waiting.clear()

    def describe(self) -> str:
        return (
            f"{self.spec.name}[1..{self.array_size}] "
            f"attached={self.array_size - len(self.free_slots)} "
            f"waiting={len(self.waiting)}"
        )
