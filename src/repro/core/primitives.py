"""The manager primitives: ``accept``, ``start``, ``await``, ``finish``,
``execute`` (§2.3) and the entry-call syscall itself.

``Accept`` and ``Await`` are *guards* — they appear inside ``select`` /
``loop`` (§2.4) and may carry acceptance conditions (``when``) and
run-time priorities (``pri``).  ``Start`` and ``Finish`` are syscalls the
manager yields directly.  ``execute_call`` is the packaged
``execute P(params, results)`` construct, equivalent to
``start P(params); await P(results); finish P(results)``.

Quantified guards: the paper writes ``(i:1..N) accept P[i] ...``.  Here an
``Accept``/``Await`` with ``slot=None`` ranges over the whole hidden
procedure array; ``slot=i`` names one element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..errors import CallError, ProtocolError
from ..kernel.process import ProcessState
from ..kernel.syscalls import Select, Syscall
from ..kernel.waiting import Guard, Ready, Waitable
from ..net.wire import send_request
from .calls import Call, CallState

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process
    from .runtime import EntryRuntime


def _runtime_of(source: Any, proc_name: str) -> "EntryRuntime":
    """Resolve the runtime of ``proc_name`` on an AlpsObject: one lookup."""
    try:
        return source._runtimes[proc_name]
    except KeyError:
        return source._entry_runtime(proc_name)  # raises, naming the entries
    except AttributeError:
        raise ProtocolError(f"{source!r} is not an ALPS object") from None


class EntryCall(Syscall):
    """Syscall issued by callers: ``X.P(args)`` (§2.2).

    Produced by attribute access on an :class:`~repro.core.object_model.AlpsObject`
    — ``yield buffer.deposit(msg)``.  The caller blocks until the call is
    finished (remote-procedure-call semantics); parallelism comes from
    ``par`` (§2.1.1).

    ``timeout`` makes the call *timed*: if no response (or failure) has
    reached the caller within that many ticks, the caller is resumed with
    a :class:`~repro.errors.RemoteCallError` instead — the same anchored
    one-shot deadline semantics as :class:`~repro.kernel.timeouts.Timeout`
    — and any eventual response for the abandoned call is discarded.

    ``deadline`` gives the call an *end-to-end* budget, distinct from the
    per-hop ``timeout``: it is stored on the :class:`~repro.core.calls.Call`
    as an absolute tick, inherited by every nested call the body issues
    (the pool worker carries ``deadline_at``; a nested explicit deadline
    can only shrink the budget, never extend it), and expires with
    :class:`~repro.errors.DeadlineExceeded`.  A call whose deadline
    passes while still queued is *dead*: sweep arms shed it at accept
    time instead of wasting a body on it.
    """

    __slots__ = ("obj", "proc_name", "args", "from_inside", "timeout", "deadline")

    def __init__(
        self,
        obj: Any,
        proc_name: str,
        args: tuple,
        from_inside: bool = False,
        timeout: int | None = None,
        deadline: int | None = None,
    ) -> None:
        self.obj = obj
        self.proc_name = proc_name
        self.args = args
        self.from_inside = from_inside
        self.timeout = timeout
        self.deadline = deadline

    def handle(self, kernel: "Kernel", proc: "Process", cost: int) -> None:
        try:
            runtime = _runtime_of(self.obj, self.proc_name)
        except ProtocolError as exc:
            kernel.schedule_throw(proc, exc)
            return
        spec = runtime.spec
        if not spec.exported and not self.from_inside:
            kernel.schedule_throw(
                proc,
                CallError(
                    f"{self.proc_name!r} is a local procedure of "
                    f"{self.obj.alps_name} and cannot be called from outside"
                ),
            )
            return
        if len(self.args) != spec.params:
            kernel.schedule_throw(proc, _arity(spec, len(self.args)))
            return
        if self.timeout is not None and self.timeout < 0:
            kernel.schedule_throw(
                proc, CallError(f"call timeout must be >= 0, got {self.timeout}")
            )
            return
        if self.deadline is not None and self.deadline < 0:
            kernel.schedule_throw(
                proc, CallError(f"call deadline must be >= 0, got {self.deadline}")
            )
            return

        call = Call(self.obj, spec, tuple(self.args), proc)
        call.runtime = runtime
        proc.state = ProcessState.BLOCKED
        proc.waiting_for = ("call", call)
        # The caller-perceived issue instant — before any network delay.
        call.issued_at = now = kernel.clock.now
        # Effective deadline: the smaller of the explicit budget and the
        # budget inherited from the enclosing call this process serves.
        explicit = now + self.deadline if self.deadline is not None else None
        inherited = proc.deadline_at
        if explicit is not None and inherited is not None:
            call.deadline_at = min(explicit, inherited)
        else:
            call.deadline_at = explicit if explicit is not None else inherited
        if kernel.obs.enabled:
            kernel.obs.call_issued(call, proc)
            if call.span is not None and call.deadline_at is not None:
                # Remaining end-to-end budget at issue time, for traces.
                call.span.attrs["deadline_left"] = call.deadline_at - now
        if call.deadline_at is not None and call.deadline_at <= now:
            # Inherited budget already spent: fail at issue, deliver nothing.
            runtime.expire(call)
            return
        call.timeout = self.timeout
        if self.timeout is not None or call.deadline_at is not None:
            runtime.arm_expiry(call)
        send_request(kernel, call)


def _arity(spec: Any, got: int) -> CallError:
    return CallError(
        f"{spec.name} expects {spec.params} argument(s), got {got}"
    )


class AcceptGuard(Guard):
    """``accept P[i](params) when B pri E`` (§2.3, §2.4).

    Ready when a call is attached (and unaccepted) on a matching slot and
    the acceptance condition — evaluated on the intercepted parameter
    subsequence — holds.  Committing performs the rendezvous: the manager
    receives the :class:`~repro.core.calls.Call` handle carrying the
    intercepted parameters.
    """

    def __init__(
        self,
        obj: Any,
        proc_name: str,
        slot: int | None = None,
        when: Callable[..., bool] | None = None,
        pri: Any = None,
    ) -> None:
        self.runtime = _runtime_of(obj, proc_name)
        self.poll_source = self.runtime.attached
        self.slot = slot
        self.when = when
        self.pri = pri

    #: ``(kernel) -> bool``, or None: an O(1) test that this arm cannot be
    #: ready whatever is attached, asked before the calls are looked at.
    refuses: Callable[["Kernel"], bool] | None = None

    def poll(self, kernel: "Kernel") -> Ready | None:
        calls = self.runtime.attached
        if not calls:  # the common case, and O(1)
            return None
        if self.refuses is not None and self.refuses(kernel):
            return None
        if self.when is not None or self.slot is not None:  # else: all of them
            calls = self.runtime.acceptable(self.slot, self.when)
        call = self.choose(kernel, calls)
        return None if call is None else Ready(call, token=call)

    def choose(self, kernel: "Kernel", calls: list[Call]) -> Call | None:
        """The call this arm would rendezvous with, among the matches
        (``calls`` may be the runtime's own index list: read, never write).

        A quantified guard (slot=None) with a pri clause ranges over the
        whole array: "(i:1..N) accept P[i] ... pri E" selects the
        candidate with the smallest priority value (§2.4).  The admission
        arms (:mod:`repro.core.admission`) override this and ``refuses``,
        not ``poll``.
        """
        if not calls:
            return None
        return min(calls, key=self.pri) if callable(self.pri) else calls[0]

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> Call:
        call: Call = ready.token
        self.runtime.accepted(call)
        self.commit_cost = kernel.costs.accept
        return call

    def waitables(self) -> Iterable[Waitable]:
        return (self.runtime.arrival,)

    def describe(self) -> str:
        slot = "" if self.slot is None else f"[{self.slot}]"
        return f"accept {self.runtime.spec.name}{slot}"


class AwaitGuard(Guard):
    """``await P[i](results) when B pri E`` (§2.3, §2.4).

    Ready when a started body on a matching slot has terminated and the
    condition — evaluated on the intercepted result subsequence — holds.
    """

    def __init__(
        self,
        obj: Any,
        proc_name: str,
        slot: int | None = None,
        when: Callable[..., bool] | None = None,
        pri: Any = None,
        call: Call | None = None,
    ) -> None:
        self.runtime = _runtime_of(obj, proc_name)
        self.poll_source = self.runtime.done
        self.slot = call.slot if call is not None else slot
        self.only_call = call
        self.when = when
        self.pri = pri

    def poll(self, kernel: "Kernel") -> Ready | None:
        runtime = self.runtime
        if not runtime.done:  # the common case, and O(1)
            return None
        calls = runtime.awaitable(self.slot, self.when)
        if not calls:
            return None
        if self.only_call is not None:
            if self.only_call not in calls:
                return None
            call = self.only_call
        else:
            call = min(calls, key=self.pri) if callable(self.pri) else calls[0]
        return Ready(call, token=call)

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> Call:
        call: Call = ready.token
        self.runtime.awaited(call)
        self.commit_cost = kernel.costs.await_
        return call

    def waitables(self) -> Iterable[Waitable]:
        return (self.runtime.completion,)

    def wait_targets(self, kernel: "Kernel") -> list:
        """Processes whose progress could make this guard ready.

        Used by the wait-for graph (:mod:`repro.kernel.waitgraph`): an
        ``await`` fires when a started body reaches BODY_DONE, so while
        blocked the selector is waiting on the body processes of the
        matching STARTED calls.
        """
        if self.only_call is not None:
            calls = [self.only_call]
        elif self.slot is None:
            calls = [c for c in self.runtime.slots if c is not None]
        elif 0 <= self.slot < self.runtime.array_size:
            calls = [c for c in (self.runtime.slots[self.slot],) if c is not None]
        else:
            calls = []
        return [
            c.body_process
            for c in calls
            if c.state == CallState.STARTED and c.body_process is not None
        ]

    def describe(self) -> str:
        slot = "" if self.slot is None else f"[{self.slot}]"
        return f"await {self.runtime.spec.name}{slot}"


class WhenGuard(Guard):
    """A pure boolean guard: ``when B => S`` with no communication.

    Ready iff the condition evaluates true *at poll time*; infeasible
    otherwise (a select consisting only of false ``when`` guards raises
    ``GuardExhaustedError``, since nothing can ever wake it).
    """

    def __init__(self, condition: Callable[[], bool] | bool, value: Any = None, pri: Any = None) -> None:
        self.condition = condition
        self.value = value
        self.pri = pri

    def _holds(self) -> bool:
        return bool(self.condition() if callable(self.condition) else self.condition)

    def poll(self, kernel: "Kernel") -> Ready | None:
        return Ready(self.value) if self._holds() else None

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> Any:
        return ready.value

    def feasible(self) -> bool:
        # A boolean guard cannot become true while the selector is blocked
        # (only the selector could change it), so false means infeasible.
        return self._holds()

    def describe(self) -> str:
        return "when <cond>"


class Start(Syscall):
    """``start P[i](...)``: launch the accepted call's body asynchronously.

    The manager supplies the intercepted parameters back (implicitly — the
    call still carries them) plus any *hidden* parameters (§2.8).  The
    manager does not block: "the asynchronous nature of the start
    primitive allows the manager to accept other remote calls while the
    execution of P is in progress" (§2.3).  Returns the call.
    """

    __slots__ = ("call", "hidden")

    def __init__(self, call: Call, *hidden: Any) -> None:
        self.call = call
        self.hidden = hidden

    def handle(self, kernel: "Kernel", proc: "Process", cost: int) -> None:
        call = self.call
        try:
            call._expect_state(CallState.ACCEPTED, code="ALP201")
            if len(self.hidden) != call.spec.hidden_params:
                raise ProtocolError(
                    f"start {call.entry}: expected {call.spec.hidden_params} "
                    f"hidden parameter(s), got {len(self.hidden)}",
                    code="ALP108",
                )
        except ProtocolError as exc:
            kernel.schedule_throw(proc, exc)
            return
        call.runtime.start(call, self.hidden)
        kernel.schedule_resume(proc, call, cost=cost + kernel.costs.start)


class Finish(Syscall):
    """``finish P[i](...)``: endorse termination and resume the caller.

    For an awaited call the manager supplies the intercepted-result
    subsequence (pass nothing to forward the body's own values unchanged);
    the body's remaining results flow to the caller directly.  ``finish``
    never blocks: "the caller of P is simply waiting for the results"
    (§2.3).

    Applied straight after ``accept`` — without any ``start`` — this is
    request *combining* (§2.7): the manager fabricates the full result
    list itself and no body ever runs.
    """

    __slots__ = ("call", "results", "_explicit")

    def __init__(self, call: Call, *results: Any) -> None:
        self.call = call
        self.results = results
        self._explicit = len(results) > 0

    def handle(self, kernel: "Kernel", proc: "Process", cost: int) -> None:
        call = self.call
        spec = call.spec
        try:
            call._expect_state(CallState.AWAITED, CallState.ACCEPTED, code="ALP104")
            if call.state == CallState.AWAITED:
                # Normal termination: manager overrides the intercepted
                # prefix of the results (or forwards it untouched).
                icpt = spec.intercept.results if spec.intercept else 0
                if self._explicit and len(self.results) != icpt:
                    raise ProtocolError(
                        f"finish {call.entry}: manager must supply exactly "
                        f"the {icpt} intercepted result(s), got {len(self.results)}",
                        code="ALP107",
                    )
                prefix = self.results if self._explicit else call.body_results[:icpt]
                final = tuple(prefix) + tuple(call.body_results[icpt : spec.returns])
            else:
                # Combining: the call was never started; the manager is
                # "responsible to generate all the results that the caller
                # expects" (§2.7).
                if len(self.results) != spec.returns:
                    raise ProtocolError(
                        f"finish-without-start {call.entry}: manager must "
                        f"supply all {spec.returns} result(s), got "
                        f"{len(self.results)}",
                        code="ALP107",
                    )
                final = tuple(self.results)
        except ProtocolError as exc:
            kernel.schedule_throw(proc, exc)
            return
        call.runtime.finish(call, final)
        kernel.schedule_resume(proc, None, cost=cost + kernel.costs.finish)


class Reject(Syscall):
    """``reject P[i]``: shed an accepted call instead of serving it.

    The admission-control counterpart of ``finish`` (not in the paper's
    syntax, but composed entirely from its mechanisms): a manager arm
    guarded by the queue length — ``when #P > cap`` (§2.5.1) — accepts
    the excess call (the rendezvous is the only way to reach it) and
    refuses it without ever ``start``-ing a body.  The caller is resumed
    with :class:`~repro.errors.AdmissionError`; the array slot frees
    immediately so a waiting call can attach.  Like ``finish``,
    ``reject`` never blocks, and its cost is the finish cost — shedding
    must stay cheaper than serving or it is no defence against overload.
    """

    __slots__ = ("call", "reason")

    def __init__(self, call: Call, reason: str = "queue-cap") -> None:
        self.call = call
        self.reason = reason

    def handle(self, kernel: "Kernel", proc: "Process", cost: int) -> None:
        call = self.call
        try:
            call._expect_state(CallState.ACCEPTED)
        except ProtocolError as exc:
            kernel.schedule_throw(proc, exc)
            return
        call.runtime.reject(call, self.reason)
        kernel.schedule_resume(proc, None, cost=cost + kernel.costs.finish)


# ----------------------------------------------------------------------
# Sugar: single-guard selects and the packaged execute
# ----------------------------------------------------------------------


def accept(
    obj: Any,
    proc_name: str,
    slot: int | None = None,
    when: Callable[..., bool] | None = None,
) -> Select:
    """Blocking ``accept``: ``call = yield accept(self, "deposit")``."""
    select = Select(AcceptGuard(obj, proc_name, slot=slot, when=when))
    select.unwrap = True
    return select


def await_call(
    obj: Any,
    proc_name: str,
    slot: int | None = None,
    when: Callable[..., bool] | None = None,
    call: Call | None = None,
) -> Select:
    """Blocking ``await``: ``done = yield await_call(self, "deposit")``."""
    select = Select(AwaitGuard(obj, proc_name, slot=slot, when=when, call=call))
    select.unwrap = True
    return select


def execute_call(call: Call, *hidden: Any):
    """The packaged ``execute P(params, results)`` (§2.3).

    Equivalent to ``start P; await P; finish P`` with results forwarded
    unchanged.  Use as ``yield from execute_call(call)``; the manager
    blocks until the body completes — monitor-style exclusion.
    """
    yield Start(call, *hidden)
    done = yield await_call(call.obj, call.entry, call=call)
    yield Finish(done)
    return done
