"""Entry-call records and their life cycle.

Every invocation of an entry procedure is reified as a :class:`Call` that
moves through the protocol of §2.3:

``PENDING`` (issued, waiting to be attached to a procedure-array slot) →
``ATTACHED`` (bound to ``P[i]``, visible to ``accept P[i]``) →
``ACCEPTED`` (manager rendezvoused, intercepted parameters transferred) →
``STARTED`` (body executing asynchronously) →
``BODY_DONE`` (body ready to terminate, visible to ``await P[i]``) →
``AWAITED`` (manager received intercepted results) →
``DONE`` (manager ``finish``ed; caller resumed with results).

Combining (§2.7) short-circuits: ``ACCEPTED → DONE`` with the manager
fabricating all results.  Non-intercepted entries skip the manager
entirely: ``PENDING → STARTED → DONE``.

Every transition is made by a method of the call's
:class:`~repro.core.runtime.EntryRuntime`, and only there.  Timestamps
for every transition are recorded so benchmarks can report response
time, queueing delay and service time without extra plumbing.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process
    from .entry import EntrySpec


class CallState(enum.Enum):
    PENDING = "pending"
    ATTACHED = "attached"
    ACCEPTED = "accepted"
    STARTED = "started"
    BODY_DONE = "body_done"
    AWAITED = "awaited"
    DONE = "done"
    FAILED = "failed"


class Call:
    """One invocation of an entry (or intercepted local) procedure."""

    _counter = 0

    __slots__ = (
        "call_id",
        "obj",
        "spec",
        "args",
        "caller",
        "runtime",
        "state",
        "slot",
        "hidden_args",
        "body_results",
        "body_process",
        "combined",
        "issued_at",
        "attached_at",
        "accepted_at",
        "started_at",
        "dispatched_at",
        "body_done_at",
        "finished_at",
        "response_delay",
        "caller_resumed",
        "timeout",
        "deadline_at",
        "expiry_cancel",
        "interrupted",
        "delivery_epoch",
        "span",
    )

    def __init__(self, obj: Any, spec: "EntrySpec", args: tuple, caller: "Process") -> None:
        kernel = getattr(obj, "kernel", None)
        if kernel is not None:
            kernel._next_call_id += 1
            self.call_id = kernel._next_call_id
        else:
            Call._counter += 1
            self.call_id = Call._counter
        self.obj = obj
        self.spec = spec
        #: Invocation parameters (the *definition* parameters only).
        self.args = args
        self.caller = caller
        #: The :class:`~repro.core.runtime.EntryRuntime` that owns every
        #: transition of this call; filled in when the call is issued.
        self.runtime = None
        self.state = CallState.PENDING
        #: Index into the hidden procedure array once attached, else None.
        self.slot: int | None = None
        #: Hidden parameters supplied by the manager at ``start`` (§2.8).
        self.hidden_args: tuple = ()
        #: Full normalized result tuple produced by the body
        #: (definition results then hidden results).
        self.body_results: tuple | None = None
        self.body_process: "Process | None" = None
        #: True when the manager finished this call without starting it.
        self.combined = False
        self.issued_at: int | None = None
        self.attached_at: int | None = None
        self.accepted_at: int | None = None
        self.started_at: int | None = None
        #: When the body actually landed on a server process — later than
        #: ``started_at`` whenever the pool's backlog queued the start.
        self.dispatched_at: int | None = None
        self.body_done_at: int | None = None
        self.finished_at: int | None = None
        #: Ticks the response leg takes; None when there is none (caller
        #: and object share a node).  The request leg of a remote call
        #: sets it to its own delay (what a failed call's spans are drawn
        #: with), the response leg to what the reply really took.
        self.response_delay: int | None = None
        #: True once the caller has been resumed or thrown into — exactly
        #: once per call, whichever of completion, failure, timeout expiry
        #: or crash detection happens first wins.
        self.caller_resumed = False
        #: Deadline of a timed call (``yield obj.p(args, timeout=n)``).
        self.timeout: int | None = None
        #: Absolute end-to-end deadline (§ deadline propagation): the
        #: smaller of the caller's explicit ``deadline=`` and any budget
        #: inherited from the process serving an enclosing call.
        self.deadline_at: int | None = None
        #: Cancellation token of the one armed expiry event (the earlier
        #: of timeout and deadline), if any.
        self.expiry_cancel: dict | None = None
        #: Set by the fault injector when a node crash interrupted this
        #: call; a Supervisor may re-queue it (which clears the flag).
        self.interrupted = False
        #: Bumped whenever a crash invalidates an in-flight request
        #: delivery; stale delivery events compare epochs and drop out.
        self.delivery_epoch = 0
        #: Root observability span of this call, while open; None when
        #: spans are disabled (the common case) or once completed.
        self.span = None

    # -- views used by the manager ---------------------------------------

    @property
    def entry(self) -> str:
        """Name of the invoked procedure."""
        return self.spec.name

    @property
    def intercepted_args(self) -> tuple:
        """The initial parameter subsequence the manager intercepts (§2.6)."""
        return self.args[: self.spec.intercept.params]

    @property
    def intercepted_results(self) -> tuple:
        """The initial result subsequence the manager intercepts (§2.6)."""
        if self.body_results is None:
            raise ProtocolError(
                f"call #{self.call_id} to {self.entry}: results not available "
                f"before the body terminates"
            )
        return self.body_results[: self.spec.intercept.results]

    @property
    def hidden_results(self) -> tuple:
        """Results beyond the definition's result list (§2.8)."""
        if self.body_results is None:
            raise ProtocolError(
                f"call #{self.call_id} to {self.entry}: results not available "
                f"before the body terminates"
            )
        return self.body_results[self.spec.returns :]

    # -- deadlines ---------------------------------------------------------

    def deadline_expired(self, now: int) -> bool:
        """True once the deadline tick has been reached (inclusive)."""
        return self.deadline_at is not None and self.deadline_at <= now

    def dead(self, now: int) -> bool:
        """True when serving this call can no longer help its caller.

        Either the caller was already resumed (per-hop timeout, crash
        detection) or the end-to-end deadline has passed — in both cases
        a body would run for nobody.  Sweep arms shed these at accept
        time (see :class:`~repro.core.admission.DeadlineSweepGuard`).
        """
        return self.caller_resumed or self.deadline_expired(now)

    # -- metrics -----------------------------------------------------------

    @property
    def response_time(self) -> int | None:
        """Virtual ticks from issue to completion (None if unfinished)."""
        if self.issued_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.issued_at

    @property
    def queue_time(self) -> int | None:
        """Ticks spent before the manager accepted the call."""
        if self.issued_at is None or self.accepted_at is None:
            return None
        return self.accepted_at - self.issued_at

    def _expect_state(self, *allowed: CallState, code: str | None = None) -> None:
        if self.state not in allowed:
            names = "/".join(s.value for s in allowed)
            raise ProtocolError(
                f"call #{self.call_id} to {self.entry}[{self.slot}] is "
                f"{self.state.value}, expected {names}",
                code=code,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Call #{self.call_id} {self.entry}"
            + (f"[{self.slot}]" if self.slot is not None else "")
            + f" {self.state.value}>"
        )
