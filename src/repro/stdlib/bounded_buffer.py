"""The bounded buffer of §2.4.1.

"A producer and a consumer exchange messages via a bounded buffer object
which defines two entry procedures Deposit and Remove. ... a call to
Deposit is accepted only if the buffer is not full and a call to Remove is
accepted only if the buffer is not empty. ... When the manager accepts a
call to Deposit or Remove, it starts the procedure execution but waits
until the procedure terminates before accepting another call."

This is the paper's first example: the manager provides monitor-style
mutual exclusion via the packaged ``execute``, and the synchronization
conditions live in acceptance guards instead of condition variables.
``Count`` is local to the manager; ``inptr``/``outptr`` live in the shared
data part and are touched only by the (mutually excluded) bodies.
"""

from __future__ import annotations

from typing import Any

from ..core import (
    ACCEPT_PRI,
    SHED_PRI,
    AcceptGuard,
    AlpsObject,
    DeadlineSweepGuard,
    PredictedWaitGuard,
    Reject,
    ShedGuard,
    entry,
    manager_process,
)
from ..kernel.syscalls import Charge, Select


class BoundedBuffer(AlpsObject):
    """``object Buffer`` — manager-synchronized bounded buffer.

    Configuration: ``size`` (slot count), ``work`` (simulated ticks each
    body spends copying the message; 0 by default), ``queue_cap``
    (optional admission control: when more than ``queue_cap`` calls of
    one entry are pending — the paper's ``#P``, §2.5.1 — the excess is
    shed with :class:`~repro.errors.AdmissionError` instead of queueing
    without bound).
    """

    def setup(self, size: int = 8, work: int = 0, queue_cap: int | None = None) -> None:
        if size < 1:
            raise ValueError(f"buffer size must be >= 1, got {size}")
        self.size = size
        self.work = work
        self.queue_cap = queue_cap
        self.buf: list[Any] = [None] * size
        self.inptr = 0
        self.outptr = 0

    @entry
    def deposit(self, message):
        if self.work:
            yield Charge(self.work, label="deposit")
        self.buf[self.inptr] = message
        self.inptr = (self.inptr + 1) % self.size

    @entry(returns=1)
    def remove(self):
        if self.work:
            yield Charge(self.work, label="remove")
        message = self.buf[self.outptr]
        self.outptr = (self.outptr + 1) % self.size
        return message

    @manager_process(intercepts=["deposit", "remove"])
    def mgr(self):
        # "The variable Count - which is local to the manager - is used to
        # maintain the state of the buffer."
        count = 0
        cap = self.queue_cap
        # Built once: the conditions read Count through their closures.
        if cap is None:
            guards = [
                AcceptGuard(self, "deposit", when=lambda: count < self.size),
                AcceptGuard(self, "remove", when=lambda: count > 0),
            ]
        else:
            # Admission control: under overload (#P > cap) the shed
            # arms outrank the service arms, so the backlog drains at
            # reject cost instead of growing without bound.
            guards = [
                # Sweep dead calls and shed doomed deadlined calls
                # before the plain queue cap; all outrank admission.
                DeadlineSweepGuard(self, "deposit"),
                DeadlineSweepGuard(self, "remove"),
                PredictedWaitGuard(self, "deposit"),
                PredictedWaitGuard(self, "remove"),
                ShedGuard(self, "deposit", cap=cap, pri=SHED_PRI),
                ShedGuard(self, "remove", cap=cap, pri=SHED_PRI),
                AcceptGuard(self, "deposit", when=lambda: count < self.size,
                            pri=ACCEPT_PRI),
                AcceptGuard(self, "remove", when=lambda: count > 0,
                            pri=ACCEPT_PRI),
            ]
        select = Select(guards)
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, ShedGuard):
                yield Reject(call, reason=result.guard.reason)
                continue
            # execute = start; await; finish — the manager "waits until
            # the procedure terminates before accepting another call".
            yield from self.execute(call)
            count += 1 if call.entry == "deposit" else -1
