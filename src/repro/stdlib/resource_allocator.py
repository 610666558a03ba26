"""A counting resource allocator — acceptance conditions on parameters.

Shows the SR-style acceptance conditions of §2.4: "we allow the boolean
condition appearing in a guard to depend ... also on the values
(parameters ...) received by an accept".  An ``acquire(amount)`` request
is accepted only when ``amount`` units are actually available — the
condition reads the intercepted invocation parameter — so small requests
overtake large ones that cannot yet be satisfied (no head-of-line
blocking), while ``pri`` can optionally serve the *largest* satisfiable
request first (best-fit) instead.
"""

from __future__ import annotations

from ..core import (
    SHED_PRI_ALWAYS,
    AcceptGuard,
    AlpsObject,
    Finish,
    Reject,
    ShedGuard,
    entry,
    icpt,
    manager_process,
)
from ..kernel.syscalls import Select


class ResourceAllocator(AlpsObject):
    """``object Allocator`` — ``acquire(n)`` / ``release(n)`` of ``total`` units.

    Configuration: ``total`` (units available), ``policy`` — ``"fifo"``
    (any satisfiable request, in element order) or ``"best-fit"``
    (largest satisfiable request first, via run-time ``pri``),
    ``queue_cap`` (optional admission control on ``acquire``: shed once
    more than ``queue_cap`` acquires are pending; ``release`` is never
    shed — it returns capacity and must always get through).

    Both entries are pure synchronization: the manager answers them by
    combining (§2.7), so no server processes are ever created.
    """

    def setup(
        self,
        total: int = 10,
        policy: str = "fifo",
        request_max: int = 16,
        queue_cap: int | None = None,
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if policy not in ("fifo", "best-fit"):
            raise ValueError(f"unknown policy {policy!r}")
        self.total = total
        self.policy = policy
        self.request_max = request_max
        self.queue_cap = queue_cap
        self.available = total
        #: (time, available) after every state change, for tests.
        self.history: list[tuple[int, int]] = []

    @entry(array="request_max")
    def acquire(self, amount):
        raise AssertionError("allocator bodies are never executed")

    @entry(array="request_max")
    def release(self, amount):
        raise AssertionError("allocator bodies are never executed")

    @manager_process(
        intercepts={"acquire": icpt(params=1), "release": icpt(params=1)}
    )
    def mgr(self):
        acquire_guard = AcceptGuard(
            self,
            "acquire",
            # Acceptance condition on the intercepted parameter.
            when=lambda amount: 0 <= amount <= self.available,
            # best-fit: among satisfiable requests take the largest.
            pri=(
                (lambda call: -call.args[0])
                if self.policy == "best-fit"
                else None
            ),
        )
        guards = [acquire_guard, AcceptGuard(self, "release")]
        if self.queue_cap is not None:
            # Shed acquires only; the best-fit pri is -amount, so the
            # shed arm must undercut any negated request size.
            guards.append(
                ShedGuard(
                    self, "acquire", cap=self.queue_cap, pri=SHED_PRI_ALWAYS
                )
            )
        select = Select(guards)
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, ShedGuard):
                yield Reject(call)
                continue
            amount = call.args[0]
            if call.entry == "acquire":
                self.available -= amount
            else:
                self.available = min(self.total, self.available + amount)
            self.history.append((self.kernel.clock.now, self.available))
            yield Finish(call)  # combining: no body, no results
