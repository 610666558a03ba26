"""An alarm clock — timed scheduling inside a manager.

The classic monitor example (Hoare 1974) recast in ALPS style: callers
invoke ``sleep_until(deadline)`` / ``sleep_for(ticks)`` and are held by
the manager — no body ever runs — until virtual time passes their
deadline.  Shows a manager combining acceptance conditions on
*parameters* (the requested deadline) with a :class:`~repro.kernel.Timeout`
guard, a guard form the paper's model admits naturally even though its
examples never need one.
"""

from __future__ import annotations

from ..core import AcceptGuard, AlpsObject, Finish, entry, icpt, manager_process
from ..kernel.syscalls import Select
from ..kernel.timeouts import Timeout


class AlarmClock(AlpsObject):
    """``object AlarmClock`` — manager-held timed waits.

    Configuration: ``wait_max`` (hidden array size = simultaneous
    sleepers).  ``sleep_until`` returns the wake-up time.
    """

    def setup(self, wait_max: int = 16) -> None:
        self.wait_max = wait_max
        #: (deadline, call) pairs the manager is holding.
        self._holding: list = []

    @entry(returns=1, array="wait_max")
    def sleep_until(self, deadline):
        raise AssertionError("alarm bodies are never executed")

    @entry(returns=1, array="wait_max")
    def sleep_for(self, ticks):
        raise AssertionError("alarm bodies are never executed")

    @manager_process(
        intercepts={"sleep_until": icpt(params=1), "sleep_for": icpt(params=1)}
    )
    def mgr(self):
        holding = self._holding
        accepts = [
            AcceptGuard(self, "sleep_until"),
            AcceptGuard(self, "sleep_for"),
        ]
        idle = Select(accepts)  # nobody held: no deadline to wait for
        while True:
            now = self.kernel.clock.now
            # Release everyone whose deadline has passed.
            due = [pair for pair in holding if pair[0] <= now]
            for pair in due:
                holding.remove(pair)
                yield Finish(pair[1], now)
            select = idle
            if holding:
                # A Timeout is anchored one-shot: a fresh select each time.
                next_deadline = min(deadline for deadline, _call in holding)
                select = Select(*accepts, Timeout(max(0, next_deadline - now)))
            result = yield select
            if result.index < 2 and result.guard is not None:
                call = result.value
                if call.entry == "sleep_until":
                    deadline = call.args[0]
                else:
                    deadline = self.kernel.clock.now + call.args[0]
                holding.append((deadline, call))

    @property
    def sleeping(self) -> int:
        """Number of callers currently held by the manager."""
        return len(self._holding)
