"""Timeout guard for ``select``.

Not in the 1988 paper's surface syntax, but indispensable for driving
benchmark workloads (bounded experiment duration, arrival processes) and a
natural extension of its guard model: ``Timeout(n)`` becomes ready ``n``
ticks after the select blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .process import DEAD_STATES
from .waiting import Guard, Ready

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import Process


class Timeout(Guard):
    """Guard that fires ``ticks`` after its select starts waiting.

    The deadline is anchored at the first poll, so guard objects must not
    be shared between selects: once a ``Timeout`` has been consumed — it
    committed, or its select blocked and was then resolved by any guard or
    cancelled — re-arming it in a new select raises :class:`ValueError`
    instead of silently reusing the stale deadline.  A select that commits
    another guard without blocking does not consume it: the first-poll
    anchor stays, and a later select holding it fires as soon as that
    deadline has passed (anchored at t=0 for 10 ticks and yielded again at
    t=21, it fires at t=21).
    """

    def __init__(self, ticks: int, value: object = None, pri: object = None) -> None:
        if ticks < 0:
            raise ValueError(f"timeout must be >= 0, got {ticks}")
        self.ticks = ticks
        self.value = value
        self.pri = pri
        self._deadline: int | None = None
        self._consumed = False
        self._cancel = {"cancelled": False}

    def poll(self, kernel: "Kernel") -> Ready | None:
        if self._consumed:
            raise ValueError(
                f"Timeout({self.ticks}) guard re-armed after its select "
                f"completed; construct a fresh Timeout per select"
            )
        if self._deadline is None:
            self._deadline = kernel.clock.now + self.ticks
        if kernel.clock.now >= self._deadline:
            return Ready(self.value)
        return None

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> object:
        self._consumed = True
        return ready.value

    def on_block(self, kernel: "Kernel", proc: "Process") -> None:
        """Post a wakeup at the deadline (cancelled if the select fires first)."""
        assert self._deadline is not None
        epoch = proc.epoch
        self._cancel["cancelled"] = False

        def fire() -> None:
            if proc.epoch == epoch and proc.state not in DEAD_STATES:
                kernel.reevaluate_select(proc)

        kernel.post(self._deadline, fire, priority=proc.priority, cancel=self._cancel)

    def on_unblock(self, kernel: "Kernel", proc: "Process") -> None:
        # The select resolved (through this guard or another): the anchored
        # deadline is spent either way.
        self._consumed = True
        self._cancel["cancelled"] = True

    def describe(self) -> str:
        return f"timeout({self.ticks})"
