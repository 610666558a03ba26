"""Virtual clock for the deterministic kernel.

The kernel runs in *virtual time*: a monotonically non-decreasing integer
tick counter.  Time only advances when the kernel decides it does — either
because a process consumed simulated CPU (see :class:`~repro.kernel.costs.CostModel`)
or because every runnable process is sleeping and the clock jumps to the
next timer expiry.  Virtual time makes every experiment exactly
reproducible, which is what lets the benchmark harness regenerate the
paper's qualitative results run after run.
"""

from __future__ import annotations

from ..errors import KernelError


class VirtualClock:
    """A monotone integer clock measured in ticks.

    One tick is an abstract unit of work; the cost model maps kernel events
    (context switch, process creation, message send, ...) onto ticks.

    Observers subscribe to *advancement*: they are invoked with the new
    time after every actual forward move.  This is how the live telemetry
    plane (:mod:`repro.obs.live`) expires windows without posting kernel
    events — clock motion itself is the timer, so observing a run cannot
    change its schedule.  Observers must not advance the clock.

    While no observer is subscribed the kernel's run loop sets ``_now``
    itself, as ``int(when)`` and only forward, which is what
    :meth:`advance_to` would do; it reads the observer list live, so a
    subscription made mid-run sees every later advance.
    """

    __slots__ = ("_now", "_observers")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise KernelError(f"clock cannot start at negative time {start}")
        self._now = int(start)
        self._observers: list = []

    @property
    def now(self) -> int:
        """Current virtual time in ticks."""
        return self._now

    def subscribe(self, observer) -> None:
        """Call ``observer(now)`` after every actual clock advance."""
        self._observers.append(observer)

    def advance(self, ticks: int) -> int:
        """Advance the clock by ``ticks`` (>= 0) and return the new time."""
        if ticks < 0:
            raise KernelError(f"cannot advance clock by negative ticks ({ticks})")
        if ticks:
            self._now += int(ticks)
            for observer in self._observers:
                observer(self._now)
        return self._now

    def advance_to(self, when: int) -> int:
        """Jump forward to absolute time ``when`` (must not be in the past)."""
        if when < self._now:
            raise KernelError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        now = int(when)
        if now > self._now:
            self._now = now
            for observer in self._observers:
                observer(self._now)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now})"
