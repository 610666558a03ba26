"""Cost model mapping kernel events to virtual-time ticks.

Section 3 of the paper discusses the *costs* that motivate its
implementation alternatives: dynamic process creation is expensive,
lightweight-process switching is cheap, and the manager should run at high
priority so synchronization requests reach it "with minimum delay".  To
reproduce those trade-offs we charge every kernel event an explicit,
configurable number of ticks.  Benchmarks sweep these knobs (e.g. raising
``process_create`` reproduces the §3 argument for preallocated pools).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Tick charges for kernel events.

    All values are non-negative integers.  The defaults are deliberately
    simple (most events cost 1) so that measured counts are easy to reason
    about; benchmarks override individual fields to model specific
    hardware regimes (e.g. a heavyweight-process OS).
    """

    #: Charged each time the scheduler dispatches a different process than
    #: the one that ran last (a context switch).
    context_switch: int = 1
    #: Charged when a process is created (``Spawn``).  §3: "in many
    #: operating systems dynamic process creation is expensive".
    process_create: int = 10
    #: Charged for creating a *lightweight* process (threads in Mach
    #: terminology); must generally be << ``process_create``.
    lwp_create: int = 1
    #: Charged to the sender for an asynchronous ``send``.
    send: int = 1
    #: Charged when a manager completes an ``accept`` rendezvous.
    accept: int = 1
    #: Charged when a manager ``start``s an entry body.
    start: int = 1
    #: Charged when a manager completes an ``await``.
    await_: int = 1
    #: Charged when a manager ``finish``es a call (caller resumption).
    finish: int = 1
    #: Charged per guard *polled* during a select evaluation; reproduces
    #: the §3 concern that naive polling of a hidden procedure array
    #: ``P[1..N]`` costs O(N) per iteration.
    guard_poll: int = 0
    #: Charged to a process each time it is resumed, independent of
    #: whether a switch occurred (models dispatch overhead).
    dispatch: int = 0

    def with_(self, **overrides: int) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Raise ``ValueError`` if any charge is negative."""
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"cost {name!r} must be >= 0, got {value}")


#: A free cost model: nothing costs anything, time advances only via Delay.
FREE = CostModel(
    context_switch=0,
    process_create=0,
    lwp_create=0,
    send=0,
    accept=0,
    start=0,
    await_=0,
    finish=0,
    guard_poll=0,
    dispatch=0,
)

#: Default cost model used by :class:`~repro.kernel.kernel.Kernel`.
DEFAULT = CostModel()

#: A model in which ordinary process creation is very expensive relative to
#: lightweight processes — the regime §3 argues motivates process pools.
HEAVY_PROCESSES = CostModel(process_create=200, lwp_create=2)
