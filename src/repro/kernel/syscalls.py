"""Kernel syscalls.

A lightweight process interacts with the kernel exclusively by ``yield``-ing
instances of the classes below.  The scheduler interprets the syscall,
charges its cost, and resumes the process with the syscall's result.

Only substrate-level operations live here (spawn/join/delay/select and the
channel primitives).  The ALPS-specific primitives — ``Accept``, ``Start``,
``Await``, ``Finish``, ``Execute``, entry calls — are *guards and syscalls
defined in* :mod:`repro.core` on top of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .process import PRIORITY_NORMAL
from .waiting import Guard

if TYPE_CHECKING:  # pragma: no cover
    from .process import Process


class Syscall:
    """Marker base class; anything yielded to the kernel must be one."""

    __slots__ = ()


@dataclass(slots=True)
class Spawn(Syscall):
    """Create a new process running ``fn(*args, **kwargs)``.

    Returns the new :class:`~repro.kernel.process.Process`.  ``lightweight``
    selects which creation cost is charged (§3 distinguishes conventional
    processes from cheap threads).
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    priority: int = PRIORITY_NORMAL
    name: str | None = None
    lightweight: bool = True


@dataclass(slots=True)
class Join(Syscall):
    """Block until ``process`` terminates; returns its result.

    If the process failed, its exception is re-raised in the joiner.
    """

    process: "Process"


@dataclass(slots=True)
class Delay(Syscall):
    """Sleep for ``ticks`` of virtual time (0 = just reschedule)."""

    ticks: int


class Yield(Syscall):
    """Voluntarily reschedule without sleeping."""

    __slots__ = ()


class Now(Syscall):
    """Return the current virtual time."""

    __slots__ = ()


class Self(Syscall):
    """Return the calling :class:`~repro.kernel.process.Process`."""

    __slots__ = ()


@dataclass(slots=True)
class Charge(Syscall):
    """Charge ``ticks`` of simulated CPU work to the caller.

    Entry bodies use this to model service time (e.g. "searching the
    dictionary takes 50 ticks").
    """

    ticks: int
    label: str = "work"


@dataclass(slots=True)
class Select(Syscall):
    """Nondeterministic selection over guards (§2.4).

    Blocks until at least one guard is ready, then commits the chosen one
    and returns a :class:`SelectResult`.  Guard choice among ready guards:
    smallest ``pri`` first (run-time priorities), then — configurable on
    the kernel — textual order or seeded-random choice for the paper's
    "selected arbitrarily by the implementation".

    ``else_`` mirrors a polling select: if no guard is ready the call
    returns immediately with ``index == -1`` and ``value is else_value``.
    If every guard is *infeasible* (e.g. all plain booleans false) and
    there is no ``else_``, ``GuardExhaustedError`` is raised.
    """

    guards: Sequence[Guard]
    else_: bool = False
    else_value: Any = None
    unwrap: bool = False
    #: Kernel-private: what ``kernel.py`` derived from ``guards`` when this
    #: object was first yielded, kept when it is valid for every later run.
    _plan: Any = field(default=None, repr=False, compare=False)

    def __init__(self, *guards: Guard, else_: bool = False, else_value: Any = None) -> None:
        # Accept both Select(g1, g2) and Select([g1, g2]).
        if len(guards) == 1 and isinstance(guards[0], (list, tuple)):
            guards = tuple(guards[0])
        self.guards = guards
        self.else_ = else_
        self.else_value = else_value
        #: When True the selecting process receives the committed value
        #: directly instead of a SelectResult (used by Receive/Accept sugar).
        self.unwrap = False
        self._plan = None


@dataclass(slots=True)
class SelectResult:
    """Outcome of a ``Select``: which guard fired and what it delivered."""

    index: int
    guard: Guard | None
    value: Any

    def __iter__(self):
        """Allow ``index, value = yield Select(...)`` style unpacking."""
        yield self.index
        yield self.value


@dataclass(slots=True)
class Par(Syscall):
    """Parallel execution (§2.1.1): run thunks concurrently, wait for all.

    Each element is a zero-argument callable returning a process body (or a
    plain value).  Returns the list of results in the order given.  This is
    the ``par P(...) and Q(...) end par`` construct; the indexed form
    ``par i = m to n do P(i)`` is :func:`par_range` in ``repro.core``.
    """

    thunks: Sequence[Callable[[], Any]]
    priority: int = PRIORITY_NORMAL

    def __init__(self, *thunks: Callable[[], Any], priority: int = PRIORITY_NORMAL) -> None:
        if len(thunks) == 1 and isinstance(thunks[0], (list, tuple)):
            thunks = tuple(thunks[0])
        self.thunks = tuple(thunks)
        self.priority = priority


@dataclass(slots=True)
class Kill(Syscall):
    """Terminate another process. Returns True if it was alive."""

    process: "Process"


@dataclass(slots=True)
class SetPriority(Syscall):
    """Change a process's priority (own process if ``process`` is None)."""

    priority: int
    process: "Process | None" = None
