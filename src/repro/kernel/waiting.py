"""Waitables and the guard protocol.

The kernel's ``Select`` syscall (and everything built on it: ``receive``,
the manager's ``accept``/``await``, timeouts) is defined over *guards*.  A
guard can be polled for readiness without side effects, and committed —
consuming its event — once chosen.  Guards name the :class:`Waitable`
objects whose state changes could make them ready, so a blocked selector is
woken only by relevant events (the "indexed wakeup" strategy; benchmark E9
compares it against naive re-polling).

This module is substrate: channels, entry-call queues and timers all
implement :class:`Waitable`, and everything in ``repro.core.select`` builds
on :class:`Guard`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import Process


class Waitable:
    """Something a process can block on.

    Maintains the set of blocked processes interested in this object.  When
    the object's state changes in a way that could unblock someone, its
    owner calls :meth:`notify`, which asks the kernel to re-evaluate each
    waiter's pending select.
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: list[Process] = []

    def add_waiter(self, proc: "Process") -> None:
        if proc not in self._waiters:
            self._waiters.append(proc)

    def remove_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    def notify(self, kernel: "Kernel") -> None:
        """Re-evaluate the pending select of every waiter.

        Iterates over a snapshot because a successful re-evaluation
        unregisters the waiter from this waitable.
        """
        for proc in list(self._waiters):
            kernel.reevaluate_select(proc)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Ready:
    """Result of a successful guard poll.

    ``value`` is what the selecting process will receive if this guard is
    chosen; ``token`` is guard-private data that lets ``commit`` consume
    exactly the event that was polled (e.g. the index of the matched
    message in a channel queue).
    """

    __slots__ = ("value", "token")

    def __init__(self, value: Any = None, token: Any = None) -> None:
        self.value = value
        self.token = token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ready(value={self.value!r})"


class Guard:
    """Base class for select guards.

    Subclasses implement:

    * :meth:`poll` — return :class:`Ready` if the guard could fire *now*,
      ``None`` otherwise.  Must be side-effect free, ``when=`` conditions
      included: the kernel leans on it, since a ranked sweep does not
      call ``poll`` on the guards ranked below a ready one.
    * :meth:`commit` — consume the event identified by the earlier poll and
      return the value to deliver.  Called exactly once, immediately after
      a successful poll of the same kernel state.
    * :meth:`waitables` — the objects whose change could make this guard
      ready; the kernel registers a blocked selector on all of them.
    * :meth:`feasible` — whether the guard could *ever* become ready.  A
      plain boolean guard whose condition is false is infeasible; a select
      in which every guard is infeasible raises ``GuardExhaustedError``
      rather than deadlocking silently.

    ``pri`` implements the paper's run-time priority clause: among ready
    guards the one with the smallest priority value is selected.  It may be
    an int or a callable applied to the polled value (so priorities can
    depend on received parameters, as §2.4 requires).

    A ``Select`` object that is yielded again keeps what the kernel
    derived from its guards, so a guard that does not override
    :meth:`feasible` must return the same :meth:`waitables` every time,
    and its ``pri`` stays what it was (under ``"ordered"`` arbitration
    the kernel may rank a reused select's guards by it once).
    :meth:`describe` is fixed for the guard's lifetime too: the kernel
    renders a select's text once per plan and keeps it.
    """

    #: Evaluation priority (paper: "pri E", smallest wins). ``None`` means
    #: unprioritized, which sorts after every explicit priority.
    pri: Any = None
    #: A container whose emptiness means :meth:`poll` returns ``None``
    #: (the kernel then skips the call; the poll is still modelled), or
    #: ``None`` to be called on every sweep — so a select holding such a
    #: guard is never ranked.  Must keep its identity for the guard's
    #: lifetime; a subclass whose ``poll`` can be ready on an empty source
    #: resets this to ``None``.
    poll_source: Any = None
    #: Ticks the last :meth:`commit` cost, charged to the selector.
    commit_cost = 0
    #: Optional hooks ``(kernel, proc)``, run when a select holding this
    #: guard blocks and when that blocked select is resolved or cancelled.
    on_block = None
    on_unblock = None
    #: Optional ``(kernel) -> processes`` this guard cannot fire without
    #: (an await's started bodies); read by the wait-for graph.
    wait_targets = None
    #: :meth:`feasible` is not overridden (set per subclass below), so a
    #: reused ``Select`` need not ask again.
    always_feasible = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.always_feasible = cls.feasible is Guard.feasible

    def poll(self, kernel: "Kernel") -> Ready | None:
        raise NotImplementedError

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> Any:
        raise NotImplementedError

    def waitables(self) -> Iterable[Waitable]:
        return ()

    def feasible(self) -> bool:
        return True

    def describe(self) -> str:
        return type(self).__name__

    def effective_pri(self, ready: Ready) -> tuple[int, int]:
        """Priority key for a ready guard: (has-no-pri, pri-value)."""
        if self.pri is None:
            return (1, 0)
        value = self.pri(ready.value) if callable(self.pri) else self.pri
        return (0, int(value))


class EventCount(Waitable):
    """A monotone count of events, and the waitable to block on for more.

    The owner calls :meth:`bump` per event; a daemon that reacts selects
    on :meth:`beyond` the count it last saw instead of polling (which
    would keep the event queue non-empty forever).
    """

    __slots__ = ("name", "count")

    def __init__(self, name: str) -> None:
        super().__init__()
        #: What the events are, for ``describe()``: ``fault-events``.
        self.name = name
        self.count = 0

    def bump(self, kernel: "Kernel") -> None:
        self.count += 1
        self.notify(kernel)

    def beyond(self, seen: int) -> "Guard":
        """A guard ready once the count exceeds ``seen``; yields the count."""
        return _Beyond(self, seen)


class _Beyond(Guard):
    def __init__(self, events: EventCount, seen: int) -> None:
        self.events = events
        self.seen = seen

    def poll(self, kernel: "Kernel") -> Ready | None:
        count = self.events.count
        return Ready(count) if count > self.seen else None

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> int:
        return ready.value

    def waitables(self) -> Iterable[Waitable]:
        return (self.events,)

    def describe(self) -> str:
        return f"{self.events.name}(>{self.seen})"
