"""Lightweight processes.

The paper assumes each ALPS object lives in one address space and that all
processes inside it — the manager plus one server process per active entry
call — are *lightweight* processes scheduled preemptively by priority, with
the manager at a higher priority "so that the manager is more receptive to
entry calls" (§2.3, §3).

We model a lightweight process as a Python generator: the generator yields
*syscall* objects (see :mod:`repro.kernel.syscalls`) and the scheduler
resumes it with each syscall's result.  Because processes only lose control
at syscalls, scheduling is cooperative at syscall granularity — exactly the
granularity at which the paper's semantics are defined (its primitives are
the only interaction points between processes).
"""

from __future__ import annotations

import enum
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable

from ..errors import ProcessError

# Priority levels: numerically smaller = more urgent, matching the paper's
# "high priority" manager.  Arbitrary integers are allowed; these are the
# conventional levels used throughout the library.
PRIORITY_KERNEL = 0
PRIORITY_MANAGER = 10
PRIORITY_NORMAL = 100
PRIORITY_BACKGROUND = 1000


class ProcessState(enum.Enum):
    """Life cycle of a lightweight process."""

    NEW = "new"          # created, not yet dispatched
    READY = "ready"      # runnable, waiting for the CPU
    RUNNING = "running"  # currently executing
    BLOCKED = "blocked"  # waiting on a syscall (receive, select, join, ...)
    DONE = "done"        # returned normally
    FAILED = "failed"    # raised an exception
    KILLED = "killed"    # terminated externally


#: The states a process never leaves (``Process.alive`` is "not one of
#: these"; the kernel's hot paths spell the test out on ``state``).
DEAD_STATES = (ProcessState.DONE, ProcessState.FAILED, ProcessState.KILLED)

#: The type of a process body: a generator yielding syscalls.
ProcessBody = Generator[Any, Any, Any]


class Process:
    """A lightweight process: a generator plus scheduling metadata.

    Instances are created through :meth:`repro.kernel.kernel.Kernel.spawn`;
    user code never constructs them directly.
    """

    __slots__ = (
        "pid",
        "name",
        "priority",
        "state",
        "body",
        "result",
        "exception",
        "waiting_for",
        "_resume_value",
        "_resume_exception",
        "exit_watchers",
        "daemon",
        "resumptions",
        "epoch",
        "node",
        "span",
        "deadline_at",
        "vruntime",
        "last_cpu",
    )

    def __init__(
        self,
        pid: int,
        name: str,
        body: ProcessBody,
        priority: int = PRIORITY_NORMAL,
        daemon: bool = False,
        state: ProcessState = ProcessState.NEW,
    ) -> None:
        if type(body) is not GeneratorType and not (
            hasattr(body, "send") and hasattr(body, "throw")
        ):
            raise ProcessError(
                f"process body for {name!r} must be a generator "
                f"(got {type(body).__name__}); write the body with 'yield'"
            )
        self.pid = pid
        self.name = name
        self.priority = priority
        self.state = state
        self.body = body
        #: Value returned by the body (StopIteration value).
        self.result: Any = None
        #: Exception that terminated the body, if any.
        self.exception: BaseException | None = None
        #: What the process is blocked on, as ``(kind, payload)`` — ``("call",
        #: call)``, ``("join", target)``, ``("par", children)``, ``("select",
        #: iterable of guards)``, ``("send", channel)``, ``("delay", ticks)``
        #: or an extension syscall's own kind — or None while runnable.  The
        #: wait-for graph (:mod:`repro.kernel.waitgraph`) reads it;
        #: :attr:`blocked_on` renders it for people.
        self.waiting_for: tuple[str, Any] | None = None
        #: What the next resumption delivers into the body: a value to
        #: ``send`` or, when set, an exception to ``throw``.  Staged by
        #: ``Kernel.schedule_resume``/``schedule_throw``, consumed by the
        #: kernel's step.
        self._resume_value: Any = None
        self._resume_exception: BaseException | None = None
        #: Callbacks invoked (with this process) when it terminates, or
        #: None: the list is made by the first ``Join``/``Par`` to append
        #: to it (nothing else does), and dropped once it has run.
        self.exit_watchers: list[Callable[["Process"], None]] | None = None
        #: Daemons (e.g. managers) may be blocked forever at quiescence
        #: without the kernel reporting a deadlock.
        self.daemon = daemon
        #: Number of times the scheduler resumed this process.
        self.resumptions = 0
        #: Incremented on every park/unpark; stale scheduled events are
        #: recognized (and skipped) by comparing epochs.
        self.epoch = 0
        #: Home node when running on a simulated network (set by repro.net).
        self.node = None
        #: Current observability span: entry calls issued by this process
        #: parent under it (set by the pool for body processes and by the
        #: replication daemons; always None while spans are disabled).
        self.span = None
        #: Absolute end-to-end deadline this process operates under, if
        #: any: entry calls it issues inherit the remaining budget (set
        #: by the pool for body processes serving a deadlined call).
        self.deadline_at: int | None = None
        #: Fair-class virtual runtime (ticks of granted CPU, scaled by
        #: priority); orders fair runqueues in multi-CPU scheduling
        #: domains (:mod:`repro.kernel.sched`).
        self.vruntime = 0
        #: ``(domain, cpu_index)`` of the last CPU that granted this
        #: process work, or None before the first grant — cache-affinity
        #: hint and migration detection for the SMP scheduler.
        self.last_cpu: tuple | None = None

    def kill(self) -> None:
        """Terminate the process without running it further."""
        if self.state in (ProcessState.DONE, ProcessState.FAILED):
            return
        self.body.close()
        self.state = ProcessState.KILLED
        self.waiting_for = None

    # -- introspection ---------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state not in DEAD_STATES

    @property
    def blocked_on(self) -> str | None:
        """:attr:`waiting_for` as text — ``call buf.deposit``, ``join(p)``,
        ``select(accept get, ...)`` — built only when a deadlock report,
        a trace or a debugger reads it."""
        if self.waiting_for is None:
            return None
        kind, what = self.waiting_for
        if kind == "call":
            return f"call {what.obj.alps_name}.{what.entry}"
        if kind == "select":
            return str(what)
        if kind == "par":
            what = len(what)
        elif kind in ("join", "send"):
            what = what.name
        return kind if what is None else f"{kind}({what})"

    def __repr__(self) -> str:
        return (
            f"<Process {self.pid} {self.name!r} prio={self.priority} "
            f"state={self.state.value}"
            + (f" blocked_on={self.blocked_on!r}" if self.waiting_for else "")
            + ">"
        )


def as_generator(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> ProcessBody:
    """Call ``fn`` and normalize the result into a process body.

    If ``fn`` is a generator function the generator is returned as-is.  If
    it is a plain function, it is executed *immediately at first resume*
    inside a one-shot generator — convenient for trivial bodies that never
    block.
    """
    result = fn(*args, **kwargs)
    if hasattr(result, "send") and hasattr(result, "throw"):
        return result

    def one_shot() -> ProcessBody:
        return result
        yield  # pragma: no cover - makes this a generator function

    return one_shot()


def format_blocked(processes: Iterable[Process]) -> str:
    """Render a diagnostic listing of blocked processes (for deadlocks)."""
    lines = []
    for proc in processes:
        lines.append(f"  {proc.name} (pid={proc.pid}) waiting on {proc.blocked_on}")
    return "\n".join(lines) if lines else "  (none)"
