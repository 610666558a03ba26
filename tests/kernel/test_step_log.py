"""One mixed program's step log, pinned byte for byte on three machines.

Every resumption of every process is one line: the dispatch count, the
virtual time, the pid and name, what the step received and what it
yielded next.  The program covers the record kinds of DESIGN.md §5.2 —
charged and uncharged spawns, ``Charge`` and ``Delay`` completions,
zero-cost ``Now``/``Self`` resumes, same-instant completions that go
behind an equal-priority record, a throw, a ``Join``, and a select whose
``Timeout`` is cancelled next to one whose ``Timeout`` fires — and the
log ends with the clock and the ``KernelStats`` counters.  A change to
how the kernel pushes its records must leave every line where it was.

Re-record (only when a change is *meant* to move the schedule)::

    PYTHONPATH=src python tests/kernel/test_step_log.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.channels import Channel, ReceiveGuard, Send
from repro.errors import KernelError
from repro.kernel import (
    Charge,
    Delay,
    Join,
    Kernel,
    Now,
    Select,
    SelectResult,
    Self,
    Spawn,
    Timeout,
    Yield,
)
from repro.kernel.process import PRIORITY_MANAGER, PRIORITY_NORMAL, Process

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "step_log"

#: The unbounded machine, the one-CPU path and the SMP path.
MACHINES = {"unbounded": None, "cpus1": 1, "cpus2": 2}

STATS = ("resumptions", "context_switches", "stale_events", "guard_polls", "selects")


def _show(value):
    if isinstance(value, Process):
        return f"pid{value.pid}"
    if isinstance(value, SelectResult):
        return f"arm{value.index}={value.value!r}"
    if isinstance(value, BaseException):
        return f"{type(value).__name__}"
    return repr(value)


def _kind(syscall):
    if isinstance(syscall, (Charge, Delay)):
        return f"{type(syscall).__name__}({syscall.ticks})"
    if isinstance(syscall, Spawn):
        weight = "" if syscall.lightweight else ", heavy"
        return f"Spawn({syscall.name}{weight})"
    if isinstance(syscall, Select):
        return "Select(" + ", ".join(g.describe() for g in syscall.guards) + ")"
    if isinstance(syscall, Join):
        return f"Join(pid{syscall.process.pid})"
    return type(syscall).__name__


def logged(kernel, log, body, *args):
    """Drive ``body(*args)``, writing one line per step it is resumed for."""
    gen = body(*args)
    value, thrown = None, None
    while True:
        proc = kernel.current_process
        got = _show(thrown if thrown is not None else value)
        try:
            syscall = gen.throw(thrown) if thrown is not None else gen.send(value)
        except StopIteration as stop:
            result, syscall = stop.value, None
            kind = f"exit {_show(result)}"
        else:
            kind = _kind(syscall)
        log.append(
            f"{kernel.stats.resumptions:3d} t={kernel.clock.now:<3d} "
            f"pid{proc.pid} {proc.name:<8s} got {got:<22s} -> {kind}"
        )
        if syscall is None:
            return result
        try:
            value, thrown = (yield syscall), None
        except Exception as exc:  # noqa: BLE001 - delivered into ``body``
            value, thrown = None, exc


def mixed_program(kernel, log):
    ch = Channel(name="ch")

    def worker(ticks):
        yield Charge(ticks)  # equal charges: same-instant completions
        return (yield Now())  # zero-cost resume

    def sleeper(ticks):
        yield Delay(ticks)
        yield Self()
        return ticks

    def waiter():
        # A message arrives first: the Timeout is cancelled.
        first = yield Select(ReceiveGuard(ch), Timeout(50, value="late"))
        # Nothing arrives: the Timeout fires.
        second = yield Select(ReceiveGuard(ch), Timeout(4, value="timeout"))
        return (first.value, second.value)

    def sender():
        yield Delay(3)
        yield Send(ch, "msg")
        yield Yield()

    def manager():
        yield Charge(2)
        yield Now()
        yield Delay(0)

    def thrown_into():
        try:
            yield Delay(-1)
        except KernelError:
            pass
        yield Charge(1)

    def main():
        yield Self()
        yield Now()
        yield Now()
        spawn = lambda name, fn, *args, **kw: Spawn(  # noqa: E731
            logged, (kernel, log, fn, *args), name=name, **kw
        )
        a = yield spawn("a", worker, 3)  # charged spawns
        b = yield spawn("b", worker, 3)
        c = yield spawn("c", worker, 2, lightweight=False)
        yield spawn("sleep4", sleeper, 4)
        yield spawn("mgr", manager, priority=PRIORITY_MANAGER)
        yield spawn("thrown", thrown_into)
        yield Charge(2)
        results = []
        for child in (a, b, c):
            results.append((yield Join(child)))
        yield Delay(0)
        return results

    def spawn(name, fn, *args, **kw):  # uncharged: no creator pays
        return kernel.spawn(logged, kernel, log, fn, *args, name=name, **kw)

    spawn("main", main)
    spawn("waiter", waiter)
    spawn("sender", sender)
    # Due with ``mgr``'s creation record, between its creator's priority
    # (which that record carries) and its own.
    spawn("mid", sleeper, 2, priority=(PRIORITY_MANAGER + PRIORITY_NORMAL) // 2)
    kernel.post(5, lambda: spawn("late", sleeper, 0))  # uncharged, mid-run
    kernel.post(5, lambda: spawn("late2", worker, 1))


def step_log(num_cpus) -> str:
    kernel = Kernel(num_cpus=num_cpus)
    log: list[str] = []
    mixed_program(kernel, log)
    kernel.run()
    log.append(f"end t={kernel.clock.now}")
    log.extend(f"{name} {getattr(kernel.stats, name)}" for name in STATS)
    return "\n".join(log) + "\n"


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_step_log_matches_recording(machine):
    recorded = (FIXTURES / f"{machine}.txt").read_text(encoding="utf-8")
    assert step_log(MACHINES[machine]) == recorded


def test_recordings_cover_what_they_claim():
    """Not vacuous: both Timeout outcomes, a throw, a heavy spawn, and
    ``a`` and ``b`` finishing their equal charges at one instant."""
    text = (FIXTURES / "unbounded.txt").read_text(encoding="utf-8")
    assert "got arm0='msg'" in text and "got arm1='timeout'" in text
    assert "got KernelError" in text and "Spawn(c, heavy)" in text
    charged = {
        fields[3]: fields[1]
        for fields in map(str.split, text.splitlines())
        if fields[-1] == "Now" and fields[3] in ("a", "b")
    }
    assert charged == {"a": "t=7", "b": "t=7"}


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for machine, num_cpus in sorted(MACHINES.items()):
        (FIXTURES / f"{machine}.txt").write_text(step_log(num_cpus), encoding="utf-8")
        print("recorded", machine)
