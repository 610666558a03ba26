"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Any, Callable

from repro.core import CallState
from repro.kernel import Kernel
from repro.kernel.process import Process


def drive(kernel: Kernel, *fns: Callable[[], Any], **spawn_kwargs: Any) -> list[Process]:
    """Spawn every fn, run the kernel to quiescence, return the processes."""
    procs = [kernel.spawn(fn, **spawn_kwargs) for fn in fns]
    kernel.run()
    return procs


def scan_slots(runtime):
    """(free, attached, done) element indices, read off ``runtime.slots``."""
    free, attached, done = [], [], []
    for index, call in enumerate(runtime.slots):
        if call is None:
            free.append(index)
        elif call.state is CallState.ATTACHED:
            attached.append(index)
        elif call.state is CallState.BODY_DONE:
            done.append(index)
    return free, attached, done


def assert_index_matches_scan(kernel: Kernel) -> None:
    """Every runtime's slot index equals a brute-force scan of its array."""
    for obj in kernel._alps_objects:
        for name, runtime in obj._runtimes.items():
            index = (runtime.free_slots, runtime.attached_slots, runtime.done_slots)
            assert index == scan_slots(runtime), (
                f"{obj.alps_name}.{name} at t={kernel.clock.now}"
            )
            assert runtime.pending_count() == (
                len(scan_slots(runtime)[1]) + len(runtime.waiting)
            )
            # The index holds the calls themselves, and counts the mortal.
            for calls, state in (
                (runtime.attached, CallState.ATTACHED),
                (runtime.done, CallState.BODY_DONE),
            ):
                for call in calls:
                    assert runtime.slots[call.slot] is call and call.state is state
            assert runtime.mortal == sum(
                call.expiry_cancel is not None for call in runtime.attached
            ), f"{obj.alps_name}.{name} at t={kernel.clock.now}"


def assert_sched_counters_match_scan(kernel: Kernel, *unregistered) -> None:
    """Every scheduling domain's counters equal a scan of its runqueues.

    ``unregistered`` are domains built outside ``kernel.cpu_scheduler``.
    """
    for domain in (*kernel.cpu_scheduler.domains.values(), *unregistered):
        where = f"domain {domain.name!r} at t={kernel.clock.now}"
        if domain.count == 1:
            assert domain.queued == len(domain._waiting), where
            assert domain._free in (0, 1), where
        else:
            assert domain.queued == sum(
                len(cpu.rt) + len(cpu.fair) for cpu in domain.cpus
            ), where
            assert domain._free == sum(cpu.free for cpu in domain.cpus), where
            for cpu in domain.cpus:
                assert cpu.queued_ticks == sum(
                    work.duration for _key, work in (*cpu.rt, *cpu.fair)
                ), f"{where}, cpu{cpu.index}"
            # The release hook skips the balancer when nothing is queued.
            assert domain._balance_cancel is None or domain.queued, where
        # Work conservation: no CPU idles while a grant waits.
        assert not (domain._free and domain.queued), where
        assert domain.peak_queue >= domain.queued, where


def next_event_time(kernel: Kernel) -> int | None:
    """Time of the earliest queued event (stale ones included), if any."""
    return kernel._events[0][0] if kernel._events else None


def step_to_quiescence(
    kernel: Kernel,
    until: int | None = None,
    also: Callable[[], None] | None = None,
) -> int:
    """Run one event at a time, checking the invariant (and ``also``) after each."""
    events = 0
    assert_index_matches_scan(kernel)
    while (due := next_event_time(kernel)) is not None and (
        until is None or due <= until
    ):
        kernel.run(max_events=1)
        assert_index_matches_scan(kernel)
        if also is not None:
            also()
        events += 1
    return events


def run_checking_sched(kernel: Kernel, *unregistered) -> int:
    """``kernel.run()`` one event at a time, with every scheduling domain's
    counters compared with a scan of its runqueues after each."""
    return step_to_quiescence(
        kernel, also=lambda: assert_sched_counters_match_scan(kernel, *unregistered)
    )
