"""Kernel statistics.

Benchmarks read these counters to report the quantities the paper argues
about qualitatively: process creations (§3 pools), context switches
(§1 "synchronization overhead due to process switches"), guard polls
(§3 polling of hidden procedure arrays), and message counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class KernelStats:
    """Mutable counters accumulated over a kernel run."""

    #: Processes created (all kinds).
    spawns: int = 0
    #: Of which lightweight.
    lwp_spawns: int = 0
    #: Processes that terminated (any way).
    exits: int = 0
    #: Scheduler dispatches that switched to a different process.
    context_switches: int = 0
    #: Total process resumptions.
    resumptions: int = 0
    #: Messages sent on channels.
    sends: int = 0
    #: Messages received from channels.
    receives: int = 0
    #: Select syscalls executed.
    selects: int = 0
    #: Individual guard polls performed.
    guard_polls: int = 0
    #: Guards committed (select outcomes, including receives).
    commits: int = 0
    #: accept/start/await/finish primitive executions (filled by core).
    accepts: int = 0
    starts: int = 0
    awaits: int = 0
    finishes: int = 0
    #: Entry calls issued / completed (filled by core).
    calls_issued: int = 0
    calls_completed: int = 0
    #: Calls answered by combining (finished without a start).
    calls_combined: int = 0
    #: Calls shed by admission control (accepted, then rejected).
    calls_shed: int = 0
    #: Simulated CPU ticks consumed by Charge syscalls.
    work_ticks: int = 0
    #: SMP scheduler: grants that landed on a different CPU than the
    #: process's previous one (multi-CPU domains only).
    migrations: int = 0
    #: SMP scheduler: idle-steals — a freed CPU taking the front of the
    #: most-loaded sibling runqueue.
    steals: int = 0
    #: SMP scheduler: periodic load-balancer invocations.
    balance_runs: int = 0
    #: Simulator vital: queued events that surfaced with nothing left to
    #: do — cancelled callbacks (timers whose select fired first) and
    #: steps or CPU completions of dead or re-parked processes.
    stale_events: int = 0
    #: Busy ticks per virtual CPU, keyed ``cpu0`` / ``<node>.cpu0``
    #: (flattened as ``cpu.<key>`` in :meth:`snapshot`).
    cpu: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, int]:
        """Return a flat dict copy of every counter (per-CPU ones prefixed).

        Field names are derived from the dataclass itself, so adding a
        counter field can never silently omit it from benchmark tables.
        """
        flat = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "cpu"
        }
        for key, value in self.cpu.items():
            flat[f"cpu.{key}"] = value
        return flat

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter deltas relative to an earlier :meth:`snapshot`.

        Keys present only in ``earlier`` (a ``cpu.*`` key cleared since)
        appear with a negative delta instead of being dropped.
        """
        now = self.snapshot()
        return {
            k: now.get(k, 0) - earlier.get(k, 0)
            for k in sorted(now.keys() | earlier.keys())
        }
