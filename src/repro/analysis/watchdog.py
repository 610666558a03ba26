"""Opt-in live deadlock detection (before quiescence).

The kernel's quiescence check only fires when the event queue is empty —
a deadlocked cluster of managers hides forever behind one unrelated
timer or busy benchmark loop.  The :class:`LiveDeadlockDetector` is a
daemon process that periodically rebuilds the wait-for graph
(:func:`repro.kernel.waitgraph.build_wait_graph`) while the system is
still running and

* raises :class:`~repro.errors.DeadlockError` (out of ``kernel.run()``)
  as soon as an **all-definite** cycle exists — edges a pending timeout
  could dissolve never trigger it; and
* records exhausted hidden procedure arrays (every slot held while
  callers queue) in :attr:`reports`, keyed by object/entry, without
  raising — pool pressure is a symptom worth surfacing, not proof of
  deadlock.

Usage::

    detector = LiveDeadlockDetector(kernel, interval=100)
    kernel.run()          # raises DeadlockError at ~t=interval·k
    detector.reports      # {("Obj", "entry"): PoolReport, ...}
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import DeadlockError
from ..kernel.process import ProcessState
from ..kernel.syscalls import Delay
from ..kernel.waitgraph import PoolReport, build_wait_graph, describe_cycle

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel


class LiveDeadlockDetector:
    """Daemon that flags circular waits while the system still runs.

    Parameters
    ----------
    kernel:
        The kernel to watch; the detector spawns itself immediately.
    interval:
        Virtual ticks between scans.  Detection latency is at most one
        interval; cost is one graph build per scan.
    raise_on_cycle:
        When True (default) a definite cycle raises ``DeadlockError``
        out of ``kernel.run()``; when False cycles are only recorded in
        :attr:`cycles`.
    """

    def __init__(
        self, kernel: "Kernel", interval: int = 100, raise_on_cycle: bool = True
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.kernel = kernel
        self.interval = interval
        self.raise_on_cycle = raise_on_cycle
        #: Latest exhausted-pool report per (object, entry).
        self.reports: dict[tuple[str, str], PoolReport] = {}
        #: Cycles observed with ``raise_on_cycle=False`` (edge lists).
        self.cycles: list[list] = []
        #: Number of scans performed.
        self.scans = 0
        self._stopped = False
        self.process = kernel.spawn(
            self._loop, name="alps.live-detector", daemon=True
        )

    def stop(self) -> None:
        """Ask the detector to exit at its next wake-up."""
        self._stopped = True

    def _loop(self):
        while not self._stopped:
            yield Delay(self.interval)
            if self._stopped:
                return
            # Stand down when the detector itself is the only thing
            # keeping the event queue alive — either the workload is done
            # (let the run end) or it is fully blocked (let the kernel's
            # quiescence check produce the canonical DeadlockError).
            workload = [p for p in self.kernel.processes() if not p.daemon]
            if not workload:
                return
            if all(
                p.state == ProcessState.BLOCKED for p in workload
            ) and not self.kernel.has_live_events(ignoring=self.process):
                return
            self.scans += 1
            snapshot = build_wait_graph(self.kernel)
            for pool in snapshot.pools:
                self.reports[(pool.obj, pool.entry)] = pool
            cycles = snapshot.cycles(definite_only=True)
            if not cycles:
                continue
            if self.raise_on_cycle:
                lines = [
                    f"live deadlock detected at t={self.kernel.clock.now}:"
                ]
                for cycle in cycles:
                    lines.append("wait-for cycle: " + describe_cycle(cycle))
                raise DeadlockError("\n".join(lines), wait_for=snapshot)
            self.cycles.extend(cycles)
