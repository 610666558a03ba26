"""The printer spooler of §2.8.1 — hidden parameters and results.

"After accepting a print request, the object's manager assigns a free
printer and supplies the printer number along with the file descriptor to
the corresponding Print procedure. ... Notice that the Print procedure
also returns the printer number as a hidden result back to the manager.
This eliminates a lot of bookkeeping for the manager to remember which
printer has been allocated to which procedure."

``print_file`` is defined with one parameter (the file) but implemented
with a hidden ``printer`` parameter and a hidden printer-number result.
"""

from __future__ import annotations

from ..core import (
    ACCEPT_PRI,
    AWAIT_PRI,
    SHED_PRI,
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    DeadlineSweepGuard,
    Finish,
    PredictedWaitGuard,
    Reject,
    ShedGuard,
    Start,
    entry,
    manager_process,
)
from ..kernel.syscalls import Charge, Select


class Printer:
    """A simulated printer: prints ``speed`` ticks per page."""

    def __init__(self, number: int, speed: int = 5) -> None:
        self.number = number
        self.speed = speed
        self.pages_printed = 0
        self.jobs: list[str] = []


class Spooler(AlpsObject):
    """``object Spooler`` — schedules print requests onto a printer pool.

    Configuration: ``printers`` (pool size), ``speed`` (ticks per page),
    ``job_max`` (hidden array size = simultaneous print jobs),
    ``queue_cap`` (optional admission control: shed print requests once
    more than ``queue_cap`` are pending, §2.5.1 ``#P``).
    """

    def setup(
        self,
        printers: int = 3,
        speed: int = 5,
        job_max: int = 16,
        queue_cap: int | None = None,
    ) -> None:
        if printers < 1:
            raise ValueError(f"need at least one printer, got {printers}")
        self.printer_pool = [Printer(i, speed) for i in range(printers)]
        self.job_max = job_max
        self.queue_cap = queue_cap
        #: Busy intervals per printer for the utilization benchmark.
        self.busy_intervals: dict[int, list[tuple[int, int]]] = {
            p.number: [] for p in self.printer_pool
        }

    @entry(array="job_max", hidden_params=1, hidden_results=1)
    def print_file(self, file, printer):
        """Print ``file`` on the hidden-parameter ``printer``.

        Body signature is ``(File; Printer)`` where ``Printer`` is hidden;
        it returns the printer number as a hidden result so the manager
        can reclaim it without bookkeeping.
        """
        pages = max(1, len(str(file)) // 8)
        start = self.kernel.clock.now
        yield Charge(pages * printer.speed, label="print")
        printer.pages_printed += pages
        printer.jobs.append(str(file))
        self.busy_intervals[printer.number].append((start, self.kernel.clock.now))
        return printer.number

    @manager_process(intercepts=["print_file"])
    def mgr(self):
        free = list(range(len(self.printer_pool)))  # free printer numbers
        cap = self.queue_cap
        if cap is None:
            guards = [
                # accept Print[i] when a printer is free
                AcceptGuard(self, "print_file", when=lambda: bool(free)),
                # (i) await Print[i](printer#) => reclaim the printer
                AwaitGuard(self, "print_file"),
            ]
        else:
            # pri-preference for in-flight work: reclaim printers
            # before admitting; shed before admitting under overload.
            guards = [
                AwaitGuard(self, "print_file", pri=AWAIT_PRI),
                DeadlineSweepGuard(self, "print_file"),
                PredictedWaitGuard(self, "print_file"),
                ShedGuard(self, "print_file", cap=cap, pri=SHED_PRI),
                AcceptGuard(self, "print_file", when=lambda: bool(free),
                            pri=ACCEPT_PRI),
            ]
        select = Select(guards)
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, ShedGuard):
                yield Reject(call, reason=result.guard.reason)
            elif isinstance(result.guard, AcceptGuard):
                number = free.pop(0)
                # start Print[i](file, printer) — hidden parameter.
                yield Start(call, self.printer_pool[number])
            else:
                # The hidden result tells the manager which printer to
                # reclaim — no allocation table needed.
                (printer_number,) = call.hidden_results
                free.append(printer_number)
                yield Finish(call)
