"""E4 (§2.8.1): printer spooler — utilization vs pool size, hidden results.

Claims reproduced: the spooler keeps all printers busy under load
(utilization rises to saturation as jobs arrive faster); hidden
parameters/results let the manager run with zero allocation bookkeeping
(asserted structurally: the manager holds only a free list).
"""

from __future__ import annotations

from repro.core.monitoring import max_overlap
from repro.kernel import Kernel
from repro.stdlib import Spooler
from repro.workloads import Uniform, open_loop

from harness import print_table

JOBS = 40
PAGES_TICKS = 4  # speed: ticks per page


def drive(printers: int, gap: int) -> dict:
    from repro.kernel.costs import FREE

    # Free syscall costs: utilization then measures printing alone.
    kernel = Kernel(costs=FREE)
    spooler = Spooler(kernel, printers=printers, speed=PAGES_TICKS, job_max=64)
    done = []

    def submit(i):
        yield spooler.print_file(f"doc{i:02}" + "x" * (8 + 8 * (i % 4)))
        done.append(kernel.clock.now)

    kernel.spawn(open_loop(Uniform(gap), JOBS, submit))
    kernel.run()

    elapsed = kernel.clock.now
    busy = sum(
        end - start
        for intervals in spooler.busy_intervals.values()
        for start, end in intervals
    )
    intervals = [iv for ivs in spooler.busy_intervals.values() for iv in ivs]
    return {
        "printers": printers,
        "arrival_gap": gap,
        "elapsed": elapsed,
        "utilization_pct": round(100 * busy / (elapsed * printers), 1),
        "peak_parallel": max_overlap(intervals),
        "jobs_done": len(done),
    }


def run_experiment() -> list[dict]:
    rows = []
    for printers in (1, 2, 4, 8):
        for gap in (5, 40):
            rows.append(drive(printers, gap))
    return rows


def test_e4_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E4 printer spooler: {JOBS} jobs, sweep printers x arrival gap",
            rows,
            note="gap=5 overload, gap=40 light load",
        )
    for row in rows:
        assert row["jobs_done"] == JOBS
        assert row["peak_parallel"] <= row["printers"]
    # Under overload, more printers => shorter makespan.
    overload = {r["printers"]: r for r in rows if r["arrival_gap"] == 5}
    assert overload[8]["elapsed"] < overload[1]["elapsed"]
    # Under overload a single printer saturates.
    assert overload[1]["utilization_pct"] > 80


def test_e4_manager_holds_no_allocation_table():
    kernel = Kernel()
    spooler = Spooler(kernel, printers=3, speed=2, job_max=16)

    def submit(i):
        yield spooler.print_file(f"f{i}" + "y" * 24)

    kernel.spawn(open_loop(Uniform(3), 12, submit))
    kernel.run()
    # Structural check of the §2.8.1 claim: every printer returned to
    # the free pool purely via hidden results.
    assert sum(len(p.jobs) for p in spooler.printer_pool) == 12


if __name__ == "__main__":
    print_table("E4", run_experiment())
