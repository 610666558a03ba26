"""E2 (§2.5.1): readers-writers — concurrency vs ReadMax, fairness.

Claims reproduced: up to ReadMax readers run simultaneously (throughput
rises with ReadMax until reader parallelism is exhausted); neither class
starves (bounded maximum wait) thanks to the WriterLast turn-taking.
Also compares against the monitor baseline.
"""

from __future__ import annotations

from repro.baselines import MonitorReadersWriters
from repro.core.monitoring import response_times
from repro.kernel import Delay, Kernel, Par
from repro.kernel.costs import FREE
from repro.stdlib import Database

from harness import print_table

READERS = 24
WRITERS = 6
READ_WORK = 40
WRITE_WORK = 60


def drive_manager(read_max: int) -> dict:
    kernel = Kernel(costs=FREE)
    db = Database(
        kernel,
        read_max=read_max,
        read_work=READ_WORK,
        write_work=WRITE_WORK,
        initial={"k": 0},
        record_calls=True,
    )

    def reader(i):
        yield Delay(i % 5)
        yield db.read("k")

    def writer(i):
        yield Delay(i % 7)
        yield db.write("k", i)

    def main():
        yield Par(
            *[lambda i=i: reader(i) for i in range(READERS)],
            *[lambda i=i: writer(i) for i in range(WRITERS)],
        )

    kernel.run_process(main)
    calls = db.completed_calls()
    reads = [c for c in calls if c.entry == "read"]
    writes = [c for c in calls if c.entry == "write"]
    return {
        "read_max": read_max,
        "virtual_time": kernel.clock.now,
        "peak_readers": db.max_concurrent_readers,
        "violations": db.exclusion_violations,
        "read_p95_wait": response_times(reads).p95,
        "write_p95_wait": response_times(writes).p95,
    }


def drive_monitor_baseline(read_max: int) -> dict:
    kernel = Kernel(costs=FREE)
    db = MonitorReadersWriters(
        kernel, read_max=read_max, read_work=READ_WORK, write_work=WRITE_WORK
    )

    def reader(i):
        yield Delay(i % 5)
        yield from db.read("k")

    def writer(i):
        yield Delay(i % 7)
        yield from db.write("k", i)

    def main():
        yield Par(
            *[lambda i=i: reader(i) for i in range(READERS)],
            *[lambda i=i: writer(i) for i in range(WRITERS)],
        )

    kernel.run_process(main)
    return {
        "read_max": read_max,
        "virtual_time": kernel.clock.now,
        "peak_readers": db.max_concurrent_readers,
        "violations": db.exclusion_violations,
    }


def run_experiment() -> tuple[list[dict], list[dict]]:
    manager_rows = [drive_manager(n) for n in (1, 2, 4, 8, 16)]
    monitor_rows = [drive_monitor_baseline(n) for n in (1, 4, 16)]
    return manager_rows, monitor_rows


def test_e2_table(capsys):
    manager_rows, monitor_rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E2 readers-writers (ALPS manager): {READERS} readers / "
            f"{WRITERS} writers, sweep ReadMax",
            manager_rows,
        )
        print_table("E2 monitor baseline", monitor_rows)
    for row in manager_rows:
        assert row["violations"] == 0
        assert row["peak_readers"] <= row["read_max"]
    # More reader parallelism => shorter runs, saturating eventually.
    times = [row["virtual_time"] for row in manager_rows]
    assert times[0] > times[2]  # ReadMax 1 -> 4 improves
    assert times[-1] <= times[0]


def test_e2_starvation_bound():
    row = drive_manager(4)
    # Starvation freedom: even the p95 writer wait is bounded well
    # below the whole-run duration.
    assert row["write_p95_wait"] < row["virtual_time"]


if __name__ == "__main__":
    m, b = run_experiment()
    print_table("E2 manager", m)
    print_table("E2 monitor", b)
