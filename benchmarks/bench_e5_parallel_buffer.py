"""E5 (§2.8.2): parallel bounded buffer vs serial buffer — crossover.

Claim reproduced: for "potentially long messages", copying in parallel on
disjoint slots (hidden Place parameters) beats the §2.4.1 serial buffer;
for tiny messages the extra manager traffic makes the serial buffer
competitive.  Sweeps message copy cost and the producer/consumer count to
locate the crossover.
"""

from __future__ import annotations

from repro.kernel import Kernel, Par
from repro.kernel.costs import FREE
from repro.stdlib import BoundedBuffer, ParallelBuffer

from harness import print_table

PER_PRODUCER = 6


def drive(buffer_kind: str, copy_work: int, parties: int) -> dict:
    kernel = Kernel(costs=FREE)
    if buffer_kind == "serial":
        buf = BoundedBuffer(kernel, size=2 * parties, work=copy_work)
    else:
        buf = ParallelBuffer(
            kernel,
            size=2 * parties,
            producer_max=parties,
            consumer_max=parties,
            copy_work=copy_work,
        )
    received = []

    def producer(base):
        for i in range(PER_PRODUCER):
            yield buf.deposit((base, i))

    def consumer():
        for _ in range(PER_PRODUCER):
            received.append((yield buf.remove()))

    def main():
        yield Par(
            *[lambda b=b: producer(b) for b in range(parties)],
            *[lambda: consumer() for _ in range(parties)],
        )

    kernel.run_process(main)
    assert len(received) == parties * PER_PRODUCER
    total_ops = 2 * parties * PER_PRODUCER
    elapsed = max(1, kernel.clock.now)  # copy_work=0 can finish at t=0
    return {
        "buffer": buffer_kind,
        "copy_work": copy_work,
        "parties": parties,
        "virtual_time": kernel.clock.now,
        "ops_per_ktick": round(total_ops * 1000 / elapsed, 1),
    }


def run_experiment() -> list[dict]:
    rows = []
    for copy_work in (0, 5, 20, 80, 320):
        for kind in ("serial", "parallel"):
            rows.append(drive(kind, copy_work, parties=4))
    for parties in (1, 2, 4, 8):
        for kind in ("serial", "parallel"):
            rows.append(drive(kind, 80, parties))
    return rows


def test_e5_table(capsys):
    rows = run_experiment()
    sweep_work = [r for r in rows if r["parties"] == 4][:10]
    sweep_parties = [r for r in rows if r["copy_work"] == 80]
    with capsys.disabled():
        print_table(
            "E5a parallel vs serial buffer: sweep message copy cost "
            "(4 producers / 4 consumers)",
            sweep_work,
        )
        print_table(
            "E5b parallel vs serial buffer: sweep producer/consumer count "
            "(copy_work=80)",
            sweep_parties,
        )
    # The §2.8.2 shape: with long messages the parallel buffer wins big...
    serial_long = next(
        r for r in rows if r["buffer"] == "serial"
        and r["copy_work"] == 320 and r["parties"] == 4
    )
    parallel_long = next(
        r for r in rows if r["buffer"] == "parallel"
        and r["copy_work"] == 320 and r["parties"] == 4
    )
    assert parallel_long["virtual_time"] * 2 < serial_long["virtual_time"]
    # ...and with free copies there is nothing to parallelize: serial is
    # at least as fast (the crossover).
    serial_zero = next(
        r for r in rows if r["buffer"] == "serial"
        and r["copy_work"] == 0 and r["parties"] == 4
    )
    parallel_zero = next(
        r for r in rows if r["buffer"] == "parallel"
        and r["copy_work"] == 0 and r["parties"] == 4
    )
    assert serial_zero["virtual_time"] <= parallel_zero["virtual_time"] * 1.5
    # Throughput scales with parties for the parallel buffer (the load
    # grows with the party count while the makespan stays flat).
    parallel_by_parties = {
        r["parties"]: r["ops_per_ktick"]
        for r in rows
        if r["buffer"] == "parallel" and r["copy_work"] == 80
    }
    assert parallel_by_parties[8] > 4 * parallel_by_parties[1]
    serial_by_parties = {
        r["parties"]: r["ops_per_ktick"]
        for r in rows
        if r["buffer"] == "serial" and r["copy_work"] == 80
    }
    # The serial buffer cannot scale: its throughput stays flat.
    assert serial_by_parties[8] <= 1.2 * serial_by_parties[1]


if __name__ == "__main__":
    print_table("E5", run_experiment())
