"""E9 (§3): guard evaluation over hidden procedure arrays.

Claim reproduced: "a hidden procedure array P[1..N] may have only a small
number of requests attached to it on the average and it is wasteful to
implement a guarded command of the form ((i:1..N) accept P[i] ...) " by
polling every element.  We program the same manager two ways:

* **naive** — the select lists one guard per array element (N guards
  polled on every evaluation, the paper's wasteful translation);
* **quantified** — one guard ranges over the array and the runtime wakes
  the manager only on relevant events (indexed wakeup).

With a per-guard polling charge, the naive manager's cost grows with N
while the quantified one stays flat — the measured form of §3's
implementation advice.
"""

from __future__ import annotations

from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Finish,
    Start,
    entry,
    manager_process,
)
from repro.kernel import CostModel, Kernel, Par, Select

from harness import print_table

CALLS = 32
POLL_COSTS = CostModel(guard_poll=1)


def build_service(array_size: int, naive: bool):
    class Service(AlpsObject):
        def setup(self):
            self.array_size = array_size

        @entry(returns=1, array="array_size")
        def op(self, n):
            return n

        @manager_process(intercepts=["op"])
        def mgr(self):
            while True:
                if naive:
                    guards = [
                        AcceptGuard(self, "op", slot=i)
                        for i in range(self.array_size)
                    ] + [
                        AwaitGuard(self, "op", slot=i)
                        for i in range(self.array_size)
                    ]
                    result = yield Select(*guards)
                else:
                    result = yield Select(
                        AcceptGuard(self, "op"),
                        AwaitGuard(self, "op"),
                    )
                if isinstance(result.guard, AcceptGuard):
                    yield Start(result.value)
                else:
                    yield Finish(result.value)

    return Service


def drive(array_size: int, naive: bool) -> dict:
    kernel = Kernel(costs=POLL_COSTS)
    service = build_service(array_size, naive)(kernel)

    def caller(n):
        return (yield service.op(n))

    def main():
        return (yield Par(*[lambda i=i: caller(i) for i in range(CALLS)]))

    results = kernel.run_process(main)
    assert sorted(results) == list(range(CALLS))
    return {
        "strategy": "naive per-slot" if naive else "quantified",
        "array_N": array_size,
        "guard_polls": kernel.stats.guard_polls,
        "polls_per_call": round(kernel.stats.guard_polls / CALLS, 1),
        "virtual_time": kernel.clock.now,
    }


def run_experiment() -> list[dict]:
    rows = []
    for array_size in (4, 16, 64, 128):
        rows.append(drive(array_size, naive=True))
        rows.append(drive(array_size, naive=False))
    return rows


def test_e9_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E9 guard polling over P[1..N]: {CALLS} calls, poll cost = 1 tick",
            rows,
        )
    naive = {r["array_N"]: r for r in rows if r["strategy"] == "naive per-slot"}
    quantified = {r["array_N"]: r for r in rows if r["strategy"] == "quantified"}
    # Naive polling scales with N...
    assert naive[128]["guard_polls"] > 4 * naive[4]["guard_polls"]
    # ...while the quantified guard's poll count is essentially flat.
    assert quantified[128]["guard_polls"] < 2 * quantified[4]["guard_polls"]
    # And at large N the naive manager pays for it in virtual time.
    assert naive[128]["virtual_time"] > quantified[128]["virtual_time"]


if __name__ == "__main__":
    print_table("E9", run_experiment())
