"""E7 (§1, §2.3, §3): the high-priority manager is "more receptive".

Claim reproduced: "the implementation should execute the manager at a
higher priority compared to the other processes in the object" so that
"synchronization requests are delivered to the manager with minimum
delay".  On a single contended CPU, entry bodies burn simulated cycles;
we sweep the manager's priority and measure how long calls wait before
being accepted (queueing delay) and overall makespan.
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
from repro.core.monitoring import queue_times
from repro.kernel import (
    PRIORITY_BACKGROUND,
    PRIORITY_MANAGER,
    PRIORITY_NORMAL,
    Kernel,
    Par,
    Select,
)

from harness import print_table

CALLERS = 24
BODY_WORK = 25


class Service(AlpsObject):
    """Concurrent service whose bodies consume real (simulated) CPU."""

    @entry(returns=1, array=8, work=BODY_WORK)
    def op(self, n):
        return n

    @manager_process(intercepts=["op"])
    def mgr(self):
        while True:
            result = yield Select(
                AcceptGuard(self, "op"),
                AwaitGuard(self, "op"),
            )
            if isinstance(result.guard, AcceptGuard):
                yield Start(result.value)
            else:
                yield Finish(result.value)


def drive(manager_priority: int, label: str) -> dict:
    kernel = Kernel(num_cpus=1)
    service = Service(kernel, manager_priority=manager_priority, record_calls=True)

    def caller(n):
        return (yield service.op(n))

    def main():
        return (yield Par(*[lambda i=i: caller(i) for i in range(CALLERS)]))

    kernel.run_process(main)
    waits = queue_times(service.completed_calls("op"))
    return {
        "manager_priority": label,
        "mean_accept_wait": round(waits.mean, 1),
        "p95_accept_wait": waits.p95,
        "max_accept_wait": waits.maximum,
        "makespan": kernel.clock.now,
    }


def run_experiment() -> list[dict]:
    return [
        drive(PRIORITY_MANAGER, "high (paper)"),
        drive(PRIORITY_NORMAL, "equal to bodies"),
        drive(PRIORITY_BACKGROUND, "below bodies"),
    ]


def test_e7_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E7 manager priority: {CALLERS} callers, 1 CPU, "
            f"{BODY_WORK}-tick bodies",
            rows,
            note="accept wait = ticks from call issue to manager accept",
        )
    high, equal, low = rows
    # The paper's recommendation: a high-priority manager accepts calls
    # no later (and typically much sooner) than a deprioritized one.
    assert high["mean_accept_wait"] <= equal["mean_accept_wait"]
    assert high["mean_accept_wait"] < low["mean_accept_wait"]
    assert high["p95_accept_wait"] <= low["p95_accept_wait"]


if __name__ == "__main__":
    print_table("E7", run_experiment())
