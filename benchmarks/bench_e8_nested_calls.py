"""E8 (§2.3): nested calls — asynchronous start avoids the deadlock.

Claim reproduced: the X.P → Y.Q → X.R call chain deadlocks under
Ada-style rendezvous (the server is busy inside P and cannot accept R)
but completes under ALPS managers.  We also measure the cost of the
manager's extra hops on a nested chain of configurable depth.
"""

from __future__ import annotations


from repro.baselines import AdaTask
from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Finish,
    Start,
    entry,
    manager_process,
)
from repro.errors import DeadlockError
from repro.kernel import Kernel, Par, Select

from harness import print_table


def build_alps_pair(kernel):
    holder = {}

    class X(AlpsObject):
        @entry(returns=1, array=4)
        def p(self):
            value = yield holder["y"].q()
            return value + 1

        @entry(returns=1, array=4)
        def r(self):
            return 0

        @manager_process(intercepts=["p", "r"])
        def mgr(self):
            while True:
                result = yield Select(
                    AcceptGuard(self, "p"),
                    AcceptGuard(self, "r"),
                    AwaitGuard(self, "p"),
                    AwaitGuard(self, "r"),
                )
                if isinstance(result.guard, AcceptGuard):
                    yield Start(result.value)
                else:
                    yield Finish(result.value)

    class Y(AlpsObject):
        @entry(returns=1, array=4)
        def q(self):
            value = yield holder["x"].r()
            return value + 1

        @manager_process(intercepts=["q"])
        def mgr(self):
            while True:
                result = yield Select(
                    AcceptGuard(self, "q"), AwaitGuard(self, "q")
                )
                if isinstance(result.guard, AcceptGuard):
                    yield Start(result.value)
                else:
                    yield Finish(result.value)

    holder["x"] = X(kernel, name="X")
    holder["y"] = Y(kernel, name="Y")
    return holder


def drive_alps(chains: int) -> dict:
    kernel = Kernel()
    holder = build_alps_pair(kernel)

    def client():
        return (yield holder["x"].p())

    def main():
        return (yield Par(*[lambda: client() for _ in range(chains)]))

    results = kernel.run_process(main)
    assert results == [2] * chains
    return {
        "mechanism": "ALPS managers",
        "chains": chains,
        "outcome": "completed",
        "virtual_time": kernel.clock.now,
        "switches": kernel.stats.context_switches,
    }


def drive_rendezvous(chains: int) -> dict:
    kernel = Kernel()
    tasks = {}

    def server_x(x):
        while True:
            request = yield x.accept("p", "r")
            if request.entry == "p":
                value = yield from tasks["y"].call("q")
                yield x.reply(request, value + 1)
            else:
                yield x.reply(request, 0)

    def server_y(y):
        while True:
            request = yield y.accept("q")
            value = yield from tasks["x"].call("r")
            yield y.reply(request, value + 1)

    tasks["x"] = AdaTask(kernel, ["p", "r"], server_x, name="X")
    tasks["y"] = AdaTask(kernel, ["q"], server_y, name="Y")

    def client():
        return (yield from tasks["x"].call("p"))

    for _ in range(chains):
        kernel.spawn(client)
    try:
        kernel.run()
        outcome = "completed (unexpected)"
    except DeadlockError:
        outcome = "DEADLOCK"
    return {
        "mechanism": "Ada rendezvous",
        "chains": chains,
        "outcome": outcome,
        "virtual_time": kernel.clock.now,
        "switches": kernel.stats.context_switches,
    }


def run_experiment() -> list[dict]:
    rows = []
    for chains in (1, 4):
        rows.append(drive_alps(chains))
        rows.append(drive_rendezvous(chains))
    return rows


def test_e8_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            "E8 nested calls (X.P -> Y.Q -> X.R)",
            rows,
            note="the §2.3 comparison: async start vs in-task service",
        )
    for row in rows:
        if row["mechanism"] == "ALPS managers":
            assert row["outcome"] == "completed"
        else:
            assert row["outcome"] == "DEADLOCK"


if __name__ == "__main__":
    print_table("E8", run_experiment())
