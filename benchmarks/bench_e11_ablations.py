"""E11 (ablations): design choices DESIGN.md calls out.

Not a paper experiment — ablations of this implementation's own choices:

* **arbitration** — points the paper leaves to "the implementation"
  (slot attachment, ready-guard choice) under ``ordered`` vs seeded
  ``random`` policy: semantics must be identical, fairness may differ;
* **interception width** — intercepting parameters the manager does not
  need (§2.6 warns it is "wasteful to require the manager to receive all
  the parameters"): measures the bookkeeping delta;
* **front end** — each §2 listing (``examples/paper/*.alps``) compiled
  from ALPS source vs its native stdlib twin: identical outcomes, virtual
  time and kernel counters (the twin driver is ``tests/paper_listings.py``).
"""

from __future__ import annotations


from repro.core import (
    AcceptGuard,
    AlpsObject,
    entry,
    icpt,
    manager_process,
)
from repro.kernel import Kernel, Par, Select
from repro.kernel.costs import FREE
from repro.stdlib import ParallelBuffer

from harness import print_table
from tests.paper_listings import TWINS, run_twins

FRONTEND_NOTE = (
    "compiled = native on outcomes, virtual time and counters; dictionary_27's "
    "twin has combining=False: the listing has no combining arm (§2.7.1 has no listing yet)"
)


# -- arbitration ---------------------------------------------------------


def drive_arbitration(policy: str, seed: int) -> dict:
    kernel = Kernel(costs=FREE, seed=seed, arbitration=policy)
    buf = ParallelBuffer(kernel, size=4, producer_max=3, consumer_max=3, copy_work=7)
    received = []

    def producer(base):
        for i in range(10):
            yield buf.deposit((base, i))

    def consumer():
        for _ in range(10):
            received.append((yield buf.remove()))

    def main():
        yield Par(
            *[lambda b=b: producer(b) for b in range(3)],
            *[lambda: consumer() for _ in range(3)],
        )

    kernel.run_process(main)
    conserved = sorted(received) == [(b, i) for b in range(3) for i in range(10)]
    return {
        "policy": f"{policy}/seed{seed}",
        "conserved": conserved,
        "virtual_time": kernel.clock.now,
        "switches": kernel.stats.context_switches,
    }


# -- interception width ----------------------------------------------------


def drive_interception(width: int) -> dict:
    def op(self, a, b, c, d):
        return a + b + c + d

    def mgr(self):
        while True:
            result = yield Select(AcceptGuard(self, "op"))
            yield from self.execute(result.value)

    namespace = {
        "op": entry(returns=1, array=4)(op),
        "mgr": manager_process(intercepts={"op": icpt(params=width)})(mgr),
    }
    cls = type(f"Wide{width}", (AlpsObject,), namespace)

    kernel = Kernel()
    obj = cls(kernel)

    def caller(n):
        return (yield obj.op(n, n, n, n))

    def main():
        return (yield Par(*[lambda i=i: caller(i) for i in range(40)]))

    results = kernel.run_process(main)
    assert results == [4 * i for i in range(40)]
    return {
        "intercepted_params": width,
        "virtual_time": kernel.clock.now,
        "resumptions": kernel.stats.resumptions,
    }


# -- surface language vs native ------------------------------------------------


def drive_frontend() -> list[dict]:
    """Every §2 listing against its stdlib twin (``run_twins`` asserts
    the two runs equal), default costs, ``ordered``."""
    rows = []
    for twin in TWINS:
        run = run_twins(twin)
        rows.append({"listing": twin.stem, "virtual_time": run.now, **run.counters})
    return rows


def run_experiment():
    arbitration = [
        drive_arbitration("ordered", 0),
        drive_arbitration("random", 1),
        drive_arbitration("random", 2),
        drive_arbitration("random", 3),
    ]
    interception = [drive_interception(w) for w in (0, 2, 4)]
    frontend = drive_frontend()
    return arbitration, interception, frontend


def test_e11_tables(capsys):
    arbitration, interception, frontend = run_experiment()
    with capsys.disabled():
        print_table(
            "E11a arbitrary-choice policy: conservation under any arbitration",
            arbitration,
        )
        print_table(
            "E11b interception width: intercepting unneeded parameters",
            interception,
            note="§2.6: manager receives only an initial subsequence",
        )
        print_table(
            "E11c surface language: each §2 listing = its stdlib twin",
            frontend,
            note=FRONTEND_NOTE,
        )
    assert all(row["conserved"] for row in arbitration)
    # Interception width must not change scheduling outcomes materially.
    times = [row["virtual_time"] for row in interception]
    assert max(times) <= 1.2 * min(times)
    # The front end needs no check here: run_twins raised on any listing
    # whose compiled run differs from its twin's.


if __name__ == "__main__":
    a, b, c = run_experiment()
    print_table("E11a", a)
    print_table("E11b", b)
    print_table("E11c", c, note=FRONTEND_NOTE)
