"""E10 (§1, §4): the manager generalizes the classical abstractions, and
the whole system runs distributed on the paper's transputer grid.

Part A — the same readers-writers resource programmed four ways (ALPS
manager, monitor, serializer, path expression) services an identical
trace; all agree semantically, and the table shows each mechanism's
event-count profile.

Part B — remote entry calls on the 4×4 transputer grid: response time
scales with hop distance; co-located calls are free (the §1 RPC model).
"""

from __future__ import annotations


from repro.baselines import (
    MonitorReadersWriters,
    PathReadersWriters,
    SerializerReadersWriters,
)
from repro.kernel import Delay, Kernel, Par
from repro.kernel.costs import FREE
from repro.net import transputer_grid
from repro.stdlib import Database, Dictionary

from harness import print_table

READERS = 16
WRITERS = 4


def _drive_generic(db, kernel, uses_yield_from: bool) -> None:
    def reader(i):
        yield Delay(i % 4)
        if uses_yield_from:
            yield from db.read("k")
        else:
            yield db.read("k")

    def writer(i):
        yield Delay(i % 6)
        if uses_yield_from:
            yield from db.write("k", i)
        else:
            yield db.write("k", i)

    def main():
        yield Par(
            *[lambda i=i: reader(i) for i in range(READERS)],
            *[lambda i=i: writer(i) for i in range(WRITERS)],
        )

    kernel.run_process(main)


def drive_mechanism(name: str) -> dict:
    kernel = Kernel(costs=FREE)
    if name == "manager":
        db = Database(kernel, read_max=4, read_work=10, write_work=20, initial={"k": 0})
        _drive_generic(db, kernel, uses_yield_from=False)
        violations = db.exclusion_violations
    elif name == "monitor":
        db = MonitorReadersWriters(kernel, read_max=4, read_work=10, write_work=20)
        _drive_generic(db, kernel, uses_yield_from=True)
        violations = db.exclusion_violations
    elif name == "serializer":
        db = SerializerReadersWriters(kernel, read_work=10, write_work=20)
        _drive_generic(db, kernel, uses_yield_from=True)
        violations = 0
    else:  # path expressions
        db = PathReadersWriters(kernel, read_work=10, write_work=20)
        _drive_generic(db, kernel, uses_yield_from=True)
        violations = db.exclusion_violations
    return {
        "mechanism": name,
        "virtual_time": kernel.clock.now,
        "violations": violations,
        "switches": kernel.stats.context_switches,
        "sends+receives": kernel.stats.sends + kernel.stats.receives,
        "selects": kernel.stats.selects,
    }


def drive_grid() -> list[dict]:
    kernel = Kernel(costs=FREE)
    net = transputer_grid(kernel, 4, 4, link_latency=1)
    dictionary = Dictionary(
        kernel, entries={"w": "m"}, search_max=32, search_work=5,
        combining=False, record_calls=True,
    )
    home = net.node("t0_0")
    home.place(dictionary)
    procs = {}
    for node in net.nodes():
        def client():
            return (yield dictionary.search("w"))

        procs[node.name] = (node, node.spawn(client))
    kernel.run()
    calls = dictionary.completed_calls("search")
    out = {}
    for call in calls:
        node = call.caller.node
        hops = net.latency(node, home) if node is not home else 0
        out.setdefault(hops, []).append(call.response_time)
    return [
        {
            "hops": hops,
            "callers": len(times),
            "mean_response": round(sum(times) / len(times), 1),
        }
        for hops, times in sorted(out.items())
    ]


def run_experiment() -> tuple[list[dict], list[dict]]:
    mechanisms = [
        drive_mechanism("manager"),
        drive_mechanism("monitor"),
        drive_mechanism("serializer"),
        drive_mechanism("path"),
    ]
    grid = drive_grid()
    return mechanisms, grid


def test_e10_table(capsys):
    mechanisms, grid = run_experiment()
    with capsys.disabled():
        print_table(
            f"E10a one resource, four mechanisms: {READERS} readers / "
            f"{WRITERS} writers",
            mechanisms,
            note="§1: the manager generalizes monitor/serializer/paths",
        )
        print_table(
            "E10b remote calls on the 4x4 transputer grid (§4)",
            grid,
            note="16 callers, one per node; object on t0_0",
        )
    for row in mechanisms:
        assert row["violations"] == 0
    # Response time grows monotonically with hop distance.
    means = [row["mean_response"] for row in grid]
    assert means == sorted(means)
    assert grid[0]["hops"] == 0


if __name__ == "__main__":
    m, g = run_experiment()
    print_table("E10a", m)
    print_table("E10b", g)
