"""E6 (§3): server-process pool strategies under expensive process creation.

Claims reproduced: when dynamic process creation is expensive, dynamic
per-call creation inflates call latency; preallocating one process per
array slot removes the per-call cost; a shared pool of M << N processes
keeps the process count low "for resources in high demand where the
average queue length is significant" at a modest latency cost.
"""

from __future__ import annotations

from repro.core import PoolConfig
from repro.core.monitoring import response_times
from repro.kernel import CostModel, Kernel, Par
from repro.net import Network
from repro.stdlib import Dictionary
from repro.workloads import word_corpus

from harness import print_table, write_results

REQUESTS = 60
CORPUS = word_corpus(REQUESTS)  # all-distinct words: no combining noise
ENTRIES = {w: f"d-{w}" for w in CORPUS}
HEAVY = CostModel(process_create=300, lwp_create=5, context_switch=1)


def drive(pool: PoolConfig, label: str) -> dict:
    kernel = Kernel(costs=HEAVY)
    dictionary = Dictionary(
        kernel,
        entries=ENTRIES,
        search_max=16,
        search_work=30,
        combining=False,
        pool=pool,
        record_calls=True,
    )

    def client(word):
        return (yield dictionary.search(word))

    def main():
        return (yield Par(*[lambda w=w: client(w) for w in CORPUS]))

    kernel.run_process(main)
    calls = dictionary.completed_calls("search")
    summary = response_times(calls)
    return {
        "pool": label,
        "workers_peak": dictionary.pool.max_busy,
        "preallocation": dictionary.pool.preallocation_cost,
        "queued_starts": dictionary.pool.queued_starts,
        "mean_response": round(summary.mean, 1),
        "p95_response": summary.p95,
        "elapsed": kernel.clock.now,
    }


def run_experiment() -> list[dict]:
    return [
        drive(PoolConfig("dynamic", lightweight=False), "dynamic(heavy)"),
        drive(PoolConfig("dynamic", lightweight=True), "dynamic(lwp)"),
        drive(PoolConfig("per-slot"), "per-slot N=16"),
        drive(PoolConfig("shared", size=8), "shared M=8"),
        drive(PoolConfig("shared", size=4), "shared M=4"),
        drive(PoolConfig("shared", size=2), "shared M=2"),
    ]


def test_e6_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E6 pool strategies: {REQUESTS} bursty requests, "
            f"process creation = 300 ticks",
            rows,
            note="per-slot/shared preallocate (cost charged up front)",
        )
    by_label = {r["pool"]: r for r in rows}
    # Dynamic heavy creation inflates latency vs preallocated slots.
    assert (
        by_label["per-slot N=16"]["mean_response"]
        < by_label["dynamic(heavy)"]["mean_response"]
    )
    # Shared pools bound the worker population...
    assert by_label["shared M=4"]["workers_peak"] <= 4
    assert by_label["shared M=2"]["workers_peak"] <= 2
    # ...at the price of queued starts and growing latency as M shrinks.
    assert by_label["shared M=2"]["queued_starts"] > 0
    assert (
        by_label["shared M=2"]["p95_response"]
        >= by_label["shared M=8"]["p95_response"]
    )


# -- E6SMP: the same shared pool on a finite SMP node -------------------
#
# The base E6 table runs on the unbounded machine, so pool bodies only
# contend for *slots*, never for CPUs.  This sweep places the dictionary
# on one node with a node-local scheduling domain of 1..8 virtual CPUs
# (repro.kernel.sched): a 4-worker shared pool is CPU-starved at
# cpus_per_node=1 and runs its bodies truly in parallel at 4.


def drive_smp(cpus: int) -> dict:
    kernel = Kernel(costs=HEAVY)
    net = Network(kernel, name="smp")
    node = net.add_node("server", cpus=cpus)
    dictionary = Dictionary(
        kernel,
        entries=ENTRIES,
        search_max=16,
        search_work=30,
        combining=False,
        pool=PoolConfig("shared", size=4),
        record_calls=True,
    )
    node.place(dictionary)

    def client(word):
        return (yield dictionary.search(word))

    def main():
        return (yield Par(*[lambda w=w: client(w) for w in CORPUS]))

    kernel.run_process(main)
    calls = dictionary.completed_calls("search")
    summary = response_times(calls)
    elapsed = kernel.clock.now
    return {
        "cpus_per_node": cpus,
        "goodput_per_ktick": round(len(calls) * 1000 / elapsed, 2),
        "mean_response": round(summary.mean, 1),
        "p95_response": summary.p95,
        "elapsed": elapsed,
        "migrations": kernel.stats.migrations,
        "steals": kernel.stats.steals,
    }


def run_smp_experiment() -> list[dict]:
    return [drive_smp(cpus) for cpus in (1, 2, 4, 8)]


def test_e6_smp_scaling(capsys):
    rows = run_smp_experiment()
    with capsys.disabled():
        print_table(
            "E6SMP shared pool M=4 on one node, cpus_per_node sweep",
            rows,
            note="node-local SMP domain; clients on the unbounded machine",
        )
    write_results(
        "E6SMP",
        rows,
        note="shared M=4 dictionary pool on a single node, CPU sweep",
    )
    by_cpus = {r["cpus_per_node"]: r for r in rows}
    # More CPUs per node must buy real goodput: the 4-worker pool wants
    # 4 CPUs, so the 4-CPU node clears >1.5x the 1-CPU node's rate.
    assert (
        by_cpus[4]["goodput_per_ktick"]
        >= 1.5 * by_cpus[1]["goodput_per_ktick"]
    ), rows
    assert by_cpus[2]["goodput_per_ktick"] > by_cpus[1]["goodput_per_ktick"]
    # Past the pool size extra CPUs stop helping (no more runnable
    # bodies than workers) — 8 CPUs is no worse, not magically better.
    assert by_cpus[8]["elapsed"] <= by_cpus[4]["elapsed"]


if __name__ == "__main__":
    print_table("E6", run_experiment())
