"""The paper's §2 listings, each run against its stdlib twin by one driver.

Every §2 program has exactly one file under ``examples/paper/``.
:data:`TWINS` pairs each listing with the stdlib object that implements
it natively, configured to match, and with a workload.
:func:`run_twins` runs that workload on both under one arbitration policy
and seed and asserts that nothing tells them apart: the same outcome and
the same hidden results for every call, the same virtual time and the
same :data:`COUNTERS`.  A hidden result names what the manager lent the
body (§2.8.1's printer, §2.8.2's slot), so on each side no two bodies
with the same hidden result may overlap.

Tier-1 runs it as a table (``tests/lang/test_paper_listings.py``), the
Hypothesis property over the buffer calls it with generated workloads, and
E11c prints one row per listing.  Nothing under ``src/`` reads the
listings.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Callable

from repro.core import max_overlap
from repro.kernel import DEFAULT, Kernel
from repro.lang import compile_program
from repro.stdlib import BoundedBuffer, Database, Dictionary, ParallelBuffer, Spooler

PAPER = Path(__file__).resolve().parent.parent / "examples" / "paper"

COUNTERS = ("accepts", "starts", "context_switches", "resumptions", "spawns")
ARBITRATIONS = [("ordered", 0)] + [("random", seed) for seed in range(1, 6)]


def listing(stem: str) -> str:
    """The text of ``examples/paper/<stem>.alps``."""
    return (PAPER / f"{stem}.alps").read_text()


def instantiate(kernel: Kernel, stem: str, **config):
    """Compile listing *stem* and create its one object on *kernel*."""
    module = compile_program(listing(stem))
    (name,) = module.classes
    return module.instantiate(kernel, name, **config)


@dataclass(frozen=True)
class Twin:
    stem: str  # the listing's file name, without ``.alps``
    config: dict  # what the listing is instantiated with
    native: Callable  # (kernel, **options) -> the stdlib twin, configured to match
    entries: dict  # listing procedure -> the twin's entry name
    workload: list  # one script per caller: its (procedure, *args) calls


@dataclass(frozen=True)
class Run:
    outcomes: list  # per caller, the result of each of its calls
    now: int
    counters: dict
    hidden: list  # per caller, the hidden results of each recorded call
    calls: list = field(compare=False, repr=False)  # ``completed_calls()``


def drive(kernel: Kernel, obj, workload: list, entries: dict | None = None) -> Run:
    """Spawn one caller per script of *workload* on *obj*; run to the end."""
    entries = entries or {}

    def caller(script):
        results = []
        for proc, *args in script:
            results.append((yield obj.call(entries.get(proc, proc), *args)))
        return results

    callers = [kernel.spawn(caller, script) for script in workload]
    kernel.run()
    counters = {name: getattr(kernel.stats, name) for name in COUNTERS}
    calls = obj.completed_calls()  # empty unless made with ``record_calls=True``
    order = {process: i for i, process in enumerate(callers)}
    hidden = [[] for _ in callers]
    for call in sorted(calls, key=attrgetter("call_id")):
        hidden[order[call.caller]].append(call.hidden_results)
    return Run([c.result for c in callers], kernel.clock.now, counters, hidden, calls)


def double_booked(calls: list) -> list:
    """The hidden results held by two overlapping bodies at once."""
    held: dict = {}
    for call in calls:
        if call.hidden_results:
            held.setdefault(call.hidden_results, []).append((call.started_at, call.body_done_at))
    return [key for key, intervals in held.items() if max_overlap(intervals) > 1]


def run_twins(twin: Twin, arbitration: str = "ordered", seed: int = 0, costs=DEFAULT) -> Run:
    """Run *twin*'s workload on the listing and on the stdlib object;
    assert the two runs are equal and return it."""

    def kernel() -> Kernel:
        return Kernel(costs=costs, seed=seed, arbitration=arbitration)

    k = kernel()
    config = copy.deepcopy(twin.config)
    compiled = drive(k, instantiate(k, twin.stem, record_calls=True, **config), twin.workload)
    k = kernel()
    native = drive(k, twin.native(k, record_calls=True), twin.workload, twin.entries)
    for side, run in (("compiled", compiled), ("native", native)):
        assert not double_booked(run.calls), (
            f"{twin.stem} {side}, {arbitration} seed {seed}: "
            f"{double_booked(run.calls)} held by two bodies at once"
        )
    assert compiled == native, (
        f"{twin.stem}, {arbitration} seed {seed}:\n"
        f"  compiled {compiled}\n  native   {native}"
    )
    return native


def buffer_twin(size: int, producers: list) -> Twin:
    """The §2.4.1 buffer: one caller per message list in *producers*
    deposits it, one more removes every message."""
    removes = sum(len(messages) for messages in producers)
    return Twin(
        "buffer_241",
        {"N": size},
        lambda kernel, **options: BoundedBuffer(kernel, size=size, **options),
        {"Deposit": "deposit", "Remove": "remove"},
        [[("Deposit", m) for m in messages] for messages in producers] + [[("Remove",)] * removes],
    )


MEANINGS = {"cat": "feline", "dog": "canine", "eel": "fish", "owl": "bird"}
FILES = ["a.txt", "thesis-chapter-03-related-work.tex", "x", "annual-report.pdf", "q", "slides.key"]

TWINS = [
    # E11c's row: 1,440 ticks under the default costs.
    buffer_twin(4, [list(range(120))]),
    Twin(
        "database_251",
        {"Store": {"k": "v0"}},
        lambda kernel, **options: Database(
            kernel, read_max=4, read_work=10, write_work=20, initial={"k": "v0"}, **options
        ),
        {"Read": "read", "Write": "write"},
        [[("Read", "k")] * 2 for _ in range(5)]
        + [[("Write", "k", f"v{w}"), ("Read", "k")] for w in (1, 2)]
        + [[("Read", "k"), ("Write", "k", "v3")]],
    ),
    # Against the default combining=True the twins part: the listing
    # has no combining arm (§2.7.1 has no listing yet).
    Twin(
        "dictionary_27",
        {"Meanings": MEANINGS},
        lambda kernel, **options: Dictionary(
            kernel, entries=MEANINGS, search_max=8, search_work=50, combining=False, **options
        ),
        {"Search": "search"},
        [[("Search", w)] for w in ("cat", "dog", "cat", "eel", "cat", "dog")]
        + [[("Search", "owl"), ("Search", "cat")]],
    ),
    Twin(
        "spooler_281",
        {},
        lambda kernel, **options: Spooler(kernel, printers=3, speed=5, job_max=16, **options),
        {"Print": "print_file"},
        [[("Print", FILES[i]), ("Print", FILES[-1 - i])] for i in range(5)],
    ),
    Twin(
        "parallel_buffer_282",
        {},
        lambda kernel, **options: ParallelBuffer(
            kernel, size=4, producer_max=3, consumer_max=3, copy_work=30, **options
        ),
        {"Deposit": "deposit", "Remove": "remove"},
        [[("Deposit", (p, i)) for i in range(4)] for p in range(3)]
        + [[("Remove",)] * 4 for _ in range(3)],
    ),
]
