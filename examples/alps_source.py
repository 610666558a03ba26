#!/usr/bin/env python
"""Running a program written in ALPS's own notation (§2, §4).

The paper presents ALPS in a Pascal-like syntax and §4 reports a compiler
in its initial stages.  ``repro.lang`` is that front end: this example
compiles the §2.5.1 readers-writers database *from source text*
(``examples/paper/database_251.alps``) — hidden procedure array,
quantified guards, `#Write` pending counts, `WriterLast` starvation
avoidance and all — and drives it from Python processes.

Run:  python examples/alps_source.py
"""

from itertools import accumulate
from pathlib import Path

from repro import Kernel, Par
from repro.kernel.costs import FREE
from repro.lang import compile_program

LISTING = Path(__file__).with_name("paper") / "database_251.alps"


def main():
    kernel = Kernel(costs=FREE)
    module = compile_program(LISTING.read_text())
    db = module.instantiate(
        kernel, "Database", ReadMax=3, WriteWork=25, Store={"config": "v0"}, record_calls=True
    )

    print("compiled from ALPS source:", db.definition().describe(), sep="\n")
    print()

    log = []

    def reader(i):
        value = yield db.call("Read", "config")
        log.append(f"[{kernel.clock.now:>4}] reader {i} saw {value!r}")

    def writer(i):
        yield db.call("Write", "config", f"v{i + 1}")
        log.append(f"[{kernel.clock.now:>4}] writer {i} committed v{i + 1}")

    def main_proc():
        yield Par(
            *[lambda i=i: reader(i) for i in range(7)],
            *[lambda i=i: writer(i) for i in range(2)],
        )

    kernel.run_process(main_proc)
    print("\n".join(log))
    # Each read body's start and end, from the call records: +1, then -1.
    reads = db.completed_calls("Read")
    edges = sorted([(c.started_at, 1) for c in reads] + [(c.body_done_at, -1) for c in reads])
    peak = max(accumulate(step for _, step in edges))
    print(
        f"\npeak concurrent readers: {peak} (ReadMax={db.ReadMax}); "
        f"final value: {db.Store['config']!r}; t={kernel.clock.now}"
    )


if __name__ == "__main__":
    main()
