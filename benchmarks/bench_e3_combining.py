"""E3 (§2.7.1): dictionary request combining — work saved vs popularity skew.

Claim reproduced: "it is wasteful to execute multiple Search processes
that search for the meaning of the same word"; combining converts
duplicate in-flight requests into followers of one execution.  The win
grows with workload skew (Zipf exponent) and with offered concurrency,
and vanishes when all requests are distinct.
"""

from __future__ import annotations

from repro.kernel import Kernel, Par
from repro.kernel.costs import FREE
from repro.stdlib import Dictionary
from repro.workloads import Zipf, word_corpus

from harness import print_table

QUERIES = 96
SEARCH_WORK = 50
CORPUS = word_corpus(400)
ENTRIES = {word: f"def-{word}" for word in CORPUS}


def drive(skew: float, combining: bool) -> dict:
    queries = list(Zipf(CORPUS, s=skew, seed=11).stream(QUERIES))
    kernel = Kernel(costs=FREE)
    dictionary = Dictionary(
        kernel,
        entries=ENTRIES,
        search_max=32,
        search_work=SEARCH_WORK,
        combining=combining,
    )

    def client(word):
        return (yield dictionary.search(word))

    def main():
        return (yield Par(*[lambda w=w: client(w) for w in queries]))

    results = kernel.run_process(main)
    assert all(r == ENTRIES[w] for r, w in zip(results, queries))
    return {
        "zipf_s": skew,
        "combining": combining,
        "searches": dictionary.searches_executed,
        "combined": kernel.stats.calls_combined,
        "work_ticks": kernel.stats.work_ticks,
        "elapsed": kernel.clock.now,
    }


def run_experiment() -> list[dict]:
    rows = []
    for skew in (0.0, 0.8, 1.2, 1.6, 2.0):
        rows.append(drive(skew, combining=False))
        rows.append(drive(skew, combining=True))
    return rows


def test_e3_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E3 dictionary combining: {QUERIES} concurrent queries, "
            f"sweep Zipf skew",
            rows,
            note="work_ticks = simulated CPU spent searching",
        )
    # The shape: combining never does more work, and its advantage grows
    # with skew.
    savings = []
    for skew in (0.0, 0.8, 1.2, 1.6, 2.0):
        off = next(r for r in rows if r["zipf_s"] == skew and not r["combining"])
        on = next(r for r in rows if r["zipf_s"] == skew and r["combining"])
        assert on["searches"] <= off["searches"]
        savings.append(off["work_ticks"] - on["work_ticks"])
    assert savings[-1] > savings[0]  # more skew, more saving
    assert savings[-1] > 0


def test_e3_identical_results_with_and_without():
    off = drive(1.2, combining=False)
    on = drive(1.2, combining=True)
    # Same workload answered either way; combining only cuts work.
    assert on["work_ticks"] < off["work_ticks"]


if __name__ == "__main__":
    print_table("E3", run_experiment())
