"""Soundness gate: static cycle prediction vs the live wait-for graph.

Every fixture in ``tests/fixtures/deadlock`` deadlocks at runtime with
at least one wait-for cycle.  The contract enforced here (and in CI) is
*zero false negatives on the corpus*: for every cycle the runtime graph
observes, the whole-program analyzer must statically predict a cycle
covering the same set of objects — the fixtures use default object
names, so runtime ``WaitEdge.obj`` labels equal class names and the two
sides compare directly.  The reverse direction (no false positives on
correct programs) is covered by the good-fixture corpus and by the
repo-wide ``--whole-program`` lint of ``src/repro`` + ``examples``.
"""

import glob
import importlib.util
import os

import pytest

from repro.analysis.wholeprogram import analyze_paths, cycle_class_sets
from repro.errors import DeadlockError
from repro.kernel import Kernel

CORPUS = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "deadlock"
)


def corpus_files() -> list[str]:
    return sorted(glob.glob(os.path.join(CORPUS, "dl_*.py")))


def load_fixture(path: str):
    name = "dl_fixture_" + os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runtime_cycle_sets(path: str) -> list[set[str]]:
    """Object-name participant sets of every runtime wait-for cycle."""
    module = load_fixture(path)
    kernel = Kernel()
    module.build(kernel)
    with pytest.raises(DeadlockError) as excinfo:
        kernel.run()
    snapshot = excinfo.value.wait_for
    assert snapshot is not None
    return [
        {edge.obj for edge in cycle if edge.obj}
        for cycle in snapshot.cycles()
    ]


class TestSoundnessGate:
    def test_corpus_is_not_vacuous(self):
        assert len(corpus_files()) >= 5

    @pytest.mark.parametrize(
        "path", corpus_files(), ids=[os.path.basename(p) for p in corpus_files()]
    )
    def test_every_runtime_cycle_is_predicted(self, path):
        observed = runtime_cycle_sets(path)
        assert observed, (
            f"{os.path.basename(path)} deadlocked without a wait-for "
            f"cycle — fixture does not exercise the gate"
        )
        graph, findings = analyze_paths([path])
        predicted = cycle_class_sets(graph)
        assert predicted, f"{os.path.basename(path)}: no static prediction"
        for cycle_objs in observed:
            assert any(
                cycle_objs <= prediction for prediction in predicted
            ), (
                f"{os.path.basename(path)}: runtime cycle {cycle_objs} "
                f"not covered by any predicted cycle {predicted} "
                f"(FALSE NEGATIVE — the soundness contract is broken)"
            )

    @pytest.mark.parametrize(
        "path", corpus_files(), ids=[os.path.basename(p) for p in corpus_files()]
    )
    def test_prediction_carries_alp120_finding(self, path):
        _graph, findings = analyze_paths([path])
        codes = {f.code for f in findings}
        assert "ALP120" in codes
        cycle_findings = [f for f in findings if f.code == "ALP120"]
        # The finding names the full cycle in DeadlockError's notation.
        assert all("--[" in f.message for f in cycle_findings)
        assert all("predicted wait-for cycle" in f.message for f in cycle_findings)

    def test_clean_trees_stay_clean(self):
        # No false ALP120/ALP121 on the shipped library and examples —
        # the same invariant CI enforces with --whole-program.
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        _graph, findings = analyze_paths(
            [os.path.join(root, "src", "repro"), os.path.join(root, "examples")]
        )
        assert findings == [], "\n".join(f.render() for f in findings)
