"""compare.py verdicts on hand-made pairs."""

import compare


def test_exact_metric_any_difference_is_real():
    assert compare.verdict(100.0, 100.0, "lower", 0.01, exact=True) == "within bound"
    assert compare.verdict(100.0, 99.9, "lower", 0.01, exact=True) == "improved"
    assert compare.verdict(100.0, 100.5, "lower", 0.01, exact=True) == "within bound"
    assert compare.verdict(100.0, 101.5, "lower", 0.01, exact=True) == "regressed"
    assert compare.verdict(80.0, 70.0, "higher", 0.03, exact=True) == "regressed"
    assert compare.verdict(80.0, 81.0, "higher", 0.03, exact=True) == "improved"


def test_noisy_metric_needs_more_than_the_bound():
    assert compare.verdict(0.20, 0.19, "lower", 0.25, exact=False) == "within bound"
    assert compare.verdict(0.20, 0.10, "lower", 0.25, exact=False) == "improved"
    assert compare.verdict(0.20, 0.24, "lower", 0.25, exact=False) == "within bound"
    assert compare.verdict(0.20, 0.30, "lower", 0.25, exact=False) == "regressed"
    # Worse by more than the bound, but the run's own samples spread wider.
    assert compare.verdict(0.20, 0.30, "lower", 0.25, exact=False, spread=0.4) == "unresolved"


def _doc(seed, pyops, setup, spread=0.0, host=300.0, layer_pyops=50.0):
    return {"seed": seed, "workloads": {"w": {
        "end_to_end": {"pyops_per_op": pyops, "setup_s": setup},
        "per_layer": {"core.pyops_per_op": layer_pyops, "core.self_share": 0.3,
                      "host.us_per_op_p50": host},
        "spread": {"setup_s": spread},
    }}}


BOUNDS = {"pyops_per_op": ("lower", 0.01), "setup_s": ("lower", 0.25)}


def test_compare_documents():
    rows, differences = compare.compare(
        _doc(11, 1000.0, 0.2), _doc(11, 990.0, 0.2, host=900.0, layer_pyops=40.0),
        BOUNDS, ("pyops_per_op",))
    assert {(r[1], r[4]) for r in rows} == {
        ("pyops_per_op", "improved"), ("setup_s", "within bound")}
    # host.* and self_share never count as differences; exact layer rows do.
    assert [(d[1]) for d in differences] == ["pyops_per_op", "core.pyops_per_op"]


def test_identical_documents_have_no_differences():
    rows, differences = compare.compare(
        _doc(11, 1000.0, 0.2), _doc(11, 1000.0, 0.21, host=350.0), BOUNDS,
        ("pyops_per_op",))
    assert all(r[4] == "within bound" for r in rows)
    assert differences == []


def test_other_seed_compares_by_bound_only():
    rows, differences = compare.compare(
        _doc(11, 1000.0, 0.2), _doc(23, 1005.0, 0.2), BOUNDS, ("pyops_per_op",))
    assert differences == []
    assert all(r[4] == "within bound" for r in rows)
