"""Percentiles, fingerprints, and BENCHMARK.json staying in step with the code."""

import json
import os

import pytest

import metrics
import workloads
from conftest import ROOT


def test_tail_falls_back_to_p95_under_ten_tail_samples():
    # 1000 samples: exactly 10 beyond p99 -> p99.
    value, p = metrics.tail_percentile(list(range(1000)))
    assert p == 99
    assert 988 < value < 991
    # 999 samples: 9 beyond p99 -> p95, and it says so.
    value, p = metrics.tail_percentile(list(range(999)))
    assert p == 95
    assert 947 < value < 951


def test_percentile_interpolates_inside_ties():
    # Half the samples at 13, half at 14: nearest rank would say 13.
    assert metrics.percentile([13] * 50 + [14] * 50, 50) == 13.5
    # 60% at 13: the median sits 5/6 of the way through the 13s.
    assert metrics.percentile([13] * 60 + [14] * 40, 50) == pytest.approx(12.5 + 50 / 60)
    assert metrics.percentile([7], 50) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_fingerprint_sees_each_component():
    ops = [("ok", 3), ("ok", 5), ("shed", None)]
    base = metrics.fingerprint(10, 100, ops)
    assert base == metrics.fingerprint(10, 100, list(reversed(ops)))  # order-free
    assert base != metrics.fingerprint(11, 100, ops)
    assert base != metrics.fingerprint(10, 101, ops)
    assert base != metrics.fingerprint(10, 100, [("ok", 3), ("ok", 6), ("shed", None)])
    assert base != metrics.fingerprint(10, 100, [("ok", 3), ("ok", 5), ("timeout", None)])


def test_virtual_pools_trials_and_counts_failures():
    trials = [
        {"n": 4, "start": 0, "end": 100, "ops": [("ok", 10)] * 3 + [("shed", None)]},
        {"n": 4, "start": 50, "end": 150, "ops": [("ok", 20)] * 2 + [("timeout", None)] * 2},
    ]
    virt = metrics.virtual(trials)
    assert virt["attempted"] == 8
    assert virt["failed"] == 2  # shed is refusal, not failure
    assert virt["served_frac"] == 5 / 8
    assert virt["virt_goodput_per_ktick"] == 5 * 1000 / 200


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perflab"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert len(spec["workloads"]) == 7
    assert len(spec["per_layer"]) == 77
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
