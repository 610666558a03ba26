"""Layer bucketing on a synthetic two-"layer" program with a known split."""

import dis
import importlib.util
import textwrap

import pytest

from layers import CallProfile, LayerMap, OpcodeCounter, UnknownLayer

LEAF_CALLS = 7


@pytest.fixture
def program(tmp_path):
    """``core/outer.py`` calls ``kernel/leaf.py`` LEAF_CALLS times."""
    repro = tmp_path / "src" / "repro"
    (repro / "core").mkdir(parents=True)
    (repro / "kernel").mkdir()
    (repro / "kernel" / "leaf.py").write_text(textwrap.dedent("""
        def leaf(x):
            return x + 1
    """))
    (repro / "core" / "outer.py").write_text(textwrap.dedent(f"""
        def outer(leaf):
            total = 0
            for _ in range({LEAF_CALLS}):
                total = leaf(total)
            return len([total])
    """))

    def load(path):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    outer = load(repro / "core" / "outer.py").outer
    leaf = load(repro / "kernel" / "leaf.py").leaf
    bench = tmp_path / "bench"
    bench.mkdir()
    return LayerMap(str(repro), str(bench)), outer, leaf


def test_call_split(program):
    layer_map, outer, leaf = program
    with CallProfile(layer_map) as profile:
        outer(leaf)
    report = profile.report()
    assert report["calls"]["core"] == 1
    assert report["calls"]["kernel.loop"] == LEAF_CALLS
    assert report["calls"]["builtins"] == 1  # len()
    assert report["total_calls"] == sum(report["calls"].values())
    edges = {(e["caller"], e["callee"]): e["calls"] for e in report["edges"]}
    assert edges[("core", "kernel.loop")] == LEAF_CALLS
    assert edges[("core", "builtins")] == 1
    assert abs(sum(report["self_share"].values()) - 1.0) < 1e-9


def test_bytecode_split(program):
    layer_map, outer, leaf = program
    with OpcodeCounter(layer_map) as alone:
        leaf(0)
    per_leaf_call = alone.counts()["kernel.loop"]
    # Straight-line code: one opcode event per instruction (RESUME, the
    # frame-entry marker, is not traced).
    assert per_leaf_call == len(
        [i for i in dis.get_instructions(leaf) if i.opname != "RESUME"])
    with OpcodeCounter(layer_map) as counter:
        outer(leaf)
    counts = counter.counts()
    assert counts["kernel.loop"] == LEAF_CALLS * per_leaf_call
    assert counts["core"] > LEAF_CALLS  # the loop itself
    assert "builtins" not in counts  # C code executes no bytecode
    assert counts["stdlib"] == counts["obs"] == 0


def test_path_rules(tmp_path):
    repro = tmp_path / "src" / "repro"
    layer_map = LayerMap(str(repro), str(tmp_path / "perflab"))
    assert layer_map.layer_of(str(repro / "kernel" / "kernel.py")) == "kernel.loop"
    assert layer_map.layer_of(str(repro / "kernel" / "sched.py")) == "kernel.sched"
    assert layer_map.layer_of(str(repro / "kernel" / "cpu.py")) == "kernel.sched"
    assert layer_map.layer_of(str(repro / "obs" / "live" / "stream.py")) == "obs"
    assert layer_map.layer_of(str(repro / "errors.py")) == "core"
    assert layer_map.layer_of(str(tmp_path / "perflab" / "workloads.py")) == "bench"
    assert layer_map.layer_of("<string>") == "pystd"
    assert layer_map.layer_of(dis.__file__) == "pystd"


def test_unclaimed_repro_path_is_an_error(tmp_path):
    repro = tmp_path / "src" / "repro"
    layer_map = LayerMap(str(repro), str(tmp_path / "perflab"))
    with pytest.raises(UnknownLayer, match="newpkg"):
        layer_map.layer_of(str(repro / "newpkg" / "thing.py"))
    with pytest.raises(UnknownLayer):
        layer_map.layer_of(str(repro / "lang" / "parser.py"))
