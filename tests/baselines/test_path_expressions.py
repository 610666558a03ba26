"""Tests for the path-expression parser and semaphore translation."""

import pytest

from repro.baselines.path_expressions import (
    Burst,
    Name,
    Restriction,
    Selection,
    Sequence,
    compile_path,
    parse_path,
)
from repro.errors import DeadlockError, PathExpressionError
from repro.kernel import Delay, Kernel, Par
from repro.kernel.costs import FREE


class TestParser:
    def test_single_name(self):
        ast = parse_path("path read end")
        assert isinstance(ast, Name) and ast.name == "read"

    def test_sequence(self):
        ast = parse_path("path a; b; c end")
        assert isinstance(ast, Sequence)
        assert [n.name for n in ast.items] == ["a", "b", "c"]

    def test_selection(self):
        ast = parse_path("path a, b end")
        assert isinstance(ast, Selection)

    def test_selection_binds_tighter_than_sequence(self):
        ast = parse_path("path a, b; c end")
        assert isinstance(ast, Sequence)
        assert isinstance(ast.items[0], Selection)

    def test_restriction(self):
        ast = parse_path("path 3:(a; b) end")
        assert isinstance(ast, Restriction)
        assert ast.limit == 3

    def test_burst(self):
        ast = parse_path("path 1:([read], write) end")
        assert isinstance(ast, Restriction)
        selection = ast.body
        assert isinstance(selection, Selection)
        assert isinstance(selection.items[0], Burst)

    def test_parentheses(self):
        ast = parse_path("path (a) end")
        assert isinstance(ast, Name)

    def test_path_end_optional(self):
        assert isinstance(parse_path("a; b"), Sequence)

    def test_unbalanced_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("path 2:(a end")

    def test_garbage_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("path a ! b end")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("path a end extra")

    def test_zero_restriction_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("path 0:(a) end")

    def test_duplicate_operation_rejected(self):
        with pytest.raises(PathExpressionError):
            compile_path("path a; a end")

    def test_empty_path_rejected(self):
        with pytest.raises(PathExpressionError):
            compile_path("path end")


class TestSequencing:
    def test_sequence_orders_executions(self):
        kernel = Kernel(costs=FREE)
        rt = compile_path("path first; second end")
        order = []

        def do(name, delay):
            yield Delay(delay)
            yield from rt.before(name)
            order.append(name)
            yield from rt.after(name)

        # "second" tries to run first but must wait for "first".
        kernel.spawn(do, "second", 1)
        kernel.spawn(do, "first", 10)
        kernel.run()
        assert order == ["first", "second"]

    def test_sequence_allows_pipelining(self):
        # a may run unboundedly ahead of b (only b waits for a).
        kernel = Kernel(costs=FREE)
        rt = compile_path("path a; b end")

        def many_a():
            for _ in range(5):
                yield from rt.before("a")
                yield from rt.after("a")
            return rt.counts["a"]

        assert kernel.run_process(many_a) == 5

    def test_unknown_operation_rejected(self, kernel):
        rt = compile_path("path a end")

        def main():
            yield from rt.before("zzz")

        with pytest.raises(PathExpressionError):
            kernel.run_process(main)


class TestRestriction:
    def test_mutual_exclusion(self):
        kernel = Kernel(costs=FREE)
        rt = compile_path("path 1:(op) end")
        active = {"count": 0, "peak": 0}

        def worker():
            yield from rt.before("op")
            active["count"] += 1
            active["peak"] = max(active["peak"], active["count"])
            yield Delay(5)
            active["count"] -= 1
            yield from rt.after("op")

        def main():
            yield Par(*[lambda: worker() for _ in range(5)])

        kernel.run_process(main)
        assert active["peak"] == 1

    def test_restriction_width(self):
        kernel = Kernel(costs=FREE)
        rt = compile_path("path 3:(op) end")
        active = {"count": 0, "peak": 0}

        def worker():
            yield from rt.before("op")
            active["count"] += 1
            active["peak"] = max(active["peak"], active["count"])
            yield Delay(5)
            active["count"] -= 1
            yield from rt.after("op")

        def main():
            yield Par(*[lambda: worker() for _ in range(9)])

        kernel.run_process(main)
        assert active["peak"] == 3

    def test_bounded_buffer_shape(self):
        # path N:(deposit; remove): deposits may lead removes by <= N.
        kernel = Kernel(costs=FREE)
        rt = compile_path("path 2:(deposit; remove) end")
        progress = []

        def depositor():
            for i in range(4):
                yield from rt.before("deposit")
                progress.append(f"d{i}")
                yield from rt.after("deposit")

        def remover():
            yield Delay(100)
            for i in range(4):
                yield from rt.before("remove")
                progress.append(f"r{i}")
                yield from rt.after("remove")

        kernel.spawn(depositor)
        kernel.spawn(remover)
        kernel.run(until=50)
        assert progress == ["d0", "d1"]  # third deposit blocked at N=2
        kernel.run()
        assert progress[-1] == "r3"


class TestBurst:
    def test_readers_share_writers_exclude(self):
        kernel = Kernel(costs=FREE)
        rt = compile_path("path 1:([read], write) end")
        state = {"readers": 0, "writers": 0, "peak_readers": 0, "violations": 0}

        def reader():
            yield from rt.before("read")
            state["readers"] += 1
            state["peak_readers"] = max(state["peak_readers"], state["readers"])
            if state["writers"]:
                state["violations"] += 1
            yield Delay(10)
            state["readers"] -= 1
            yield from rt.after("read")

        def writer():
            yield Delay(3)
            yield from rt.before("write")
            state["writers"] += 1
            if state["writers"] > 1 or state["readers"]:
                state["violations"] += 1
            yield Delay(10)
            state["writers"] -= 1
            yield from rt.after("write")

        def main():
            yield Par(
                *[lambda: reader() for _ in range(4)],
                *[lambda: writer() for _ in range(2)],
            )

        kernel.run_process(main)
        assert state["violations"] == 0
        assert state["peak_readers"] >= 2  # burst really does share
