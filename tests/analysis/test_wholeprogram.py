"""Whole-program analyzer: call-graph resolution, effects, interference.

The resolution edge cases here pin the unknown-edge contract: an entry
call the dataflow cannot resolve must surface as an explicit
unknown-target edge — *never* as silence that would fake ALP120
cleanliness.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.wholeprogram import (
    analyze_paths,
    build_call_graph,
    build_program,
    callgraph_to_dot,
    check_interference,
    entry_effects,
    predict_cycles,
)
from repro.analysis.model import load_source


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"


def graph_of(source: str, path: str = "<source>"):
    program = build_program([load_source(textwrap.dedent(source), path)])
    return build_call_graph(program)


def codes(findings) -> set[str]:
    return {f.code for f in findings}


MUTUAL = """
    class A:
        @entry
        def p(self):
            yield self.peer.q()

        @manager_process(intercepts=["p"])
        def mgr(self):
            while True:
                call = yield self.accept("p")
                yield from self.execute(call)

    class B:
        @entry
        def q(self):
            yield self.peer.p()

        @manager_process(intercepts=["q"])
        def mgr(self):
            while True:
                call = yield self.accept("q")
                yield from self.execute(call)

    def build(kernel):
        a = A(kernel)
        b = B(kernel)
        a.peer = b
        b.peer = a
"""


class TestCycles:
    def test_mutual_execute_cycle_predicted(self):
        findings = lint_source(textwrap.dedent(MUTUAL))
        assert codes(findings) == {"ALP120"}
        assert "predicted wait-for cycle" in findings[0].message
        # Full cycle in DeadlockError notation, naming both classes.
        assert "--[" in findings[0].message
        assert "A" in findings[0].message and "B" in findings[0].message

    def test_one_way_chain_clean(self):
        findings = lint_source(
            textwrap.dedent(
                """
                class Up:
                    @entry
                    def f(self):
                        yield self.down.g()

                class Down:
                    @entry
                    def g(self):
                        pass

                def build(kernel):
                    up = Up(kernel, down=Down(kernel))
                """
            )
        )
        assert findings == []

    def test_receptive_select_manager_not_blocking(self):
        # Managers sitting in a Select that still holds accept guards
        # stay receptive (§2.3 asynchrony) — a call into them creates no
        # manager-blocking edge, so the X<->Y body chain below, which is
        # acyclic at the body level, must not be flagged.
        findings = lint_source(
            textwrap.dedent(
                """
                class X:
                    @entry
                    def p(self):
                        yield self.y.q()

                    @manager_process(intercepts=["p"])
                    def mgr(self):
                        while True:
                            result = yield Select(
                                AcceptGuard(self, "p"), AwaitGuard(self, "p")
                            )
                            if result.index == 0:
                                yield Start(result.value)
                            else:
                                yield Finish(result.value)

                class Y:
                    @entry
                    def q(self):
                        yield self.x.r()

                    @manager_process(intercepts=["q"])
                    def mgr(self):
                        while True:
                            result = yield Select(
                                AcceptGuard(self, "q"), AwaitGuard(self, "q")
                            )
                            if result.index == 0:
                                yield Start(result.value)
                            else:
                                yield Finish(result.value)

                def build(kernel):
                    x = X(kernel)
                    y = Y(kernel)
                    x.y = y
                    y.x = x
                """
            )
        )
        assert findings == []

    def test_non_receptive_await_blocks(self):
        # A bare await_ (one-guard select, no accepts) makes the manager
        # non-receptive: manager -> body edge, closing the cycle through
        # the body's outbound call.
        findings = lint_source(
            textwrap.dedent(
                """
                class Gate:
                    @entry
                    def enter(self):
                        yield self.lock.acquire()

                    @manager_process(intercepts=["enter"])
                    def mgr(self):
                        while True:
                            call = yield self.accept("enter")
                            yield Start(call)
                            done = yield self.await_("enter", call=call)
                            yield Finish(done)

                class Lock:
                    @entry
                    def acquire(self):
                        yield self.gate.enter()

                    @manager_process(intercepts=["acquire"])
                    def mgr(self):
                        while True:
                            call = yield self.accept("acquire")
                            yield from self.execute(call)

                def build(kernel):
                    gate = Gate(kernel)
                    lock = Lock(kernel)
                    gate.lock = lock
                    lock.gate = gate
                """
            )
        )
        assert "ALP120" in codes(findings)


class TestResolution:
    def test_aliased_local_resolves(self):
        # x = self.backend; x.op() must resolve through the alias.
        graph = graph_of(
            """
            class Client:
                @entry
                def go(self):
                    target = self.backend
                    yield target.op()

            class Server:
                @entry
                def op(self):
                    pass

            def build(kernel):
                c = Client(kernel, backend=Server(kernel))
            """
        )
        labels = {e.describe() for e in graph.resolved_edges()}
        assert any("Server.op" in lbl for lbl in labels)
        assert not graph.unknown_edges()

    def test_collection_element_resolves(self):
        # Calls on elements of an instance collection (a sharded pool)
        # resolve to the element class.
        graph = graph_of(
            """
            class Router:
                @entry
                def route(self, i):
                    yield self.shards[i].put()

            class Shard:
                @entry
                def put(self):
                    pass

            def build(kernel):
                r = Router(kernel, shards=[Shard(kernel) for _ in range(4)])
            """
        )
        assert any(
            e.dst is not None and e.dst.cls == "Shard"
            for e in graph.resolved_edges()
        )
        assert not graph.unknown_edges()

    def test_unresolvable_target_yields_unknown_edge(self):
        # A dict-subscript receiver cannot be resolved: the analyzer must
        # record an explicit unknown edge, not stay silent.
        graph = graph_of(
            """
            class Hub:
                @entry
                def fanout(self):
                    yield self.table["x"].q()
            """
        )
        unknown = graph.unknown_edges()
        assert len(unknown) == 1
        assert "unresolved target" in unknown[0].label
        assert unknown[0].src.label == "Hub.fanout"

    def test_unknown_edges_never_fake_cycles(self):
        # Unknown edges are visible but cannot complete a cycle (no
        # false ALP120 from dynamic dispatch)...
        graph = graph_of(
            """
            class Hub:
                @entry
                def fanout(self):
                    yield self.table["x"].q()
            """
        )
        assert predict_cycles(graph) == []
        # ...and they are rendered in the DOT export so the uncertainty
        # is never invisible.
        dot = callgraph_to_dot(graph)
        assert '"?"' in dot and "dashed" in dot

    def test_ambiguous_class_name_resolves_to_unknown(self):
        # Two classes with the same name in different modules: resolving
        # through the name would be a guess, so the call goes unknown.
        modules = [
            load_source(
                textwrap.dedent(
                    """
                    class Dup:
                        @entry
                        def op(self):
                            pass
                    """
                ),
                "m1.py",
            ),
            load_source(
                textwrap.dedent(
                    """
                    class Dup:
                        @entry
                        def op(self):
                            yield None

                    class User:
                        @entry
                        def go(self):
                            yield self.dup.op()

                    def build(kernel):
                        u = User(kernel, dup=Dup(kernel))
                    """
                ),
                "m2.py",
            ),
        ]
        program = build_program(modules)
        assert "Dup" in program.ambiguous
        graph = build_call_graph(program)
        assert graph.unknown_edges()

    def test_constructor_kwarg_wires_attribute(self):
        graph = graph_of(
            """
            class Holder:
                @entry
                def go(self):
                    yield self.dep.op()

            class Dep:
                @entry
                def op(self):
                    pass

            def build(kernel):
                h = Holder(kernel, dep=Dep(kernel))
            """
        )
        assert any(
            e.dst is not None and e.dst.cls == "Dep"
            for e in graph.resolved_edges()
        )


class TestEffects:
    def obj_of(self, source: str):
        return load_source(textwrap.dedent(source)).objects[0]

    def test_reads_and_writes_separated(self):
        obj = self.obj_of(
            """
            class C:
                @entry
                def e(self):
                    self.total += self.step
                    return self.limit
            """
        )
        fx = entry_effects(obj, "e")
        assert "total" in fx.writes
        assert {"step", "limit"} <= fx.reads
        assert "limit" not in fx.writes

    def test_mutating_method_call_is_write(self):
        obj = self.obj_of(
            """
            class C:
                @entry
                def e(self):
                    self.buf.append(1)
                    return self.index.get("k")
            """
        )
        fx = entry_effects(obj, "e")
        assert "buf" in fx.writes
        assert "index" in fx.reads and "index" not in fx.writes

    def test_helper_inlining_with_recursion(self):
        obj = self.obj_of(
            """
            class C:
                @entry
                def e(self):
                    self.helper()

                def helper(self):
                    self.depth += 1
                    self.helper()
            """
        )
        fx = entry_effects(obj, "e")
        assert "depth" in fx.writes

    def test_subscript_store_is_container_write(self):
        obj = self.obj_of(
            """
            class C:
                @entry
                def e(self, k, v):
                    self.table[k] = v
            """
        )
        fx = entry_effects(obj, "e")
        assert "table" in fx.writes


class TestInterference:
    def check(self, source: str):
        return check_interference(load_source(textwrap.dedent(source)).objects[0])

    def test_overlapping_writes_flagged(self):
        findings = self.check(
            """
            class C:
                @entry(compatible="g")
                def a(self):
                    self.x = 1

                @entry(compatible="g")
                def b(self):
                    self.x = 2
            """
        )
        assert codes(findings) == {"ALP121"}
        assert "self.x" in findings[0].message

    def test_read_write_overlap_flagged(self):
        findings = self.check(
            """
            class C:
                @entry(compatible="g")
                def a(self):
                    self.x = 1

                @entry(returns=1, compatible="g")
                def b(self):
                    return self.x
            """
        )
        assert codes(findings) == {"ALP121"}

    def test_disjoint_effects_clean(self):
        findings = self.check(
            """
            class C:
                @entry(compatible="g")
                def a(self):
                    self.x = 1

                @entry(compatible="g")
                def b(self):
                    self.y = 2
            """
        )
        assert findings == []

    def test_read_read_overlap_clean(self):
        findings = self.check(
            """
            class C:
                @entry(returns=1, compatible="g")
                def a(self):
                    return self.x

                @entry(returns=1, compatible="g")
                def b(self):
                    return self.x
            """
        )
        assert findings == []

    def test_different_groups_not_compared(self):
        findings = self.check(
            """
            class C:
                @entry(compatible="g1")
                def a(self):
                    self.x = 1

                @entry(compatible="g2")
                def b(self):
                    self.x = 2
            """
        )
        assert findings == []

    def test_unresolvable_annotation_skipped(self):
        # compatible=GROUPS is syntactically opaque: never-guess policy.
        findings = self.check(
            """
            class C:
                @entry(compatible=GROUPS)
                def a(self):
                    self.x = 1

                @entry(compatible="g")
                def b(self):
                    self.x = 2
            """
        )
        assert findings == []


# One table: primitive × spelling.  A row is a manager with a hole where
# one primitive goes, the per-class verdict that only comes out right if
# the hole is read as that primitive, and the edges the manager must get
# for parking there; a column is one way of writing the primitive.  A
# primitive has no ``self.`` column when the runtime has no such sugar.
SPELLINGS = {
    "accept": (
        """
            call = yield {hole}
            yield from self.execute(call)
        """,
        set(),  # unread: ALP101
        {"executes Obj.op inline"},
        ['self.accept("op")', 'accept(self, "op")', 'core.accept(self, "op")'],
    ),
    "await": (
        """
            call = yield self.accept("op")
            yield Start(call)
            done = yield {hole}
            yield Finish(done)
        """,
        set(),  # unread: ALP104
        {"awaits Obj.op (non-receptive)"},
        [
            'self.await_("op", call=call)',
            'await_call(self, "op", call=call)',
            'core.await_call(self, "op", call=call)',
        ],
    ),
    "start": (
        """
            call = yield self.accept("op")
            yield {hole}
            done = yield self.await_("op", call=call)
            yield Finish(done)
        """,
        set(),  # unread: ALP102
        {"awaits Obj.op (non-receptive)"},
        [None, "Start(call)", "core.Start(call)"],
    ),
    "finish": (
        """
            call = yield self.accept("op")
            yield {hole}
        """,
        {"ALP107"},  # returns=1, three results supplied; unread: clean
        set(),
        [None, "Finish(call, 1, 2, 3)", "core.Finish(call, 1, 2, 3)"],
    ),
    "execute": (
        """
            call = yield self.accept("op")
            yield from {hole}
        """,
        {"ALP108"},  # hidden_params=1, none supplied; unread: clean
        {"executes Obj.op inline"},
        ["self.execute(call)", "execute_call(call)", "core.execute_call(call)"],
    ),
    "select-of-awaits": (
        """
            call = yield self.accept("op")
            yield Start(call)
            result = yield {hole}
            yield Finish(result.value)
        """,
        set(),  # unread: ALP104
        {"awaits Obj.op (non-receptive)"},
        [
            None,
            'Select(AwaitGuard(self, "op"))',
            'kernel.Select(core.AwaitGuard(self, "op"))',
        ],
    ),
    "select-with-accept": (
        """
            result = yield {hole}
            if result.index == 0:
                yield Start(result.value)
            else:
                yield Finish(result.value)
        """,
        set(),  # unread: ALP101
        set(),  # receptive while it waits (§2.3): no edge
        [
            None,
            'Select(AcceptGuard(self, "op"), AwaitGuard(self, "op"))',
            'repro.Select(core.AcceptGuard(self, "op"), core.AwaitGuard(self, "op"))',
        ],
    ),
}

SPELLING_CELLS = [
    pytest.param(row, hole, id=f"{row}-{column}")
    for row, (_, _, _, holes) in SPELLINGS.items()
    for column, hole in zip(("self", "bare", "qualified"), holes)
    if hole is not None
]


class TestSpellings:
    @pytest.mark.parametrize("row, hole", SPELLING_CELLS)
    def test_every_spelling_is_the_same_site_to_both_consumers(self, row, hole):
        body, verdict, blocks, _ = SPELLINGS[row]
        hidden = "hidden_params=1, " if row == "execute" else ""
        source = (
            "class Obj(AlpsObject):\n"
            f"    @entry({hidden}returns=1)\n"
            "    def op(self, device=None):\n"
            "        return 0\n"
            "\n"
            '    @manager_process(intercepts=["op"])\n'
            "    def mgr(self):\n"
            "        while True:"
            + textwrap.indent(textwrap.dedent(body.format(hole=hole)), " " * 12)
        )
        assert codes(lint_source(source)) == verdict
        graph = graph_of(source)
        (manager,) = [n for n in graph.nodes if n.kind == "manager"]
        assert {e.label for e in graph.edges_from(manager)} == blocks
        assert not graph.unknown_edges()

    def test_self_helpers_are_inlined_for_both_consumers(self):
        # The one inlining rule: a plain ``self`` helper's sites are the
        # manager's, with candidates unknown (its parameters are).  Read
        # without inlining, this manager "never accepts" (ALP101) and
        # parks nowhere.
        source = textwrap.dedent(
            """
            class Obj(AlpsObject):
                @entry(hidden_params=1)
                def op(self, device):
                    pass

                @manager_process(intercepts=["op"])
                def mgr(self):
                    while True:
                        yield from self._serve()

                def _serve(self):
                    call = yield self.accept("op")
                    yield from self._run(call)

                def _run(self, call):
                    yield from self.execute(call)  # arity unjudged: call unknown
            """
        )
        assert lint_source(source) == []
        graph = graph_of(source)
        (manager,) = [n for n in graph.nodes if n.kind == "manager"]
        assert {e.label for e in graph.edges_from(manager)} == {
            "executes Obj.op inline"
        }


    @pytest.mark.parametrize(
        "name, alias",
        [("manager_process", "_mp"), ("entry", "_entry")],
        ids=["manager_process", "entry"],
    )
    def test_an_import_alias_is_the_imported_name(self, name, alias):
        # The ALP101 fixture with one decorator imported under an alias:
        # the verdict and the call graph are the plain spelling's.
        plain = (FIXTURES / "bad_alp101_never_accepted.py").read_text()
        head, body = plain.split("\n\n\n", 1)
        aliased = (
            head.replace(f" {name}", f" {name} as {alias}")
            + "\n\n\n"
            + body.replace(f"@{name}", f"@{alias}")
        )
        assert f"as {alias}" in aliased and f"@{alias}" in aliased
        assert [(f.code, f.line, f.message) for f in lint_source(aliased)] == [
            (f.code, f.line, f.message) for f in lint_source(plain)
        ]
        assert codes(lint_source(aliased)) == {"ALP101"}
        assert [repr(e) for e in graph_of(aliased).edges] == [
            repr(e) for e in graph_of(plain).edges
        ]

    def test_an_aliased_class_is_instantiated_as_that_class(self):
        aliased = MUTUAL.replace(
            "def build(kernel):",
            "from objects import A as First, B as Second\n\n    def build(kernel):",
        ).replace("A(kernel)", "First(kernel)").replace("B(kernel)", "Second(kernel)")
        assert "First(kernel)" in aliased
        assert codes(lint_source(textwrap.dedent(aliased))) == {"ALP120"}


class TestAnalyzePaths:
    def test_cross_file_cycle_found_only_when_merged(self, tmp_path):
        # The defining whole-program property: each module alone is
        # clean, the merged program has the cycle.
        (tmp_path / "a.py").write_text(
            textwrap.dedent(
                """
                class A:
                    @entry
                    def p(self):
                        yield self.peer.q()
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "b.py").write_text(
            textwrap.dedent(
                """
                class B:
                    @entry
                    def q(self):
                        yield self.peer.p()

                def build(kernel):
                    a = A(kernel)
                    b = B(kernel)
                    a.peer = b
                    b.peer = a
                """
            ),
            encoding="utf-8",
        )
        for single in ("a.py", "b.py"):
            findings = lint_source(
                (tmp_path / single).read_text(), path=single
            )
            assert findings == [], single
        _graph, findings = analyze_paths([tmp_path])
        assert "ALP120" in codes(findings)
