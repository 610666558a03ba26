"""Unit tests of the static ALPS protocol linter."""

import textwrap

import pytest

from repro.analysis import CATALOGUE, Severity, lint_source
from repro.core import AlpsObject, entry, manager_process
from repro.errors import ProtocolError


def lint(src: str):
    return lint_source(PREAMBLE + textwrap.dedent(src))


def codes(findings) -> set:
    return {f.code for f in findings}


PREAMBLE = """
from repro.core import (
    AcceptGuard, AlpsObject, AwaitGuard, Finish, Select, Start,
    entry, icpt, manager_process,
)
"""


class TestBasics:
    def test_empty_module_is_clean(self):
        assert lint("x = 1") == []

    def test_class_without_manager_is_ignored(self):
        findings = lint(
            """
            class Plain(AlpsObject):
                @entry
                def op(self):
                    pass
            """
        )
        assert findings == []

    def test_never_accepted_entry(self):
        findings = lint(
            """
            class Bad(AlpsObject):
                @entry
                def a(self):
                    pass

                @entry
                def b(self):
                    pass

                @manager_process(intercepts=["a", "b"])
                def mgr(self):
                    while True:
                        call = yield self.accept("a")
                        yield from self.execute(call)
            """
        )
        assert codes(findings) == {"ALP101"}
        (finding,) = findings
        assert finding.entry == "b"
        assert finding.obj == "Bad"
        assert finding.severity is Severity.ERROR

    def test_findings_carry_position(self):
        findings = lint(
            """
            class Bad(AlpsObject):
                @entry
                def a(self):
                    pass

                @manager_process(intercepts=["a", "ghost"])
                def mgr(self):
                    while True:
                        call = yield self.accept("a")
                        yield from self.execute(call)
            """
        )
        assert codes(findings) == {"ALP112"}
        assert findings[0].line > 0


class TestDataflow:
    def test_select_result_value_tracks_candidates(self):
        # Start/Finish through `result.value` resolve to the select's
        # guard entries, so correct multi-entry managers stay clean.
        findings = lint(
            """
            class TwoPhase(AlpsObject):
                @entry
                def a(self):
                    pass

                @entry
                def b(self):
                    pass

                @manager_process(intercepts=["a", "b"])
                def mgr(self):
                    while True:
                        result = yield Select(
                            AcceptGuard(self, "a"),
                            AcceptGuard(self, "b"),
                            AwaitGuard(self, "a"),
                            AwaitGuard(self, "b"),
                        )
                        if isinstance(result.guard, AcceptGuard):
                            yield Start(result.value)
                        else:
                            yield Finish(result.value)
            """
        )
        assert findings == []

    def test_unknown_variable_falls_back_to_all_entries(self):
        # `Finish(queue.pop())` cannot be attributed, so it counts as
        # finish coverage for every intercepted entry: no ALP103 noise.
        findings = lint(
            """
            class Queued(AlpsObject):
                @entry
                def op(self):
                    pass

                @manager_process(intercepts=["op"])
                def mgr(self):
                    held = []
                    while True:
                        call = yield self.accept("op")
                        yield Start(call)
                        done = yield self.await_("op")
                        held.append(done)
                        yield Finish(held.pop())
            """
        )
        assert findings == []

    def test_nested_class_inside_function_is_linted(self):
        findings = lint(
            """
            def build():
                class Inner(AlpsObject):
                    @entry
                    def op(self):
                        pass

                    @manager_process(intercepts=["op"])
                    def mgr(self):
                        while True:
                            yield self.accept("op")
                return Inner
            """
        )
        # accept exists; no start/finish needed (call never completes is
        # not flagged — accept-only managers combine elsewhere); but the
        # accepted call is never executed/finished: that's not a check,
        # so the body is clean.
        assert findings == []

    def test_same_module_inheritance(self):
        findings = lint(
            """
            class Base(AlpsObject):
                @entry
                def op(self):
                    pass

            class Child(Base):
                @manager_process(intercepts=["op", "extra"])
                def mgr(self):
                    while True:
                        call = yield self.accept("op")
                        yield from self.execute(call)
            """
        )
        # `op` resolves through the base class; only `extra` is unknown.
        assert codes(findings) == {"ALP112"}
        assert findings[0].entry == "extra"


class TestArities:
    def test_combining_finish_accepts_returns_arity(self):
        findings = lint(
            """
            class Combiner(AlpsObject):
                @entry(returns=2)
                def op(self):
                    return (1, 2)

                @manager_process(intercepts=["op"])
                def mgr(self):
                    while True:
                        call = yield self.accept("op")
                        yield Finish(call, 1, 2)
            """
        )
        assert findings == []

    def test_awaited_finish_needs_icpt_results(self):
        findings = lint(
            """
            class Wrong(AlpsObject):
                @entry(returns=2)
                def op(self):
                    return (1, 2)

                @manager_process(intercepts={"op": icpt(results=1)})
                def mgr(self):
                    while True:
                        call = yield self.accept("op")
                        yield Start(call)
                        done = yield self.await_("op", call=call)
                        yield Finish(done, "a", "b", "c")
            """
        )
        assert codes(findings) == {"ALP107"}

    def test_starred_args_silence_arity_checks(self):
        findings = lint(
            """
            class Dynamic(AlpsObject):
                @entry(returns=1)
                def op(self):
                    return 1

                @manager_process(intercepts=["op"])
                def mgr(self):
                    while True:
                        call = yield self.accept("op")
                        results = (1,)
                        yield Finish(call, *results)
            """
        )
        assert findings == []


class TestStdlibAndExamplesClean:
    @pytest.mark.parametrize("tree", ["src/repro/stdlib", "examples", "src/repro"])
    def test_tree_is_clean(self, tree):
        import os

        from repro.analysis import lint_paths

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        findings = lint_paths([os.path.join(root, tree)])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestRuntimeCodeAlignment:
    """Runtime ProtocolError codes match the linter's finding codes."""

    def test_finish_without_await_raises_alp104(self, kernel):
        from repro.core import Finish, Start

        class Impatient(AlpsObject):
            @entry
            def op(self):
                pass

            @manager_process(intercepts=["op"])
            def mgr(self):
                call = yield self.accept("op")
                yield Start(call)
                yield Finish(call)

        obj = Impatient(kernel)
        kernel.spawn(lambda: (yield obj.op()))
        with pytest.raises(ProtocolError) as excinfo:
            kernel.run()
        assert excinfo.value.code == "ALP104"
        assert "[ALP104]" in str(excinfo.value)
        assert "ALP104" in CATALOGUE

    def test_start_hidden_arity_raises_alp108(self, kernel):
        from repro.core import Start

        class WrongHidden(AlpsObject):
            @entry(hidden_params=1)
            def op(self, device):
                pass

            @manager_process(intercepts=["op"])
            def mgr(self):
                call = yield self.accept("op")
                yield Start(call)  # missing the hidden device argument

        obj = WrongHidden(kernel)
        kernel.spawn(lambda: (yield obj.op()))
        with pytest.raises(ProtocolError) as excinfo:
            kernel.run()
        assert excinfo.value.code == "ALP108"

    def test_finish_result_arity_raises_alp107(self, kernel):
        from repro.core import Finish

        class OverGenerous(AlpsObject):
            @entry(returns=1)
            def op(self):
                return 1

            @manager_process(intercepts=["op"])
            def mgr(self):
                call = yield self.accept("op")
                yield Finish(call, 1, 2, 3)

        obj = OverGenerous(kernel)
        kernel.spawn(lambda: (yield obj.op()))
        with pytest.raises(ProtocolError) as excinfo:
            kernel.run()
        assert excinfo.value.code == "ALP107"

    def test_double_start_raises_alp201(self, kernel):
        from repro.core import Start

        class DoubleStart(AlpsObject):
            @entry
            def op(self):
                pass

            @manager_process(intercepts=["op"])
            def mgr(self):
                call = yield self.accept("op")
                yield Start(call)
                yield Start(call)

        obj = DoubleStart(kernel)
        kernel.spawn(lambda: (yield obj.op()))
        with pytest.raises(ProtocolError) as excinfo:
            kernel.run()
        assert excinfo.value.code == "ALP201"


class TestUnboundedRetry:
    """ALP114: retry() with max_attempts=None and no budget."""

    RETRY_PREAMBLE = "from repro.faults import FixedBackoff, retry\n"

    def lint_retry(self, src):
        return lint_source(self.RETRY_PREAMBLE + textwrap.dedent(src))

    def test_unbounded_retry_without_budget_flagged(self):
        findings = self.lint_retry(
            """
            def run(build):
                yield from retry(build, FixedBackoff(delay=5, max_attempts=None))
            """
        )
        assert codes(findings) == {"ALP114"}
        (finding,) = findings
        assert finding.severity is Severity.WARNING
        assert "budget" in finding.suggestion

    def test_budget_none_still_flagged(self):
        findings = self.lint_retry(
            """
            def run(build):
                yield from retry(
                    build, FixedBackoff(delay=5, max_attempts=None), budget=None
                )
            """
        )
        assert codes(findings) == {"ALP114"}

    def test_policy_keyword_form_flagged(self):
        findings = self.lint_retry(
            """
            def run(build):
                yield from retry(
                    build, policy=FixedBackoff(delay=5, max_attempts=None)
                )
            """
        )
        assert codes(findings) == {"ALP114"}

    def test_budgeted_retry_clean(self):
        findings = self.lint_retry(
            """
            def run(build, budget):
                yield from retry(
                    build,
                    FixedBackoff(delay=5, max_attempts=None),
                    budget=budget,
                )
            """
        )
        assert findings == []

    def test_bounded_policy_clean(self):
        findings = self.lint_retry(
            """
            def run(build):
                yield from retry(build, FixedBackoff(delay=5, max_attempts=3))
            """
        )
        assert findings == []

    def test_variable_held_policy_flagged(self):
        # Scope-aware: the unbounded policy is bound at module level and
        # the retry site in the nested scope sees the binding.
        findings = self.lint_retry(
            """
            POLICY = FixedBackoff(delay=5, max_attempts=None)

            def run(build):
                yield from retry(build, POLICY)
            """
        )
        assert codes(findings) == {"ALP114"}
        assert "'POLICY'" in findings[0].message

    def test_rebound_policy_clean(self):
        # Reassignment to a bounded constructor clears the binding.
        findings = self.lint_retry(
            """
            def run(build):
                policy = FixedBackoff(delay=5, max_attempts=None)
                policy = FixedBackoff(delay=5, max_attempts=3)
                yield from retry(build, policy)
            """
        )
        assert findings == []

    def test_method_site_variable_policy_flagged(self):
        findings = self.lint_retry(
            """
            class Reader:
                def read(self, build):
                    policy = ExponentialBackoff(base=2, max_attempts=None)
                    yield from retry(build, policy)
            """
        )
        assert codes(findings) == {"ALP114"}

    def test_nested_shadowing_is_local(self):
        # The inner bounded rebinding must not leak to the outer scope's
        # later retry site, and the outer binding still reaches it.
        findings = self.lint_retry(
            """
            def outer(build):
                policy = FixedBackoff(delay=5, max_attempts=None)

                def inner():
                    policy = FixedBackoff(delay=5, max_attempts=2)
                    yield from retry(build, policy)

                yield from retry(build, policy)
            """
        )
        assert codes(findings) == {"ALP114"}
        assert len(findings) == 1

    def test_unknown_binding_stays_silent(self):
        # A policy that arrives as a parameter or from a helper may be
        # bounded elsewhere; the linter does not guess.
        findings = self.lint_retry(
            """
            def run(build, policy):
                yield from retry(build, policy)

            def run2(build):
                policy = make_policy()
                yield from retry(build, policy)
            """
        )
        assert findings == []
