"""Unit tests for the Process abstraction."""

from types import SimpleNamespace as Namespace

import pytest

from repro.errors import ProcessError
from repro.kernel import Kernel
from repro.kernel.costs import FREE
from repro.kernel.process import (
    PRIORITY_MANAGER,
    PRIORITY_NORMAL,
    Process,
    ProcessState,
    as_generator,
    format_blocked,
)


class _Echo:
    """Extension syscall: resumes the caller with ``value`` (or parks it)."""

    def __init__(self, value=None, park=False):
        self.value = value
        self.park = park
        self.seen_by = None

    def handle(self, kernel, proc, cost):
        self.seen_by = (proc, proc.state)
        if self.park:
            proc.state = ProcessState.BLOCKED
            proc.waiting_for = ("parked", None)
        else:
            kernel.schedule_resume(proc, self.value, cost=cost)


def _gen(syscall=None):
    value = yield syscall or _Echo(21)
    return value * 2


class TestProcess:
    """A process's life cycle, stepped by the kernel (the only stepper)."""

    def make(self, body=None, **kwargs):
        return Process(pid=1, name="p", body=body or _gen(), **kwargs)

    def test_requires_generator_body(self):
        with pytest.raises(ProcessError):
            Process(pid=1, name="p", body=lambda: None)

    def test_initial_state(self):
        proc = self.make()
        assert proc.state == ProcessState.NEW
        assert proc.alive
        assert proc.daemon is False

    def test_step_yields_syscall(self):
        kernel = Kernel(costs=FREE)
        syscall = _Echo(park=True)
        proc = kernel.spawn(_gen, syscall)
        kernel.run(max_events=1)
        assert syscall.seen_by == (proc, ProcessState.RUNNING)
        assert proc.alive and proc.state == ProcessState.BLOCKED
        assert proc.blocked_on == "parked"  # an extension syscall's own kind

    def test_step_to_completion_captures_result(self):
        kernel = Kernel(costs=FREE)
        proc = kernel.spawn(_gen)
        kernel.run()
        assert proc.state == ProcessState.DONE
        assert proc.result == 42
        assert not proc.alive

    def test_prepare_throw_raises_inside_body(self):
        def body():
            try:
                yield _Echo(park=True)
            except ValueError:
                return "caught"

        kernel = Kernel(costs=FREE)
        proc = kernel.spawn(body)
        kernel.run(max_events=1)
        kernel.schedule_throw(proc, ValueError("boom"))
        kernel.run()
        assert proc.state == ProcessState.DONE and proc.result == "caught"

    def test_uncaught_exception_marks_failed(self):
        def body():
            yield _Echo()
            raise RuntimeError("bad")

        kernel = Kernel(costs=FREE)
        proc = kernel.spawn(body)
        with pytest.raises(RuntimeError):
            kernel.run()
        assert proc.state == ProcessState.FAILED
        assert isinstance(proc.exception, RuntimeError)

    def test_kill(self):
        kernel = Kernel(costs=FREE)
        proc = kernel.spawn(_gen, _Echo(park=True))
        kernel.run(max_events=1)
        assert kernel.kill_process(proc)
        assert proc.state == ProcessState.KILLED
        assert not proc.alive

    def test_kill_finished_is_noop(self):
        kernel = Kernel(costs=FREE)
        proc = kernel.spawn(_gen)
        kernel.run()
        proc.kill()
        assert not kernel.kill_process(proc)
        assert proc.state == ProcessState.DONE

    def test_resumption_counter(self):
        kernel = Kernel(costs=FREE)
        proc = kernel.spawn(_gen)
        kernel.run()
        assert proc.resumptions == 2 == kernel.stats.resumptions

    def test_manager_priority_is_higher_than_normal(self):
        # Numerically smaller = dispatched first.
        assert PRIORITY_MANAGER < PRIORITY_NORMAL


class TestAsGenerator:
    def test_passes_generators_through(self):
        gen = _gen()
        assert as_generator(lambda: gen) is gen

    def test_wraps_plain_functions(self):
        body = as_generator(lambda: 7)
        with pytest.raises(StopIteration) as stop:
            next(body)
        assert stop.value.value == 7

    def test_forwards_arguments(self):
        def add(a, b):
            return a + b

        body = as_generator(add, 2, b=3)
        with pytest.raises(StopIteration) as stop:
            next(body)
        assert stop.value.value == 5


class TestFormatBlocked:
    @pytest.mark.parametrize(
        "record, text",
        [
            (None, None),
            (("delay", 40), "delay(40)"),
            (("join", Namespace(name="worker")), "join(worker)"),
            (("send", Namespace(name="ch")), "send(ch)"),
            (("par", [object(), object()]), "par(2)"),
            (
                ("call", Namespace(obj=Namespace(alps_name="buf"), entry="deposit")),
                "call buf.deposit",
            ),
        ],
    )
    def test_blocked_on_renders_waiting_for(self, record, text):
        proc = Process(pid=3, name="stuck", body=_gen())
        proc.waiting_for = record
        assert proc.blocked_on == text

    def test_lists_waiters(self):
        proc = Process(pid=3, name="stuck", body=_gen())
        proc.waiting_for = ("receive", "ch")
        text = format_blocked([proc])
        assert "stuck" in text and "receive(ch)" in text

    def test_empty(self):
        assert "(none)" in format_blocked([])
