"""Guards built once before the manager loop and polled by every select.

The stdlib managers hoist their loop-invariant guard lists.  That is
only sound because a guard carries no per-select state except
``commit_cost``, which the kernel re-reads after every commit — and
because the one guard that *is* per-select, ``Timeout``, refuses reuse.
"""

from dataclasses import replace

import pytest

from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Finish,
    Start,
    entry,
    manager_process,
)
from repro.kernel import Kernel, Select, Timeout
from repro.kernel.costs import FREE
from repro.kernel.waiting import Guard, Ready


class Echo(AlpsObject):
    def setup(self):
        self.log: list[tuple[str, int]] = []

    @entry(returns=1, array=2)
    def op(self, x):
        return x

    @manager_process(intercepts=["op"])
    def mgr(self):
        guards = [AcceptGuard(self, "op"), AwaitGuard(self, "op")]
        while True:
            result = yield Select(*guards)
            accepted = result.guard is guards[0]
            self.log.append(("accept" if accepted else "await", self.kernel.clock.now))
            if accepted:
                yield Start(result.value)
            else:
                yield Finish(result.value)


def test_hoisted_list_commits_through_consecutive_selects():
    kernel = Kernel(costs=replace(FREE, accept=3, await_=7))
    echo = Echo(kernel, name="echo")

    def caller():
        got = []
        for i in range(3):
            got.append((yield echo.op(i)))
        return got

    assert kernel.run_process(caller) == [0, 1, 2]
    # Six selects over the same two guard objects; each commit charged
    # its own cost (3 for an accept, 7 for an await), never a stale one.
    assert echo.log == [
        ("accept", 3), ("await", 10),
        ("accept", 13), ("await", 20),
        ("accept", 23), ("await", 30),
    ]
    assert kernel.stats.commits == 6 and kernel.stats.selects == 7


def test_commit_cost_is_reread_after_every_commit():
    class Rising(Guard):
        """Always ready; each commit costs one tick more than the last."""

        commit_cost = 0

        def poll(self, kernel):
            return Ready(self.commit_cost)

        def commit(self, kernel, proc, ready):
            self.commit_cost += 1
            return ready.value

    kernel = Kernel(costs=FREE)
    guards = [Rising()]
    stamps = []

    def main():
        for _ in range(4):
            yield Select(*guards)
            stamps.append(kernel.clock.now)

    kernel.run_process(main)
    assert stamps == [1, 3, 6, 10]


def test_hoisted_timeout_still_refuses_reuse():
    kernel = Kernel(costs=FREE)
    echo = Echo(kernel, name="echo")
    guards = [AcceptGuard(echo, "op"), Timeout(5)]

    def main():
        yield Select(*guards)  # times out at t=5
        yield Select(*guards)  # the accept arm is reusable, the timer is not

    kernel.spawn(main, name="main")
    with pytest.raises(ValueError, match="re-armed"):
        kernel.run()
