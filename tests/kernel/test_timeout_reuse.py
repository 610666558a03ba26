"""Regression: a Timeout guard anchors its deadline at first poll, so
reusing one across selects would silently keep the stale deadline.  The
guard now refuses re-arming with ValueError instead."""

import pytest

from repro.channels import Channel, ReceiveGuard, Send
from repro.kernel import Delay, Kernel, Select, Timeout
from repro.kernel.costs import FREE


def test_reuse_after_fire_raises():
    kernel = Kernel(costs=FREE)
    guard = Timeout(10, value="t")

    def main():
        yield Select(guard)  # fires at t=10, consuming the guard
        yield Select(guard)  # stale deadline: must refuse, not fire at t=10

    kernel.spawn(main, name="main")
    with pytest.raises(ValueError, match="re-armed"):
        kernel.run()


def test_reuse_after_losing_to_another_guard_raises():
    # Even when the *other* guard won, the anchored deadline is spent.
    kernel = Kernel(costs=FREE)
    ch = Channel()
    guard = Timeout(100, value="t")

    def sender():
        yield Delay(5)
        yield Send(ch, "msg")

    def main():
        result = yield Select(ReceiveGuard(ch), guard)
        assert result.value == "msg"
        yield Select(guard)

    kernel.spawn(sender, name="sender")
    kernel.spawn(main, name="main")
    with pytest.raises(ValueError, match="re-armed"):
        kernel.run()


def test_reuse_after_losing_without_blocking_keeps_the_first_anchor():
    # Pinned as it is, not endorsed: the select never blocked, so nothing
    # consumed the guard, and its t=0 anchor makes it fire on the spot.
    kernel = Kernel(costs=FREE)
    ch = Channel()
    guard = Timeout(10, value="t")

    def main():
        yield Send(ch, "msg")
        result = yield Select(ReceiveGuard(ch), guard)  # t=0: the receive wins
        assert result.value == "msg" and not guard._consumed
        yield Delay(21)
        result = yield Select(ReceiveGuard(ch), guard)
        return result.value, kernel.clock.now

    assert kernel.run_process(main) == ("t", 21)


def test_fresh_timeout_per_select_is_fine():
    kernel = Kernel(costs=FREE)
    fired = []

    def main():
        for _ in range(3):
            yield Select(Timeout(10, value="t"))
            fired.append(kernel.clock.now)

    kernel.spawn(main, name="main")
    kernel.run()
    assert fired == [10, 20, 30]
