"""Unit tests for the virtual clock."""

import pytest

from repro.errors import KernelError
from repro.kernel import FREE, Charge, Delay, Kernel
from repro.kernel.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_custom_start(self):
        assert VirtualClock(start=42).now == 42

    def test_negative_start_rejected(self):
        with pytest.raises(KernelError):
            VirtualClock(start=-1)

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(5) == 5
        assert clock.advance(3) == 8
        assert clock.now == 8

    def test_advance_zero_is_noop(self):
        clock = VirtualClock(start=7)
        clock.advance(0)
        assert clock.now == 7

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(KernelError):
            clock.advance(-1)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(10)
        assert clock.now == 10

    def test_advance_to_same_time_allowed(self):
        clock = VirtualClock(start=10)
        clock.advance_to(10)
        assert clock.now == 10

    def test_advance_to_past_rejected(self):
        clock = VirtualClock(start=10)
        with pytest.raises(KernelError):
            clock.advance_to(9)


class TestRunLoopClock:
    """The run loop moves the clock itself when nobody observes it; what
    ``advance_to`` promises must hold either way."""

    def test_observer_subscribed_mid_run_sees_every_later_advance(self):
        kernel = Kernel(costs=FREE)
        seen = []

        def subscriber():
            yield Delay(2)
            kernel.clock.subscribe(seen.append)
            yield Delay(3)
            yield Delay(0)  # no motion, no callback
            yield Charge(4)

        kernel.spawn(subscriber)
        kernel.post(6, lambda: None)
        kernel.run()
        assert seen == [5, 6, 9]

    def test_float_ticks_leave_the_clock_an_int(self):
        kernel = Kernel(costs=FREE)
        times = []

        def sleeper():
            yield Delay(2.5)
            times.append(kernel.clock.now)
            yield Delay(2.5)
            times.append(kernel.clock.now)
            yield Charge(1.5)
            times.append(kernel.clock.now)

        kernel.spawn(sleeper)
        kernel.post(7.0, lambda: times.append(kernel.clock.now))
        kernel.run()
        # ``advance_to(2.5)`` leaves 2; the next record is due at 2 + 2.5.
        assert times == [2, 4, 5, 7]
        assert all(type(t) is int for t in times)
        assert type(kernel.clock.now) is int

    def test_a_float_record_within_the_tick_is_no_advance(self):
        kernel = Kernel(costs=FREE)
        seen = []
        kernel.clock.subscribe(seen.append)

        def sleeper():
            yield Delay(2.5)
            yield Delay(0.25)  # due at 2.25: the clock stays at 2

        kernel.spawn(sleeper)
        kernel.run()
        assert seen == [2]
        assert kernel.clock.now == 2

    def test_run_until_stops_on_until(self):
        kernel = Kernel(costs=FREE)
        ticks = []

        def ticker():
            while True:
                yield Delay(10)
                ticks.append(kernel.clock.now)

        kernel.spawn(ticker, daemon=True)
        kernel.run(until=25)
        assert kernel.clock.now == 25 and ticks == [10, 20]
        kernel.run(until=25)  # nothing due by then: the clock stays
        assert kernel.clock.now == 25 and ticks == [10, 20]
        kernel.run(until=40)
        assert kernel.clock.now == 40 and ticks == [10, 20, 30, 40]

    def test_a_record_left_behind_by_an_outside_move_raises(self):
        kernel = Kernel(costs=FREE)
        kernel.post(5, lambda: None)
        kernel.clock.advance_to(9)
        with pytest.raises(KernelError, match="backwards from 9 to 5"):
            kernel.run()
        assert kernel.clock.now == 9
