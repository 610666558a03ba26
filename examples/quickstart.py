#!/usr/bin/env python
"""Quickstart: the paper's §2.4.1 bounded buffer, end to end.

Builds an ALPS object with a manager, runs a producer and a consumer
against it on the deterministic kernel, and prints what happened.

Run:  python examples/quickstart.py
"""

from repro import (
    AcceptGuard,
    AlpsObject,
    Kernel,
    Select,
    entry,
    manager_process,
)


class Buffer(AlpsObject):
    """The §2.4.1 buffer: proc Deposit(Message); proc Remove returns(Message)."""

    def setup(self, size=4):
        self.size = size
        self.buf = [None] * size
        self.inptr = 0
        self.outptr = 0

    @entry
    def deposit(self, message):
        self.buf[self.inptr] = message
        self.inptr = (self.inptr + 1) % self.size

    @entry(returns=1)
    def remove(self):
        message = self.buf[self.outptr]
        self.outptr = (self.outptr + 1) % self.size
        return message

    @manager_process(intercepts=["deposit", "remove"])
    def mgr(self):
        # The §2.4.1 manager: Count is local to the manager; calls are
        # accepted only when their synchronization condition holds, and
        # each accepted call is executed to completion (execute = start;
        # await; finish), giving monitor-style mutual exclusion.
        count = 0
        while True:
            result = yield Select(
                AcceptGuard(self, "deposit", when=lambda: count < self.size),
                AcceptGuard(self, "remove", when=lambda: count > 0),
            )
            call = result.value
            yield from self.execute(call)
            count += 1 if call.entry == "deposit" else -1


def main():
    kernel = Kernel()
    buffer = Buffer(kernel, size=3)

    print(buffer.definition().describe())
    print()

    def producer():
        for i in range(10):
            yield buffer.deposit(f"message-{i}")
            print(f"[{kernel.clock.now:>4}] producer deposited message-{i}")

    def consumer():
        for _ in range(10):
            message = yield buffer.remove()
            print(f"[{kernel.clock.now:>4}] consumer removed  {message}")

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()

    print()
    print(
        f"done at t={kernel.clock.now}: "
        f"{kernel.stats.accepts} accepts, {kernel.stats.starts} starts, "
        f"{kernel.stats.finishes} finishes, "
        f"{kernel.stats.context_switches} context switches"
    )


if __name__ == "__main__":
    main()
