"""Remote communication: cross-node message passing.

Remote *procedure calls* need no special syntax — placing an ALPS object
on a node (``node.place(obj)``) makes every call from a process on a
different node pay request/response latency automatically (the two legs
are :func:`repro.net.wire.send_request` and ``send_response``).  This
module adds the message-passing half: ``NetSend`` delivers to a channel
homed on another node after the network delay, so "a user can further
communicate with an executing remote procedure using message passing on
point-to-point channels" (§1) works across the simulated machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..channels.channel import Channel
from ..errors import ChannelError, NetworkError
from ..kernel.syscalls import Syscall
from .network import Node
from .wire import carry

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process


class NetChannel(Channel):
    """A channel homed on a node; remote sends pay network latency."""

    def __init__(self, home: Node, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.node = home
        home.objects[self.name] = self


class NetSend(Syscall):
    """``send C(v...)`` where C may be homed on a remote node.

    The sender continues immediately (asynchronous send); the message
    materializes in the channel after the network delay.  ``size`` scales
    the delay for long messages.
    """

    __slots__ = ("channel", "values", "size")

    def __init__(self, channel: Channel, *values: Any, size: int = 1) -> None:
        self.channel = channel
        self.values = values
        self.size = size

    def handle(self, kernel: "Kernel", proc: "Process", cost: int) -> None:
        channel = self.channel
        if channel.closed:
            kernel.schedule_throw(
                proc, ChannelError(f"send on closed channel {channel.name}")
            )
            return
        try:
            channel.check(self.values)
        except ChannelError as exc:
            kernel.schedule_throw(proc, exc)
            return

        def deliver() -> None:
            channel._enqueue(self.values)
            kernel.notify(channel)

        src = proc.node
        home = getattr(channel, "node", None)
        if src is None or home is None or src is home:
            deliver()
        else:
            try:
                sent = carry(kernel, src, home, deliver, "message", proc, size=self.size)
            except NetworkError as exc:
                kernel.schedule_throw(proc, exc)
                return
            # Wire transmissions, duplicates included, are not sends.
            kernel.metrics.counter(
                "rpc.messages", "Cross-node message transmissions (incl. duplicates)"
            ).inc(len(sent))
        # One logical send == one sends tick, however many copies arrive.
        kernel.stats.sends += 1
        kernel.schedule_resume(proc, None, cost=cost + kernel.costs.send)
