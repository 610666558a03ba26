"""Asynchronous typed point-to-point channels (§2.1.2).

ALPS channels buffer messages: ``send`` never blocks (unless the channel
was created with a finite ``capacity``, a library extension) and
``receive`` blocks until a message is available.  A channel is declared
with a type tuple — ``chan(T1, ..., Tn)`` — and every message is an
n-tuple checked against it.  Channels are first-class: they can be stored
in arrays, passed as procedure parameters and sent in messages, exactly as
the paper requires.

Receive can appear in guards of ``select``/``loop``; the acceptance
condition (``receive C(x) when B(x)``) is evaluated SR-style by reading
the candidate message into temporaries first.  When the head message fails
the condition, the queue is scanned for the first message that satisfies
it (the documented choice; SR behaves this way for synchronization
expressions).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..errors import ChannelError, ChannelTypeError
from ..kernel.process import ProcessState
from ..kernel.syscalls import Select, Syscall
from ..kernel.waiting import Guard, Ready, Waitable

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process


class Channel(Waitable):
    """A buffered, typed, many-writer many-reader channel.

    Parameters
    ----------
    types:
        Tuple of element types, or ``None`` for an untyped channel.  A
        type of ``None`` inside the tuple skips checking for that slot.
    capacity:
        ``None`` (the ALPS default) buffers without bound; an integer
        bounds the buffer and makes ``send`` block while full.
    name:
        For diagnostics and traces.
    """

    _counter = 0

    def __init__(
        self,
        types: Sequence[type | None] | None = None,
        capacity: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ChannelError(f"channel capacity must be >= 1, got {capacity}")
        self.types = tuple(types) if types is not None else None
        self.capacity = capacity
        Channel._counter += 1
        self.name = name or f"chan{Channel._counter}"
        self._queue: deque[tuple] = deque()
        #: Senders blocked on a full bounded channel: (process, message,
        #: the ``waiting_for`` record the process parked under).
        self._blocked_senders: deque[tuple["Process", tuple, tuple]] = deque()
        self._closed = False
        #: Lifetime counters.
        self.total_sent = 0
        self.total_received = 0

    # -- type checking ---------------------------------------------------

    @property
    def arity(self) -> int | None:
        return len(self.types) if self.types is not None else None

    def check(self, values: tuple) -> None:
        """Validate a message against the channel type."""
        if self.types is None:
            return
        if len(values) != len(self.types):
            raise ChannelTypeError(
                f"{self.name}: message arity {len(values)} != channel arity "
                f"{len(self.types)}"
            )
        for index, (value, expected) in enumerate(zip(values, self.types)):
            if expected is not None and not isinstance(value, expected):
                raise ChannelTypeError(
                    f"{self.name}: element {index} is {type(value).__name__}, "
                    f"expected {expected.__name__}"
                )

    # -- state -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._queue) >= self.capacity

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark the channel closed: pending messages drain, new sends fail."""
        self._closed = True

    def peek_all(self) -> list[tuple]:
        """Snapshot of the buffered messages (tests/diagnostics)."""
        return list(self._queue)

    # -- internal queue ops (used by syscall handlers/guards) -------------

    def _enqueue(self, values: tuple) -> None:
        self._queue.append(values)
        self.total_sent += 1

    def _take_at(self, index: int) -> tuple:
        """Remove and return the message at queue position ``index``."""
        if index == 0:
            message = self._queue.popleft()
        else:
            self._queue.rotate(-index)
            message = self._queue.popleft()
            self._queue.rotate(index)
        self.total_received += 1
        return message

    def _find(self, when: Callable[..., bool] | None) -> tuple[int, tuple] | None:
        """First queued message satisfying ``when`` (or the head if None).

        The queue is not empty (``ReceiveGuard.poll`` looks first).
        """
        if when is None:
            return 0, self._queue[0]
        for index, message in enumerate(self._queue):
            if when(*message):
                return index, message
        return None

    def _admit_blocked_sender(self, kernel: "Kernel") -> None:
        """After a receive, move one blocked sender's message into the buffer.

        A sender thrown into or killed while blocked is skipped and its
        message dropped: a ``Send`` that raised did not send.
        """
        while self._blocked_senders and not self.full:
            sender, message, record = self._blocked_senders.popleft()
            if sender.waiting_for is not record:
                continue
            self._enqueue(message)
            kernel.stats.sends += 1
            kernel.schedule_resume(sender, None, cost=kernel.costs.send)
            # The admitted message may satisfy another blocked receiver;
            # notify from a fresh event to avoid reentrant commits.
            kernel.post(kernel.clock.now, lambda: kernel.notify(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} len={len(self._queue)}>"


def unwrap_message(message: tuple) -> Any:
    """Deliver 1-tuples as bare values for ergonomic ``receive``."""
    return message[0] if len(message) == 1 else message


class Send(Syscall):
    """Syscall: asynchronous send (§2.1.2 ``send C(v1, ..., vn)``)."""

    __slots__ = ("channel", "values")

    def __init__(self, channel: Channel, *values: Any) -> None:
        self.channel = channel
        self.values = values

    def handle(self, kernel: "Kernel", proc: "Process", cost: int) -> None:
        channel = self.channel
        if channel.closed:
            kernel.schedule_throw(
                proc, ChannelError(f"send on closed channel {channel.name}")
            )
            return
        try:
            channel.check(self.values)
        except ChannelTypeError as exc:
            kernel.schedule_throw(proc, exc)
            return
        if channel.full:
            # Bounded-channel extension: block the sender until space frees.
            kernel.metrics.counter(
                "channels.blocked_sends", "Sends that blocked on a full channel"
            ).inc()
            proc.state = ProcessState.BLOCKED
            proc.waiting_for = record = ("send", channel)
            channel._blocked_senders.append((proc, self.values, record))
            return
        channel._enqueue(self.values)
        kernel.stats.sends += 1
        kernel.schedule_resume(proc, None, cost=cost + kernel.costs.send)
        kernel.notify(channel)


class ReceiveGuard(Guard):
    """Guard form of ``receive C(...) [when B] [pri E]`` (§2.4)."""

    def __init__(
        self,
        channel: Channel,
        when: Callable[..., bool] | None = None,
        pri: Any = None,
    ) -> None:
        self.channel = channel
        self.when = when
        self.pri = pri

    @property  # not stored: a receive guard is usually built per select
    def poll_source(self) -> deque:
        return self.channel._queue

    def poll(self, kernel: "Kernel") -> Ready | None:
        if not self.channel._queue:  # the common case, and O(1)
            return None
        found = self.channel._find(self.when)
        if found is None:
            return None
        index, message = found
        return Ready(unwrap_message(message), token=index)

    def commit(self, kernel: "Kernel", proc: "Process", ready: Ready) -> Any:
        self.channel._take_at(ready.token)
        kernel.stats.receives += 1
        self.channel._admit_blocked_sender(kernel)
        return ready.value

    def waitables(self) -> Iterable[Waitable]:
        return (self.channel,)

    def feasible(self) -> bool:
        # A closed, drained channel can never produce another message.
        return not (self.channel._closed and not self.channel._queue)

    def describe(self) -> str:
        cond = "" if self.when is None else " when ..."
        return f"receive({self.channel.name}{cond})"


def Receive(
    channel: Channel,
    when: Callable[..., bool] | None = None,
) -> Select:
    """Syscall sugar: blocking receive, returning the message directly.

    ``value = yield Receive(ch)`` — equivalent to a one-guard select with
    the result unwrapped.
    """
    select = Select(ReceiveGuard(channel, when=when))
    select.unwrap = True
    return select


def TryReceive(channel: Channel, default: Any = None) -> Select:
    """Non-blocking receive: returns ``default`` if no message is ready."""
    select = Select(ReceiveGuard(channel), else_=True, else_value=default)
    select.unwrap = True
    return select
