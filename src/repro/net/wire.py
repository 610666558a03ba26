"""The wire: the one path a message takes from one node to another.

"Calls to the entry procedures of an object are implemented as remote
procedure calls" (§1) over the links of §4, with channels beside them.
Each such message — the request of an entry call (first issue or a
``Supervisor`` re-queue), its response, a ``NetSend`` — is one *leg*,
and :func:`carry` is the only code that takes a leg across the network.
With no fault injector the substrate is perfect and a leg costs its
route's latency.  An installed injector never routes; it answers: is the
target down (``admit``, ``is_down``), what becomes of this message
(``fate``), what does losing it mean (``drop``).

Two parties have a network between them only when both are placed, on
different nodes; an unplaced process or object is everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.calls import Call
    from ..kernel.kernel import Kernel
    from .network import Node


def _after(kernel: "Kernel", delay: int, deliver: Callable[[], None], priority: int) -> None:
    if delay:
        kernel.post(kernel.clock.now + delay, deliver, priority)
    else:
        deliver()


def carry(
    kernel: "Kernel",
    src: "Node",
    dst: "Node",
    deliver: Callable[[], None],
    leg: str,
    subject: Any,
    size: int = 1,
    fate: bool = True,
    priority: int = 0,
    span: Any = None,
) -> list[int]:
    """Take one message from ``src`` to ``dst``, two distinct nodes.

    ``deliver`` runs once per copy that arrives, after that copy's delay
    (on the spot when it is zero) as a kernel event of ``priority``.
    Returns the delays: none when the message was lost, two for a
    duplicate.  ``subject`` is the call, or the sending process of a
    ``"message"`` leg, for the injector's drop record; ``fate=False``
    carries the message at the route's bare latency; ``span`` is tagged
    with the hop.  With no injector a missing route is a wiring mistake
    rather than a partition, and raises ``NetworkError`` for the sender.
    """
    faults = kernel.faults
    latency = src.network.latency_or_none(src, dst, size=size)
    lost = None
    if latency is None:
        if faults is None:
            raise NetworkError(f"no route from {src.name!r} to {dst.name!r}")
        lost = "no route"
    elif faults is None or not fate:
        delays = [latency]
    else:
        delays = faults.fate(leg, latency, src.name, dst.name)
        if not delays:
            lost = "loss"
    if lost:
        faults.drop(leg, lost, subject, src, dst)
        return []
    if span is not None:
        if delays[0]:
            span.attrs["request_delay"] = delays[0]
        span.attrs["src_node"] = src.name
        span.attrs["dst_node"] = dst.name
    for delay in delays:
        _after(kernel, delay, deliver, priority)
    return delays


def send_request(kernel: "Kernel", call: "Call", fate: bool = True) -> None:
    """The request leg: hand ``call`` to its object.

    A call the injector does not admit has a target that is down: the
    failure detector settles it.  A request with no route fails its
    caller, at once on a perfect substrate (``carry`` raises) and after
    the detector's delay under an injector (``drop``).
    """
    faults = kernel.faults
    if faults is not None and not faults.admit(call):
        return
    obj = call.obj
    src = call.caller.node
    dst = obj.node
    if src is None or dst is None or src is dst:
        call.runtime.submit(call)
        return
    epoch = call.delivery_epoch

    def arrive() -> None:
        if call.delivery_epoch != epoch:
            return  # a crash claimed the call on the wire and owns its fate
        if faults is not None and faults.is_down(obj):
            faults.drop("request", "target down", call, src, dst)
            return
        call.runtime.submit(call)

    try:
        delays = carry(kernel, src, dst, arrive, "request", call, fate=fate, span=call.span)
    except NetworkError as exc:
        call.runtime.fail(call, exc, "failed")
        return
    if delays:
        call.response_delay = delays[0]


def send_response(kernel: "Kernel", call: "Call", value: Any) -> bool:
    """The response leg of a remote call: resume the caller with ``value``.

    False when the response was lost.  ``call.finished_at`` moves to the
    tick the caller perceives the completion.
    """
    caller = call.caller
    faults = kernel.faults

    def resume() -> None:
        record = caller.waiting_for
        if record is not None and record[1] is call:  # still in this call
            kernel.schedule_resume(caller, value)

    if faults is not None and not faults.node_up(caller.node.name):
        # The caller died with its node: the reply goes nowhere, so no
        # route is looked up and no fate drawn for it.
        _after(kernel, call.response_delay, resume, caller.priority)
    else:
        delays = carry(
            kernel, call.obj.node, caller.node, resume, "response", call,
            priority=caller.priority,
        )
        if not delays:
            return False
        call.response_delay = delays[0]
    if call.finished_at is not None:
        call.finished_at += call.response_delay
    return True
