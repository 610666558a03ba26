"""A disk-head (elevator/SCAN) scheduler — run-time guard priorities.

Not one of the paper's worked examples, but exactly the class of
"scheduling policies that require condition (queue) variables in
monitors" the paper claims managers subsume (§1), and a natural showcase
for the run-time ``pri E`` clause of §2.4: among pending requests the
manager accepts the one whose cylinder is closest ahead of the head in
the current sweep direction — the priority expression *uses the
intercepted invocation parameter*.
"""

from __future__ import annotations

from ..core import (
    SHED_PRI_ALWAYS,
    AcceptGuard,
    AlpsObject,
    Reject,
    ShedGuard,
    entry,
    icpt,
    manager_process,
)
from ..kernel.syscalls import Charge, Select


class DiskScheduler(AlpsObject):
    """SCAN scheduling of ``access(cylinder)`` requests.

    Configuration: ``cylinders`` (disk size), ``seek_cost`` (ticks per
    cylinder moved), ``transfer_work`` (ticks per access), ``request_max``
    (hidden array size), ``queue_cap`` (optional admission control: shed
    requests once more than ``queue_cap`` are pending, §2.5.1 ``#P``).
    """

    def setup(
        self,
        cylinders: int = 200,
        seek_cost: int = 1,
        transfer_work: int = 2,
        request_max: int = 16,
        queue_cap: int | None = None,
    ) -> None:
        self.cylinders = cylinders
        self.seek_cost = seek_cost
        self.transfer_work = transfer_work
        self.request_max = request_max
        self.queue_cap = queue_cap
        self.head = 0
        self.direction = 1  # +1 sweeping up, -1 sweeping down
        #: Order in which cylinders were served (tests check SCAN-ness).
        self.service_order: list[int] = []
        self.total_seek = 0

    @entry(array="request_max")
    def access(self, cylinder):
        distance = abs(cylinder - self.head)
        self.total_seek += distance
        if distance * self.seek_cost or self.transfer_work:
            yield Charge(
                distance * self.seek_cost + self.transfer_work, label="seek"
            )
        self.head = cylinder
        self.service_order.append(cylinder)

    def _scan_priority(self, cylinder: int) -> int:
        """SCAN key: ahead-of-head in current direction first, in order."""
        ahead = (cylinder - self.head) * self.direction
        if ahead >= 0:
            return ahead  # 0..cylinders: next in the sweep
        return 2 * self.cylinders - ahead  # behind: served on the way back

    @manager_process(intercepts={"access": icpt(params=1)})
    def mgr(self):
        cap = self.queue_cap
        guards = [
            AcceptGuard(
                self,
                "access",
                # pri uses the intercepted parameter (§2.4: priorities
                # "can possibly use values received by an accept").
                pri=lambda call: self._scan_priority(call.args[0]),
            ),
        ]
        if cap is not None:
            # The SCAN arm's callable pri is 0..3*cylinders, so the
            # shed arm needs a priority below anything it can produce.
            guards.append(
                ShedGuard(self, "access", cap=cap, pri=SHED_PRI_ALWAYS)
            )
        select = Select(guards)
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, ShedGuard):
                yield Reject(call)
                continue
            cylinder = call.args[0]
            if (cylinder - self.head) * self.direction < 0:
                self.direction = -self.direction  # reverse the sweep
            yield from self.execute(call)
