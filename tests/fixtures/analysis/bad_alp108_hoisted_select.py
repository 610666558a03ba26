# expect: ALP108
# The Select is built once, outside the loop; `yield writes` still binds
# the result to exactly {write}, which declares one hidden parameter —
# Start passes none.  (Were the hoisted name lost, the candidates would
# widen to {log, write} and the mismatch would go unreported.)
from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Finish,
    Start,
    entry,
    icpt,
    manager_process,
)
from repro.kernel import Select


class TwoLanes(AlpsObject):
    @entry
    def log(self, line):
        pass

    @entry(hidden_params=1)
    def write(self, block, device):
        pass

    @manager_process(intercepts={"log": icpt(), "write": icpt()})
    def mgr(self):
        logs = Select(AcceptGuard(self, "log"), AwaitGuard(self, "log"))
        writes = Select(AcceptGuard(self, "write"), AwaitGuard(self, "write"))
        while True:
            result = yield logs
            if isinstance(result.guard, AcceptGuard):
                yield Start(result.value)
            else:
                yield Finish(result.value)
            result = yield writes
            if isinstance(result.guard, AcceptGuard):
                yield Start(result.value)
            else:
                yield Finish(result.value)
