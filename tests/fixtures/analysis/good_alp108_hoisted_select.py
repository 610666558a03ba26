# Two Select objects built once and yielded every iteration: each name
# keeps the exact candidate set of its own inline guards, so Start's
# hidden-parameter count is checked per select; clean.
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
        device = object()
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
                yield Start(result.value, device)
            else:
                yield Finish(result.value)
