# Deadlock fixture: the await handshake, spelled through the module.
# Turnstile's manager starts `enter` asynchronously and then parks in
# `core.await_call(self, "enter", ...)` — the same one-guard select as
# `self.await_("enter", ...)`, so it is *not* receptive while the body
# runs.  The body calls unmanaged Helper.relay, whose body calls back
# into Turnstile.probe; that call queues behind the parked manager.  A
# static pass that only recognises the `self.` and bare spellings sees
# no manager-blocking edge here and predicts nothing.  (Not another
# `Gate`: a class name defined twice is ambiguous once the fixtures are
# merged into one program.)
from repro import core
from repro.core import AlpsObject, Finish, Start, entry, manager_process


class Turnstile(AlpsObject):
    @entry(returns=1)
    def enter(self):
        token = yield self.helper.relay()
        return token

    @entry(returns=1)
    def probe(self):
        return 0

    @manager_process(intercepts=["enter", "probe"])
    def mgr(self):
        while True:
            call = yield self.accept("enter")
            yield Start(call)
            done = yield core.await_call(self, "enter", call=call)  # non-receptive
            yield Finish(done)
            call = yield self.accept("probe")
            yield Finish(call, 1)  # combined: the body never runs


class Helper(AlpsObject):
    @entry(returns=1)
    def relay(self):
        token = yield self.gate.probe()  # queues behind the parked manager
        return token


def build(kernel):
    gate = Turnstile(kernel)
    helper = Helper(kernel)
    gate.helper = helper
    helper.gate = gate
    kernel.spawn(lambda: (yield gate.enter()), name="client")
    return gate, helper
