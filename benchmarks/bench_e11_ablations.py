"""E11 (ablations): design choices DESIGN.md calls out.

Not a paper experiment — ablations of this implementation's own choices:

* **arbitration** — points the paper leaves to "the implementation"
  (slot attachment, ready-guard choice) under ``ordered`` vs seeded
  ``random`` policy: semantics must be identical, fairness may differ;
* **interception width** — intercepting parameters the manager does not
  need (§2.6 warns it is "wasteful to require the manager to receive all
  the parameters"): measures the bookkeeping delta;
* **front end** — the same bounded buffer as a native Python object vs
  compiled from ALPS source: identical virtual-time behaviour, measured
  interpreter overhead in wall-clock time.
"""

from __future__ import annotations


from repro.core import (
    AcceptGuard,
    AlpsObject,
    entry,
    icpt,
    manager_process,
)
from repro.kernel import Kernel, Par, Select
from repro.kernel.costs import FREE
from repro.lang import compile_program
from repro.stdlib import BoundedBuffer, ParallelBuffer

from harness import print_table

MESSAGES = 120


# -- arbitration ---------------------------------------------------------


def drive_arbitration(policy: str, seed: int) -> dict:
    kernel = Kernel(costs=FREE, seed=seed, arbitration=policy)
    buf = ParallelBuffer(kernel, size=4, producer_max=3, consumer_max=3, copy_work=7)
    received = []

    def producer(base):
        for i in range(10):
            yield buf.deposit((base, i))

    def consumer():
        for _ in range(10):
            received.append((yield buf.remove()))

    def main():
        yield Par(
            *[lambda b=b: producer(b) for b in range(3)],
            *[lambda: consumer() for _ in range(3)],
        )

    kernel.run_process(main)
    conserved = sorted(received) == [(b, i) for b in range(3) for i in range(10)]
    return {
        "policy": f"{policy}/seed{seed}",
        "conserved": conserved,
        "virtual_time": kernel.clock.now,
        "switches": kernel.stats.context_switches,
    }


# -- interception width ----------------------------------------------------


def drive_interception(width: int) -> dict:
    def op(self, a, b, c, d):
        return a + b + c + d

    def mgr(self):
        while True:
            result = yield Select(AcceptGuard(self, "op"))
            yield from self.execute(result.value)

    namespace = {
        "op": entry(returns=1, array=4)(op),
        "mgr": manager_process(intercepts={"op": icpt(params=width)})(mgr),
    }
    cls = type(f"Wide{width}", (AlpsObject,), namespace)

    kernel = Kernel()
    obj = cls(kernel)

    def caller(n):
        return (yield obj.op(n, n, n, n))

    def main():
        return (yield Par(*[lambda i=i: caller(i) for i in range(40)]))

    results = kernel.run_process(main)
    assert results == [4 * i for i in range(40)]
    return {
        "intercepted_params": width,
        "virtual_time": kernel.clock.now,
        "resumptions": kernel.stats.resumptions,
    }


# -- surface language vs native ------------------------------------------------

BUFFER_SOURCE = """
object Buffer defines
  proc Deposit(Message);
  proc Remove() returns (Message);
end Buffer;

object Buffer implements
  var N: int := 4;
  var Buf := array(N);
  var InPtr: int := 0;
  var OutPtr: int := 0;
  proc Deposit(M);
  begin
    Buf[InPtr] := M;
    InPtr := (InPtr + 1) mod N;
  end Deposit;
  proc Remove() returns (1);
  begin
    return (Buf[OutPtr]);
  end Remove;
  manager
    intercepts Deposit, Remove;
    var Count: int := 0;
  begin
    loop
      accept Deposit when Count < N =>
        execute Deposit;
        Count := Count + 1;
    or
      accept Remove when Count > 0 =>
        execute Remove;
        OutPtr := (OutPtr + 1) mod N;
        Count := Count - 1;
    end loop;
  end manager;
end Buffer;
"""


def drive_native() -> int:
    kernel = Kernel()
    buf = BoundedBuffer(kernel, size=4)

    def producer():
        for i in range(MESSAGES):
            yield buf.deposit(i)

    def consumer():
        for _ in range(MESSAGES):
            yield buf.remove()

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()
    return kernel.clock.now


def drive_compiled() -> int:
    kernel = Kernel()
    module = compile_program(BUFFER_SOURCE)
    buf = module.instantiate(kernel, "Buffer")

    def producer():
        for i in range(MESSAGES):
            yield buf.call("Deposit", i)

    def consumer():
        for _ in range(MESSAGES):
            yield buf.call("Remove")

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()
    return kernel.clock.now


def run_experiment():
    arbitration = [
        drive_arbitration("ordered", 0),
        drive_arbitration("random", 1),
        drive_arbitration("random", 2),
        drive_arbitration("random", 3),
    ]
    interception = [drive_interception(w) for w in (0, 2, 4)]
    frontend = [
        {"front_end": "native python", "virtual_time": drive_native()},
        {"front_end": "compiled ALPS source", "virtual_time": drive_compiled()},
    ]
    return arbitration, interception, frontend


def test_e11_tables(capsys):
    arbitration, interception, frontend = run_experiment()
    with capsys.disabled():
        print_table(
            "E11a arbitrary-choice policy: conservation under any arbitration",
            arbitration,
        )
        print_table(
            "E11b interception width: intercepting unneeded parameters",
            interception,
            note="§2.6: manager receives only an initial subsequence",
        )
        print_table(
            "E11c surface language: same buffer, same virtual time",
            frontend,
        )
    assert all(row["conserved"] for row in arbitration)
    # Interception width must not change scheduling outcomes materially.
    times = [row["virtual_time"] for row in interception]
    assert max(times) <= 1.2 * min(times)
    # The compiled object is semantically identical: virtual time equal.
    assert frontend[0]["virtual_time"] == frontend[1]["virtual_time"]


if __name__ == "__main__":
    a, b, c = run_experiment()
    print_table("E11a", a)
    print_table("E11b", b)
    print_table("E11c", c)
