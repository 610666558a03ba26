"""E12: goodput under message loss — fault injection and recovery policies.

Not an experiment from the 1988 paper (whose machines did not drop
messages), but the natural stress test for `repro.faults`: a dictionary
object serves timed remote searches over links that lose a fraction of
all messages.  Three recovery policies face each loss rate:

* ``none``  — one timed attempt; a lost request or response is a failure.
* ``fixed`` — ``retry`` with constant backoff.
* ``expo``  — ``retry`` with exponential backoff + jitter.

Reported per cell: completed fraction, goodput (completions per kilo-
tick), p95 response time and retry count.  The claim checked: recovery
degrades *gracefully* — with retries, 10% loss still completes every
call and keeps a large fraction of the loss-free goodput, while the
no-recovery policy visibly collapses.
"""

from __future__ import annotations


from repro.errors import RemoteCallError
from repro.faults import ExponentialBackoff, FaultPlan, FixedBackoff, install, retry
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.obs.live import nearest_rank
from repro.stdlib import Dictionary

from harness import print_table, write_results

SEED = 7
CLIENTS = 3  # one per non-server node of the 4-ring
OPS_PER_CLIENT = 40
# A loss-free search answers in ~15 ticks; the timeout leaves headroom
# for queueing but keeps the price of a lost message proportionate.
TIMEOUT = 40
LOSS_RATES = (0.0, 0.05, 0.10, 0.20)
POLICIES = {
    "none": None,
    "fixed": FixedBackoff(delay=20, max_attempts=6),
    "expo": ExponentialBackoff(base=10, max_attempts=6, jitter=5),
}


def drive(loss: float, policy_name: str) -> dict:
    policy = POLICIES[policy_name]
    kernel = Kernel(costs=FREE, seed=SEED)
    net = ring(kernel, 4)
    d = net.node("n1").place(
        Dictionary(kernel, name="d", entries={"w": "meaning"}, search_work=10)
    )
    install(kernel, net, FaultPlan(seed=SEED).drop_messages(loss))

    completed: list[int] = []  # response times of successes
    failed = [0]

    def client(idx):
        def body():
            yield Delay(idx)  # desynchronize the arrival fronts
            for _ in range(OPS_PER_CLIENT):
                start = kernel.clock.now
                try:
                    if policy is None:
                        yield d.search("w", timeout=TIMEOUT)
                    else:
                        yield from retry(
                            lambda: d.search("w", timeout=TIMEOUT),
                            policy,
                            seed=SEED + idx,
                        )
                except RemoteCallError:
                    failed[0] += 1
                else:
                    completed.append(kernel.clock.now - start)
                yield Delay(5)

        net.node(f"n{idx}").spawn(body, name=f"client{idx}")

    for idx in (0, 2, 3):
        client(idx)
    kernel.run()

    total = CLIENTS * OPS_PER_CLIENT
    span = max(1, kernel.clock.now)
    return {
        "loss": loss,
        "policy": policy_name,
        "completed": len(completed),
        "failed": failed[0],
        "completed_frac": round(len(completed) / total, 3),
        "goodput_per_ktick": round(len(completed) * 1000 / span, 1),
        "p95_response": nearest_rank(completed, 95),
        "retries": kernel.metrics.value("retry.attempts"),
        "virtual_time": kernel.clock.now,
    }


def run_experiment() -> list[dict]:
    return [
        drive(loss, name) for loss in LOSS_RATES for name in POLICIES
    ]


def test_e12_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            "E12 goodput under message loss "
            f"({CLIENTS}x{OPS_PER_CLIENT} timed searches, ring of 4)",
            rows,
            note="same workload and fault seed per row; only the policy varies",
        )
    write_results(
        "e12", rows, seed=SEED,
        note=f"loss rates {LOSS_RATES}, timeout {TIMEOUT}",
    )
    cell = {(r["loss"], r["policy"]): r for r in rows}

    # Loss-free: every policy completes everything, no retries drawn.
    for name in POLICIES:
        assert cell[(0.0, name)]["completed_frac"] == 1.0
        assert cell[(0.0, name)]["retries"] == 0

    # Graceful degradation: at 10% loss the retrying policies still
    # complete every call and keep most of the loss-free goodput.
    for name in ("fixed", "expo"):
        assert cell[(0.10, name)]["completed_frac"] == 1.0
        assert (
            cell[(0.10, name)]["goodput_per_ktick"]
            >= 0.5 * cell[(0.0, name)]["goodput_per_ktick"]
        )

    # ... while one-shot calls visibly lose work once messages drop.
    assert cell[(0.10, "none")]["completed_frac"] < 1.0
    assert (
        cell[(0.20, "expo")]["completed_frac"]
        > cell[(0.20, "none")]["completed_frac"]
    )


if __name__ == "__main__":
    print_table("E12", run_experiment())
