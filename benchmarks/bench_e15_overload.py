"""E15: overload + crash — retry storms vs the request-robustness stack.

The scenario every production system eventually meets: an object running
at 1.5x its knee capacity suffers a mid-run crash and heals.  Two client
configurations face byte-identical offered load (same engine seed, the
schedule is fixed before the kernel runs):

* ``storm`` — the pre-PR-7 defaults: unbounded server queue, per-attempt
  timeouts, eager fixed-backoff retries with **no aggregate bound**.
  Every timeout re-offers the request, so the outage multiplies load by
  the attempt count; after the heal the queue is a wall of work that
  expires before it can be served, and goodput never recovers;
* ``guarded`` — the full robustness stack: queue cap + deadline-sweep +
  predicted-wait shedding on the server (``#P`` admission arms), an
  end-to-end request deadline anchored at the scheduled arrival, a
  shared :class:`~repro.faults.RetryBudget`, and a
  :class:`~repro.faults.CircuitBreaker` that converts the outage into
  fast local refusals and probes its way back after the heal.

Reported per phase (pre-crash / outage / post-heal): goodput per
kilotick and its fraction of the calm knee.  The claims checked:

* the storm config's post-heal goodput stays below **50%** of the knee —
  congestion collapse persists after the fault clears;
* the guarded config recovers to at least **80%** of the knee;
* conservation holds exactly in both (every request and every wire
  attempt accounted), no acknowledged write is lost, and the breaker's
  transition log is replay-identical across runs.
"""

from __future__ import annotations

from repro.faults import (
    CircuitBreaker,
    FaultPlan,
    FixedBackoff,
    RetryBudget,
    install,
)
from repro.kernel import Kernel
from repro.net import ring
from repro.stdlib import GatedKVStore
from repro.workloads import TrafficEngine, Uniform, find_knee, watch_traffic

from harness import attach_chrome_trace, print_table, write_results

SEED = 15
COUNT = 400          # requests per run
ENGINES = 4
CLIENTS = 64         # per-engine in-flight bound (generous: drops are rare)
WORK = 20            # ticks per put body: body >> manager overhead, so a
                     # reject (~2 manager ticks) costs ~10% of a serve and
                     # shedding excess load does not itself eat capacity
TIMEOUT = 150        # per-attempt (per-hop) timeout
DEADLINE = 300       # end-to-end request deadline (guarded config only)
QUEUE_CAP = 4        # server #P cap: cap x per-call time (~26) < TIMEOUT,
                     # so every *admitted* attempt finishes inside its
                     # per-hop timeout instead of dying in the queue
OUTAGE = 200         # crash -> node restart, in ticks
DETECTION = 10       # crash detection delay
SETTLE = 100         # ticks after heal before the recovery phase is judged
#: Calm sweep for the knee (no faults, guarded config), fastest last.
GAPS = (48, 36, 30, 26, 22, 17, 13)
#: Same eager policy for both configs: the *guards* differ, not the zeal.
POLICY = FixedBackoff(delay=20, max_attempts=6)
#: Live-plane SLO on the crash-and-heal rows: 90% of requests ok, alert
#: at 2x budget burn on a fast (400 tick) and slow (2000 tick) window.
LIVE_OBJECTIVE = 0.9
LIVE_FAST = 400
LIVE_SLOW = 2000


def make_engine(config: str, kernel, gap: int):
    """(engine, store) for one run; both configs share the offered load."""
    guarded = config == "guarded"
    net = ring(kernel, 2)
    store = net.node("n1").place(
        GatedKVStore(
            kernel,
            name="kv",
            write_work=WORK,
            request_max=1,  # serial bodies: the service-time EWMA is honest
            queue_cap=QUEUE_CAP if guarded else None,
        )
    )

    def build(req):
        # Unique key per request: an acked put must be retrievable after
        # the run, so lost acknowledged writes are directly countable.
        return store.put(f"k{req.index}", req.index, timeout=TIMEOUT)

    engine = TrafficEngine(
        kernel,
        Uniform(gap),
        COUNT,
        build,
        engines=ENGINES,
        clients=CLIENTS,
        seed=SEED,
        name="e15",
        deadline=DEADLINE if guarded else None,
        retry_policy=POLICY,
        retry_budget=RetryBudget(capacity=10.0, fill_ratio=0.1) if guarded else None,
        breaker=(
            CircuitBreaker(
                kernel,
                window=200,
                min_calls=10,
                failure_threshold=0.5,
                cooldown=100,
                name="kv-breaker",
            )
            if guarded
            else None
        ),
    )
    return engine, store, net


def phase_goodput(result, start: int, end: int) -> float:
    """OK completions per kilotick inside [start, end)."""
    ok = sum(
        1
        for o in result.outcomes
        if o.status == "ok" and start <= o.finished_at < end
    )
    return ok * 1000 / max(1, end - start)


def lost_acked(result, store) -> int:
    """Acked puts whose key is absent after the run (must be zero)."""
    return sum(
        1
        for o in result.outcomes
        if o.status == "ok" and f"k{o.request.index}" not in store.data
    )


def calm_row(gap: int) -> dict:
    """One calm (fault-free, guarded) sweep cell for the knee curve."""
    kernel = Kernel(seed=SEED)
    engine, store, net = make_engine("guarded", kernel, gap)
    install(kernel, net, FaultPlan(detection_delay=DETECTION))
    result = engine.run()
    span = max(1, COUNT * gap)
    return {
        "config": "calm",
        "mean_gap": gap,
        "offered_per_ktick": round(COUNT * 1000 / span, 1),
        "goodput_per_ktick": round(result.counts["ok"] * 1000 / span, 1),
        "ok": result.counts["ok"],
        "shed": result.counts["shed"],
        "timeout": result.counts["timeout"],
        "dropped": result.counts["dropped"],
        "error": result.counts["error"],
        "attempts": result.attempts,
        "lost_acked": lost_acked(result, store),
        "conservation_violations": 0,  # engine.run() would have raised
    }


def storm_drive(config: str, gap: int, trace: bool = False) -> dict:
    """One crash-and-heal run; returns the row plus raw artifacts."""
    span = COUNT * gap
    crash_at = span // 3
    heal_at = crash_at + OUTAGE

    kernel = Kernel(seed=SEED)
    if trace:
        attach_chrome_trace(kernel, "e15")
    engine, store, net = make_engine(config, kernel, gap)
    # Live burn-rate watch on the crash window: the outage must show up
    # as alert transitions in the deterministic alert log (checked
    # below), at zero schedule perturbation.
    plane = kernel.obs.live
    watch_traffic(
        plane, engine, objective=LIVE_OBJECTIVE,
        fast=LIVE_FAST, slow=LIVE_SLOW,
    )
    install(
        kernel,
        net,
        FaultPlan(detection_delay=DETECTION).crash_node(
            "n1", at=crash_at, restart_at=heal_at
        ),
    )
    # Node restarts do not restart placed objects; the harness heals the
    # store explicitly (its data mapping — stable storage — survives).
    kernel.post(heal_at + 1, store.restart)
    result = engine.run()
    if trace:
        kernel.obs.close()

    violations = 0
    try:
        result.check_conservation()
    except AssertionError:
        violations = 1
    retries_total = sum(o.retries for o in result.outcomes)
    row = {
        "config": config,
        "mean_gap": gap,
        "offered_per_ktick": round(COUNT * 1000 / span, 1),
        "pre_goodput": round(phase_goodput(result, 0, crash_at), 1),
        "outage_goodput": round(phase_goodput(result, crash_at, heal_at), 1),
        "post_goodput": round(
            phase_goodput(result, heal_at + SETTLE, span), 1
        ),
        "ok": result.counts["ok"],
        "shed": result.counts["shed"],
        "timeout": result.counts["timeout"],
        "dropped": result.counts["dropped"],
        "error": result.counts["error"],
        "attempts": result.attempts,
        "retries": retries_total,
        "swept": int(kernel.metrics.value("admission.swept")),
        "deadline_expired": int(kernel.metrics.value("deadline.expired")),
        "breaker_transitions": int(kernel.metrics.value("breaker.transitions")),
        "lost_acked": lost_acked(result, store),
        "conservation_violations": violations,
        "alerts": sum(
            1 for e in plane.monitors["traffic.e15.slo"].events
            if e.state == "firing"
        ),
    }
    transitions = list(engine.breaker.transitions) if engine.breaker else []
    return row, engine.offered_records(), transitions


def run_experiment():
    calm = [calm_row(gap) for gap in GAPS]
    curve = [(r["offered_per_ktick"], r["goodput_per_ktick"]) for r in calm]
    knee = find_knee(curve)
    for i, row in enumerate(calm):
        row["knee"] = i == knee
    knee_goodput = calm[knee]["goodput_per_ktick"]
    knee_gap = calm[knee]["mean_gap"]
    # Offer 1.5x the knee load: two-thirds of the knee's mean gap.
    storm_gap = max(1, round(knee_gap / 1.5))

    storm, storm_offered, _ = storm_drive("storm", storm_gap)
    guarded, guarded_offered, transitions = storm_drive("guarded", storm_gap)
    for row in (storm, guarded):
        row["knee_goodput"] = knee_goodput
        row["post_frac_of_knee"] = round(row["post_goodput"] / knee_goodput, 3)
        row["knee"] = False
    return {
        "calm": calm,
        "storm": storm,
        "guarded": guarded,
        "knee_goodput": knee_goodput,
        "storm_gap": storm_gap,
        "offered": (storm_offered, guarded_offered),
        "transitions": transitions,
    }


def bench_rows(outcome: dict) -> list[dict]:
    """Flatten the experiment outcome into uniform BENCH_E15 rows."""
    raw = [dict(r) for r in outcome["calm"]]
    raw += [dict(outcome[k]) for k in ("storm", "guarded")]
    columns: list[str] = []
    for row in raw:
        for key in row:
            if key not in columns:
                columns.append(key)
    return [{key: row.get(key) for key in columns} for row in raw]


def test_e15_overload(capsys):
    outcome = run_experiment()
    storm, guarded = outcome["storm"], outcome["guarded"]
    knee_goodput = outcome["knee_goodput"]
    rows = bench_rows(outcome)
    with capsys.disabled():
        print_table(
            f"E15 overload storm vs robustness stack ({COUNT} puts, "
            f"crash for {OUTAGE} ticks mid-run, 1.5x knee load)",
            [storm, guarded],
            note=(
                f"knee {knee_goodput}/ktick at calm gap; identical offered "
                f"schedule, storm gap {outcome['storm_gap']}"
            ),
        )
    write_results(
        "e15", rows, seed=SEED,
        note=f"gaps {GAPS}, outage {OUTAGE}, timeout {TIMEOUT}, "
             f"deadline {DEADLINE}",
    )

    # The two configs faced literally the same offered load.
    storm_offered, guarded_offered = outcome["offered"]
    assert storm_offered == guarded_offered, "offered schedules diverged"

    # Exact accounting and durability in both configs.
    for row in (storm, guarded):
        assert row["conservation_violations"] == 0, row
        assert row["error"] == 0, row
        assert row["lost_acked"] == 0, row

    # The guarded config was healthy before the crash; the storm config
    # is already degraded by then — at sustained 1.5x knee load an
    # uncapped queue outgrows the per-attempt timeout on its own, so its
    # collapse does not even need the crash.
    assert guarded["pre_goodput"] > 0.5 * knee_goodput, guarded
    assert storm["pre_goodput"] < guarded["pre_goodput"], (storm, guarded)

    # The claim: unbounded retries turn a transient crash into persistent
    # collapse, while budget+deadline+breaker recover past 80% of knee.
    assert storm["post_goodput"] < 0.5 * knee_goodput, storm
    assert guarded["post_goodput"] >= 0.8 * knee_goodput, guarded

    # The live burn-rate monitor saw the outage in both configs: the SLO
    # budget burn crossed threshold on the fast and slow windows and the
    # (deterministic, replay-identical) alert log recorded the firing.
    assert storm["alerts"] >= 1, storm
    assert guarded["alerts"] >= 1, guarded

    # The guarded stack actually exercised its machinery.
    assert guarded["breaker_transitions"] >= 3, guarded  # open, probe, close
    assert guarded["shed"] > 0, guarded
    # ... and unbounded retries amplified the storm's wire load.
    assert storm["attempts"] > guarded["attempts"], (storm, guarded)

    # Breaker transition log is deterministic: a second identical run
    # replays the same (tick, from, to) sequence exactly.
    _, _, transitions_again = storm_drive("guarded", outcome["storm_gap"])
    assert transitions_again == outcome["transitions"]
    assert transitions_again, "breaker never transitioned"

    # Observation is schedule-neutral: re-running the guarded cell with
    # the span recorder + Chrome sink (TRACE_E15.json) reproduces the
    # measured row exactly.
    traced, _, _ = storm_drive("guarded", outcome["storm_gap"], trace=True)
    probe = {
        k: v for k, v in guarded.items()
        if k not in ("knee", "knee_goodput", "post_frac_of_knee")
    }
    assert traced == probe, "span recording changed the E15 guarded cell"


if __name__ == "__main__":
    outcome = run_experiment()
    print_table("E15", bench_rows(outcome))
