"""``Replicated`` — first-class primary/backup replication for ALPS objects.

PR 1 left failover to every caller (``examples/failover.py`` hand-rolled
retry → fall back → Supervisor).  ``Replicated`` makes that pattern a
library object::

    rep = Replicated(
        lambda name: KVStore(kernel, name=name),
        net, replicas=3, writes=("put", "delete"),
    )
    ...
    value = yield from rep.get("alps")          # read: primary, else backup
    yield from rep.put("alps", "a language")    # write: primary → backups

The wrapper places one primary plus ``replicas - 1`` backups on distinct
nodes (fault-aware: :func:`repro.net.choose_nodes`), and builds a small
control plane of unplaced daemons — modelling the replication middleware
that real systems run outside any single replica:

* a **write sequencer** funnels every write through one process, stamps
  it with the next version number, applies it to the primary (retrying,
  and electing a new primary on :class:`~repro.errors.RemoteCallError`),
  forwards it to every live backup, and only then acknowledges the
  caller — so replicas apply writes in one global order (deterministic
  convergence) and an acknowledged write survives the loss of any one
  replica;
* a **view monitor** sleeps on the heartbeat's and fault runtime's event
  streams, folds ping verdicts into the :class:`ReplicaView`, promotes
  the highest-version live backup when the primary dies, and catches a
  returning replica up (write-log replay, or a full state snapshot from
  the best live donor when the log has been pruned) before it rejoins as
  a backup;
* a **heartbeat** pings every replica (its own ``ping`` entry when it has
  one, a co-located :class:`~repro.faults.Beacon` otherwise).

Reads go to the primary with timed calls + retry and fail over to live
backups transparently; a read served by a backup may be *stale* by the
backup's version lag (recorded for the benchmarks).

Semantics: writes are **at-least-once** (a retry or re-queue can re-apply
a body), so write entries should be idempotent — last-writer-wins
updates like ``KVStore.put`` qualify.  Acknowledged writes are ordered
by version and survive any single replica loss: the promotion rule
(highest version wins) plus forward-before-ack plus log/snapshot
catch-up guarantee the new primary holds every acknowledged write.

With a :class:`~repro.stdlib.Supervisor`, crashed replicas restart under
supervision (interrupted calls re-queued); without one, the view monitor
restarts them itself once their node returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..channels import Channel, Receive, Send
from ..errors import RemoteCallError, ReplicationError
from ..faults.detect import Beacon, Heartbeat
from ..faults.retry import FixedBackoff, RetryPolicy, retry
from ..kernel.syscalls import Delay, Select
from ..net.placement import choose_nodes
from .log import WriteLog
from .view import ReplicaView

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process
    from ..net.network import Network, Node
    from ..stdlib.supervisor import Supervisor

#: Default client-facing retry (reads and primary writes).
DEFAULT_RETRY = FixedBackoff(delay=20, max_attempts=2)
#: Default replica-to-replica retry (forwarding, catch-up replay).
DEFAULT_FORWARD = FixedBackoff(delay=10, max_attempts=3)


def place_replicated(
    factory: Callable[[str], Any],
    net: "Network",
    count: int,
    *,
    name: str = "rep",
    heartbeat: Heartbeat | None = None,
    avoid: Iterable[str] = (),
) -> list[Any]:
    """Fault-aware placement without the full wrapper.

    Creates ``count`` instances via ``factory(name.r<i>)`` and places
    them on distinct nodes chosen by :func:`repro.net.choose_nodes`
    (down-believed nodes last, lightly loaded first).  Use this for
    replica sets you coordinate yourself, or for pool growth that should
    steer away from flaky nodes.
    """
    nodes = choose_nodes(net, count, heartbeat=heartbeat, avoid=avoid)
    placed = []
    for index, node in enumerate(nodes):
        rname = f"{name}.r{index}"
        obj = factory(rname)
        _check_factory_name(obj, rname)
        node.place(obj)
        placed.append(obj)
    return placed


def _check_factory_name(obj: Any, rname: str) -> None:
    if getattr(obj, "alps_name", None) != rname:
        raise ReplicationError(
            f"replica factory must pass the given name through: expected "
            f"{rname!r}, got {getattr(obj, 'alps_name', None)!r}"
        )


class _ReplicatedEntry:
    """``rep.get`` — calling it returns the proxy generator to yield from."""

    __slots__ = ("rep", "name")

    def __init__(self, rep: "Replicated", name: str) -> None:
        self.rep = rep
        self.name = name

    def __call__(self, *args: Any, timeout: int | None = None):
        return self.rep.invoke(self.name, args, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<replicated entry {self.rep.name}.{self.name}>"


class Replicated:
    """A replicated ALPS object: place once, call through, forget faults.

    Parameters
    ----------
    factory:
        ``factory(name) -> AlpsObject``; called once per replica with the
        replica's name (which it must pass through to the object).
        Install the fault plan and create the Supervisor *before*
        constructing the wrapper.
    replicas:
        Total copies including the primary.  ``1`` gives the unreplicated
        baseline: no backups, failover impossible.
    writes:
        Entry names that mutate shared data; they are sequenced and
        forwarded to every replica.  Everything else exported is a read.
    nodes:
        Explicit distinct placement (names or nodes) overriding the
        fault-aware choice; ``avoid`` excludes nodes from the automatic
        choice (e.g. the Supervisor's home).
    supervisor:
        Optional :class:`~repro.stdlib.Supervisor`; when given it watches
        every replica (and beacon) so interrupted calls are re-queued.
        Without one the view monitor restarts crashed replicas itself.
    log_limit:
        Bound on the write log; a replica behind the pruned prefix is
        repaired by a full state snapshot instead of replay.
    snapshot_cost:
        Virtual-time multiplier over one network hop for a snapshot
        transfer (a snapshot is heavier than one message).
    """

    def __init__(
        self,
        factory: Callable[[str], Any],
        net: "Network",
        replicas: int = 2,
        *,
        name: str = "rep",
        writes: Iterable[str] = (),
        call_timeout: int = 60,
        retry_policy: RetryPolicy | None = None,
        forward_policy: RetryPolicy | None = None,
        heartbeat_interval: int = 40,
        heartbeat_timeout: int | None = None,
        heartbeat_rounds: int | None = None,
        supervisor: "Supervisor | None" = None,
        nodes: Iterable[Any] | None = None,
        avoid: Iterable[str] = (),
        log_limit: int | None = None,
        snapshot_cost: int = 4,
        seed: int = 0,
    ) -> None:
        if replicas < 1:
            raise ReplicationError(f"replicas must be >= 1, got {replicas}")
        self.net = net
        self.kernel = net.kernel
        self.name = name
        self.writes = frozenset(writes)
        self.call_timeout = call_timeout
        self.retry_policy = retry_policy or DEFAULT_RETRY
        self.forward_policy = forward_policy or DEFAULT_FORWARD
        self.snapshot_cost = snapshot_cost
        self.supervisor = supervisor
        #: The installed fault runtime, if any (install the plan first).
        self.faults = self.kernel.faults
        self.seed = seed
        self._seq = 0
        #: Version lag observed by each read a backup served.
        self._staleness: list[int] = []

        metrics = self.kernel.metrics
        self.c_reads = metrics.counter(
            "replication.reads", "Reads served by any replica",
        )
        self.c_failovers = metrics.counter(
            "replication.failovers", "Reads failed over to a backup",
        )
        self.c_writes = metrics.counter(
            "replication.writes", "Writes acknowledged by the sequencer",
        )
        self.c_write_failures = metrics.counter(
            "replication.write_failures",
            "Writes failed after exhausting every replica",
        )
        self.c_restarts = metrics.counter(
            "replication.restarts", "Replicas self-restarted by the view monitor",
        )
        self.c_catchup_writes = metrics.counter(
            "replication.catchup_writes", "Writes replayed during catch-up",
        )
        self.c_snapshots = metrics.counter(
            "replication.snapshots", "Full state transfers between replicas",
        )

        # -- placement: one replica per distinct node ----------------------
        if nodes is not None:
            chosen: list["Node"] = [
                net.node(n) if isinstance(n, str) else n for n in nodes
            ]
            if len(chosen) != replicas:
                raise ReplicationError(
                    f"nodes gives {len(chosen)} placements for {replicas} replicas"
                )
            if len({n.name for n in chosen}) != len(chosen):
                raise ReplicationError(
                    "replicas must not be co-located on one node"
                )
        else:
            chosen = choose_nodes(net, replicas, avoid=avoid)

        self._objects: dict[str, Any] = {}
        self._nodes: dict[str, "Node"] = {}
        self._beacons: dict[str, Any] = {}
        names: list[str] = []
        for index, node in enumerate(chosen):
            rname = f"{name}.r{index}"
            obj = factory(rname)
            _check_factory_name(obj, rname)
            node.place(obj)
            self._objects[rname] = obj
            self._nodes[rname] = node
            names.append(rname)

        prototype = self._objects[names[0]]
        self._entries = frozenset(prototype.exported_entries())
        unknown = self.writes - self._entries
        if unknown:
            raise ReplicationError(
                f"{name}: writes name unknown entries {sorted(unknown)} "
                f"(exported: {sorted(self._entries)})"
            )

        self.view = ReplicaView(self.kernel, names)
        self.log = WriteLog(log_limit)

        # -- failure detection: heartbeat per replica ----------------------
        self.heartbeat = Heartbeat(
            self.kernel,
            interval=heartbeat_interval,
            timeout=(
                heartbeat_timeout if heartbeat_timeout is not None else call_timeout
            ),
            rounds=heartbeat_rounds,
        )
        for rname in names:
            if "ping" in self._entries:
                target = self._objects[rname]
            else:
                target = self._nodes[rname].place(
                    Beacon(self.kernel, name=f"{rname}.beacon")
                )
                self._beacons[rname] = target
            self.heartbeat.watch(rname, target)

        if supervisor is not None:
            for rname in names:
                supervisor.watch(self._objects[rname])
                beacon = self._beacons.get(rname)
                if beacon is not None:
                    supervisor.watch(beacon)

        # -- control plane (unplaced daemons: the middleware layer) --------
        self._write_queue = Channel(name=f"{name}.writes")
        self._sequencer_proc: "Process" = self.kernel.spawn(
            self._sequencer, name=f"{name}.sequencer", daemon=True
        )
        self._monitor_proc: "Process" = self.kernel.spawn(
            self._view_monitor, name=f"{name}.monitor", daemon=True
        )
        self.heartbeat.start()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self.__dict__.get("_entries", ()):
            return _ReplicatedEntry(self, name)
        raise AttributeError(
            f"{type(self).__name__} {self.__dict__.get('name', '?')!r} has no "
            f"entry or attribute {name!r}"
        )

    def replica(self, rname: str) -> Any:
        return self._objects[rname]

    def replicas(self) -> list[Any]:
        return [self._objects[n] for n in self.view.order]

    def node_of(self, rname: str) -> str:
        return self._nodes[rname].name

    def primary_node(self) -> str:
        return self.node_of(self.view.primary)

    def staleness(self) -> list[int]:
        """Version lag of every read a backup served, in read order."""
        return list(self._staleness)

    def stop(self) -> None:
        """Halt the control plane (heartbeat, monitor, sequencer).

        Lets an open-ended ``kernel.run()`` reach quiescence.  Reads keep
        working (without new failure detection); writes submitted after
        the stop are never acknowledged.
        """
        self.heartbeat.stop()
        for proc in (self._monitor_proc, self._sequencer_proc):
            if proc is not None and proc.alive:
                self.kernel.kill_process(proc)

    def describe(self) -> str:
        placement = ", ".join(
            f"{n}@{self._nodes[n].name}" + ("*" if n == self.view.primary else "")
            for n in self.view.order
        )
        return f"replicated {self.name} v{self.view.version} [{placement}]"

    def _next_seed(self) -> int:
        """Per-attempt retry seed: deterministic, decorrelated in event order."""
        self._seq += 1
        return self.seed * 1_000_003 + self._seq

    # ------------------------------------------------------------------
    # Client-facing call proxy
    # ------------------------------------------------------------------

    def invoke(self, entry: str, args: tuple, timeout: int | None = None):
        """Proxy one call; use as ``result = yield from rep.invoke(...)``.

        (Attribute sugar ``yield from rep.get(key)`` builds exactly this.
        Use ``invoke`` directly for entries shadowed by wrapper
        attributes.)
        """
        if entry not in self._entries:
            raise ReplicationError(
                f"{self.name} has no exported entry {entry!r} "
                f"(has: {sorted(self._entries)})"
            )
        timeout = self.call_timeout if timeout is None else timeout
        if entry in self.writes:
            return self._write(entry, tuple(args), timeout)
        return self._read(entry, tuple(args), timeout)

    def _read(self, entry: str, args: tuple, timeout: int):
        """Primary first, then live backups, then down-marked stragglers."""
        primary = self.view.primary
        candidates = [primary]
        candidates += [n for n in self.view.order if self.view.is_up(n) and n != primary]
        candidates += [n for n in self.view.order if not self.view.is_up(n) and n != primary]
        last_exc: RemoteCallError | None = None
        for rname in candidates:
            obj = self._objects[rname]
            try:
                result = yield from retry(
                    lambda o=obj: getattr(o, entry)(*args, timeout=timeout),
                    self.retry_policy,
                    seed=self._next_seed(),
                )
            except RemoteCallError as exc:
                last_exc = exc
                self.view.mark_down(rname)
                continue
            self.c_reads.inc()
            if rname != primary:
                self.c_failovers.inc()
                self._staleness.append(self.view.lag(rname))
            return result
        raise RemoteCallError(
            f"{self.name}.{entry}: all {len(candidates)} replicas unreachable",
            entry=entry,
            obj=self.name,
        ) from last_exc

    def _write(self, entry: str, args: tuple, timeout: int):
        """Submit to the sequencer; block until acknowledged (or failed)."""
        obs = self.kernel.obs
        span = None
        if obs.enabled:
            # Root of the per-write span tree: client submit → sequencer
            # (via the queued span id) → per-replica entry calls → ack.
            client = self.kernel.current_process
            span = obs.begin(
                "replicated", f"{self.name}.{entry}",
                process=client.name, parent=client.span,
            )
        reply = Channel(name=f"{self.name}.ack")
        sid = None if span is None else span.span_id
        yield Send(self._write_queue, (entry, args, timeout, reply, sid))
        status, payload = yield Receive(reply)
        if span is not None:
            obs.end(span, status=status)
        if status == "error":
            raise payload
        return payload

    # ------------------------------------------------------------------
    # Write sequencer: one global order for every mutation
    # ------------------------------------------------------------------

    def _sequencer(self):
        obs = self.kernel.obs
        while True:
            entry, args, timeout, reply, parent = yield Receive(self._write_queue)
            span = None
            if obs.enabled:
                # The sequencer span parents on the client's write span
                # and, through the process span link, adopts the primary
                # apply and backup forward calls as children.
                span = obs.begin(
                    "replication", f"{self.name}.{entry}.sequence",
                    process=self._sequencer_proc.name, parent=parent,
                )
                self._sequencer_proc.span = span
            try:
                result = yield from self._apply_write(entry, args, timeout)
            except (RemoteCallError, ReplicationError) as exc:
                self.c_write_failures.inc()
                if span is not None:
                    obs.end(span, status="error")
                    self._sequencer_proc.span = None
                yield Send(reply, ("error", exc))
            else:
                if span is not None:
                    obs.end(span, status="ok", version=self.view.version)
                    self._sequencer_proc.span = None
                yield Send(reply, ("ok", result))

    def _apply_write(self, entry: str, args: tuple, timeout: int):
        span = self._sequencer_proc.span
        version = self.view.version + 1
        tried = 0
        while True:
            primary = self.view.primary
            obj = self._objects[primary]
            try:
                result = yield from retry(
                    lambda o=obj: getattr(o, entry)(*args, timeout=timeout),
                    self.retry_policy,
                    seed=self._next_seed(),
                )
                break
            except RemoteCallError:
                self.view.mark_down(primary, span=span)
                tried += 1
                if tried >= len(self.view.order):
                    raise
                promoted = yield from self._elect(span)
                if promoted is None:
                    raise
        if span is not None:
            # Phase tags for the trace analyzer: the child call span named
            # after the primary is the sequenced apply, every other child
            # is a forward (repro.obs.analyze classifies on these).
            span.attrs["primary"] = obj.alps_name
        self.view.mark_applied(primary, version)
        self.log.append(version, entry, args)
        self.view.commit(version)
        self.c_writes.inc()
        self.kernel.trace.record(
            self.kernel.clock.now, "replicate", self.name,
            entry=entry, version=version, primary=primary,
        )
        # Forward to every live backup *before* acknowledging: an acked
        # write then survives the loss of any one replica.
        forwards: list[str] = []
        for rname in self.view.live_backups():
            backup = self._objects[rname]
            forwards.append(backup.alps_name)
            try:
                yield from retry(
                    lambda b=backup: getattr(b, entry)(*args, timeout=timeout),
                    self.forward_policy,
                    seed=self._next_seed(),
                )
            except RemoteCallError:
                # Stale from here on; it catches up when it rejoins.
                self.view.mark_down(rname, span=span)
            else:
                self.view.mark_applied(rname, version)
        if span is not None and forwards:
            span.attrs["forwards"] = forwards
        return result

    def _elect(self, span=None):
        """Promote (and catch up) a new primary; None when none is live."""
        promoted = self.view.promote(span=span)
        if promoted is None:
            return None
        if self.view.lag(promoted):
            yield from self._catch_up(promoted)
        return promoted

    # ------------------------------------------------------------------
    # View monitor: verdicts -> membership, promotion, catch-up
    # ------------------------------------------------------------------

    def _view_monitor(self):
        obs = self.kernel.obs
        # Ping verdicts, and the view itself: a failed call marking a
        # replica down wakes us too, so a false suspicion is repaired (or
        # a real primary death promoted) without waiting for a ping
        # verdict to change.
        streams = [self.heartbeat.events, self.view.changes]
        if self.faults is not None:
            streams.append(self.faults.events)
        seen = [0] * len(streams)
        while True:
            yield Select(*[s.beyond(n) for s, n in zip(streams, seen)])
            seen = [s.count for s in streams]
            span = None
            if obs.enabled:
                # Parent on the probe that raised the latest verdict, so
                # the exported timeline reads detection → promotion →
                # catch-up as one connected tree.
                parent = None
                if self.heartbeat.transitions:
                    parent = getattr(
                        self.heartbeat.transitions[-1], "span_id", None
                    )
                span = obs.begin(
                    "replication", f"{self.name}.reconcile",
                    process=self._monitor_proc.name, parent=parent,
                )
                self._monitor_proc.span = span
            yield from self._reconcile(span)
            if span is not None:
                obs.end(span, primary=self.view.primary)
                self._monitor_proc.span = None

    def _reconcile(self, span=None):
        # 1. Self-restart (no Supervisor): bring crashed replicas back
        #    once their node is up; with a Supervisor, restarts are its
        #    job (and it re-queues interrupted calls as well).
        if self.supervisor is None and self.faults is not None:
            for rname, obj in self._objects.items():
                if not self.faults.node_up(self._nodes[rname].name):
                    continue
                if obj._crashed:
                    obj.restart()
                    self.c_restarts.inc()
                beacon = self._beacons.get(rname)
                if beacon is not None and beacon._crashed:
                    beacon.restart()
        # 2. Fold ping verdicts into the view; a returning replica is
        #    caught up (replay or snapshot) before it rejoins as backup.
        for rname in self.view.order:
            verdict = self.heartbeat.status.get(rname)
            if verdict == "down":
                self.view.mark_down(rname, span=span)
            elif verdict == "up" and not self.view.is_up(rname):
                try:
                    yield from self._catch_up(rname)
                except (RemoteCallError, ReplicationError):
                    continue  # still unreachable; retry on the next event
                self.view.mark_up(rname, span=span)
        # 3. Leadership: a dead primary cedes to the best live backup.
        if not self.view.is_up(self.view.primary):
            promoted = self.view.promote(span=span)
            if promoted is not None and self.view.lag(promoted):
                try:
                    yield from self._catch_up(promoted)
                except (RemoteCallError, ReplicationError):
                    pass  # the write path re-elects if it is really gone

    # ------------------------------------------------------------------
    # Catch-up: log replay, escalating to state transfer
    # ------------------------------------------------------------------

    def _catch_up(self, rname: str):
        """Bring ``rname`` to the acknowledged version (replay/snapshot).

        Raises :class:`~repro.errors.RemoteCallError` when the replica is
        unreachable and :class:`~repro.errors.ReplicationError` when no
        repair path exists; returns only once the replica holds every
        acknowledged write (checked atomically before returning, so the
        caller can mark it up without a race against new writes).
        """
        obj = self._objects[rname]
        snapshotted = False
        while True:
            missing = self.log.since(self.view.versions[rname])
            if missing is None:
                if snapshotted:
                    raise ReplicationError(
                        f"{self.name}: {rname} is behind the pruned log even "
                        f"after a snapshot"
                    )
                yield from self._snapshot_transfer(rname)
                snapshotted = True
                continue
            if not missing:
                return
            for version, entry, args in missing:
                yield from retry(
                    lambda o=obj, e=entry, a=args: getattr(o, e)(
                        *a, timeout=self.call_timeout
                    ),
                    self.forward_policy,
                    seed=self._next_seed(),
                )
                self.view.mark_applied(rname, version)
                self.c_catchup_writes.inc()

    def _snapshot_transfer(self, rname: str):
        """Full state copy from the best live donor (log replay impossible)."""
        donors = [
            n
            for n in self.view.live()
            if n != rname and self.view.versions[n] > self.view.versions[rname]
        ]
        if not donors:
            raise ReplicationError(
                f"{self.name}: no live donor for a state transfer to {rname}"
            )
        donor = max(
            donors, key=lambda n: (self.view.versions[n], -self.view.order.index(n))
        )
        donor_version = self.view.versions[donor]
        snapshot = self._objects[donor].state_snapshot()
        latency = self.net.latency_or_none(self._nodes[donor], self._nodes[rname])
        if latency is None:
            raise RemoteCallError(
                f"no route for state transfer {donor} -> {rname}", obj=self.name
            )
        cost = latency * self.snapshot_cost
        if cost:
            yield Delay(cost)
        self._objects[rname].state_restore(snapshot)
        self.view.mark_applied(rname, donor_version)
        self.c_snapshots.inc()
        self.kernel.trace.record(
            self.kernel.clock.now, "state_transfer", self.name,
            donor=donor, to=rname, version=donor_version,
        )
