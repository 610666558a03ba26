"""The ALPS object model (§2.2): ``AlpsObject`` and its metaclass.

An object class collects:

* entry procedures (``@entry``) and local procedures (``@local``) — the
  implementation part; the definition part is derived
  (:meth:`AlpsObject.definition`);
* an optional manager (``@manager_process``);
* initialization code — the ``setup()`` hook, "implicitly executed when
  the object is created", before the manager starts;
* shared data — ordinary instance attributes, shared by all procedure
  bodies and the manager (they run in one address space, §3).

Instances are bound to a kernel at creation::

    buffer = BoundedBuffer(kernel, name="buf", size=10)

and callers invoke entries with ``yield buffer.deposit(msg)``.

The present version of ALPS gives each object "a single instance" per
declaration; like the paper's anticipated extension, instantiating the
class several times simply creates several independent objects.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ObjectModelError
from ..kernel.process import Process
from .calls import Call
from .entry import EntrySpec, ObjectDefinition
from .manager import ManagerSpec
from .pool import DYNAMIC, PoolConfig, ServerPool
from .primitives import EntryCall, accept, await_call, execute_call
from .runtime import EntryRuntime

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel


class BoundEntry:
    """``obj.deposit`` — calling it builds the :class:`EntryCall` syscall."""

    __slots__ = ("obj", "name")

    def __init__(self, obj: "AlpsObject", name: str) -> None:
        self.obj = obj
        self.name = name

    def __call__(
        self,
        *args: Any,
        timeout: int | None = None,
        deadline: int | None = None,
    ) -> EntryCall:
        return EntryCall(self.obj, self.name, args, timeout=timeout, deadline=deadline)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<entry {self.obj.alps_name}.{self.name}>"


class _EntryDescriptor:
    """Class attribute standing in for an entry; binds on access."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        return BoundEntry(obj, self.name)


class AlpsObjectMeta(type):
    """Collects entry/local/manager declarations from the class body."""

    def __new__(mcls, name: str, bases: tuple, namespace: dict) -> type:
        entries: dict[str, EntrySpec] = {}
        manager: ManagerSpec | None = None
        # Inherit declarations (copied so subclass intercepts don't leak).
        for base in bases:
            base_entries = getattr(base, "__alps_entries__", None)
            if base_entries:
                entries.update(base_entries)
            base_manager = getattr(base, "__alps_manager__", None)
            if base_manager is not None:
                manager = base_manager

        for key, value in list(namespace.items()):
            if isinstance(value, EntrySpec):
                if value.name != key:
                    raise ObjectModelError(
                        f"{name}.{key}: entry declared under a different "
                        f"name ({value.name})"
                    )
                entries[key] = value
                namespace[key] = _EntryDescriptor(key)
            elif isinstance(value, ManagerSpec):
                if manager is not None and manager in namespace.values():
                    raise ObjectModelError(f"{name}: more than one manager")
                manager = value
                namespace[key] = value  # kept for introspection

        # Per-class copies so assigning intercepts cannot mutate a parent.
        entries = {k: copy.copy(v) for k, v in entries.items()}
        for spec in entries.values():
            spec.intercept = None
        if manager is not None:
            manager.validate(entries, owner=name)
            for proc_name, intercept in manager.intercepts.items():
                entries[proc_name].intercept = intercept
        else:
            for spec in entries.values():
                if spec.hidden_params or spec.hidden_results:
                    raise ObjectModelError(
                        f"{name}.{spec.name}: hidden parameters/results "
                        f"require a manager (§2.8)"
                    )

        cls = super().__new__(mcls, name, bases, namespace)
        cls.__alps_entries__ = entries
        cls.__alps_manager__ = manager
        return cls


class AlpsObject(metaclass=AlpsObjectMeta):
    """Base class for ALPS objects.

    Parameters
    ----------
    kernel:
        The kernel this object (and its manager) runs on.
    name:
        Instance name for traces and diagnostics.
    pool:
        Server-process strategy (§3): a :class:`~repro.core.pool.PoolConfig`;
        defaults to dynamic creation.
    manager_priority:
        Override the manager's priority (benchmark E7 lowers it to show
        why the paper wants it high).
    record_calls:
        Keep completed :class:`~repro.core.calls.Call` records for metrics.
    **config:
        Forwarded to :meth:`setup` — the object's initialization code.
    """

    __alps_entries__: dict[str, EntrySpec] = {}
    __alps_manager__: ManagerSpec | None = None

    def __init__(
        self,
        kernel: "Kernel",
        *,
        name: str | None = None,
        pool: PoolConfig | None = None,
        manager_priority: int | None = None,
        record_calls: bool = False,
        **config: Any,
    ) -> None:
        self.kernel = kernel
        self.alps_name = name or type(self).__name__
        # Registered so the wait-for graph can scan hidden procedure
        # arrays for exhaustion.
        kernel._alps_objects.append(self)
        #: Set by the network layer when the object is placed on a node.
        self.node = None
        #: Set by :meth:`crash`, cleared by :meth:`restart`.
        self._crashed = False
        self._manager_priority = manager_priority
        # Initialization code runs first (§2.3: "its initialization code
        # is first executed and then its manager process is implicitly
        # created and started").
        self.setup(**config)

        slots_total = sum(
            spec.resolve_array(self) for spec in self.__alps_entries__.values()
        )
        self._pool = ServerPool(
            kernel, self.alps_name, pool or DYNAMIC, slots=slots_total
        )
        self._runtimes: dict[str, EntryRuntime] = {}
        for entry_name, spec in self.__alps_entries__.items():
            runtime = EntryRuntime(self, spec, kernel, self._pool)
            runtime.record_calls = record_calls
            self._runtimes[entry_name] = runtime

        self.manager_process: Process | None = None
        self._spawn_manager()

    # -- initialization hook ----------------------------------------------

    def setup(self, **config: Any) -> None:
        """The object's initialization code (override in subclasses).

        The default accepts keyword configuration and stores each item as
        an attribute, so simple objects need no boilerplate.
        """
        for key, value in config.items():
            setattr(self, key, value)

    def _spawn_manager(self) -> None:
        manager = self.__alps_manager__
        if manager is None:
            return
        priority = (
            self._manager_priority
            if self._manager_priority is not None
            else manager.priority
        )
        self.manager_process = self.kernel.spawn(
            manager.fn,
            self,
            name=f"{self.alps_name}.manager",
            priority=priority,
            daemon=True,
        )
        # Keep the manager attributed to the object's home node so a node
        # crash takes it down (place() sets this for objects placed later).
        self.manager_process.node = self.node

    def crash(self) -> list[Call]:
        """Take the object down; the inverse of :meth:`restart`.

        Kills the manager and every running body, forgets all in-flight
        calls and returns them, each once: entry by entry the hidden
        array's elements and then its overflow queue, then the pool
        backlog.  The calls keep the state the crash caught them in;
        settling their callers (or re-queueing them) is up to whoever
        crashed the object.
        """
        self._crashed = True
        kill = self.kernel.kill_process
        if self.manager_process is not None:
            kill(self.manager_process)
        for call in self._pool.active:
            kill(call.body_process)
        held: list[Call] = []
        for runtime in self._runtimes.values():
            held += [call for call in runtime.slots if call is not None]
            held += runtime.waiting
            runtime.reset()
        held += self._pool.queued_calls()
        self._pool.reset()
        return list(dict.fromkeys(held))

    def restart(self) -> None:
        """Recover a crashed object: reset call state, respawn the manager.

        Every in-flight call is forgotten (the fault injector hands the
        interrupted ones to a :class:`~repro.stdlib.Supervisor`, which may
        re-queue them); shared data — ordinary instance attributes — is
        preserved, modelling stable storage surviving the crash.
        """
        for runtime in self._runtimes.values():
            runtime.reset()
        self._pool.reset()
        self._crashed = False
        if self.manager_process is None or not self.manager_process.alive:
            self._spawn_manager()

    # -- shared-data transfer (used by repro.replication) -------------------

    #: Infrastructure attributes excluded from :meth:`state_snapshot`.
    _SNAPSHOT_SKIP = frozenset({"kernel", "node", "manager_process", "alps_name"})

    def state_snapshot(self) -> dict:
        """Deep-copy the object's shared data for transfer to a peer.

        Shared data is every public instance attribute — the same state
        :meth:`restart` preserves across a crash (the stable-storage
        model).  Kernel plumbing (kernel, node, manager, runtimes, pool)
        and the instance name are excluded, so a snapshot taken from one
        replica can be installed into another instance of the same class
        with :meth:`state_restore`.  Attribute values must be
        deep-copyable.
        """
        return copy.deepcopy(
            {
                key: value
                for key, value in self.__dict__.items()
                if not key.startswith("_") and key not in self._SNAPSHOT_SKIP
            }
        )

    def state_restore(self, snapshot: dict) -> None:
        """Install a :meth:`state_snapshot` taken from a peer replica."""
        for key, value in copy.deepcopy(snapshot).items():
            setattr(self, key, value)

    def exported_entries(self) -> list[str]:
        """Names of the entries callable from outside (proxy surface)."""
        return [
            name for name, spec in self.__alps_entries__.items() if spec.exported
        ]

    # -- plumbing used by primitives ---------------------------------------

    def _entry_runtime(self, proc_name: str) -> EntryRuntime:
        runtime = self._runtimes.get(proc_name)
        if runtime is None:
            raise ObjectModelError(
                f"{self.alps_name} has no procedure {proc_name!r} "
                f"(has: {sorted(self._runtimes)})"
            )
        return runtime

    # -- manager-side conveniences ------------------------------------------

    def pending(self, proc_name: str) -> int:
        """The paper's ``#P`` notation: number of pending calls (§2.5.1)."""
        return self._entry_runtime(proc_name).pending_count()

    def accept(self, proc_name: str, slot: int | None = None, when: Callable[..., bool] | None = None):
        """Blocking ``accept`` (sugar for a one-guard select)."""
        return accept(self, proc_name, slot=slot, when=when)

    def await_(self, proc_name: str, slot: int | None = None, when: Callable[..., bool] | None = None, call=None):
        """Blocking ``await`` (sugar for a one-guard select)."""
        return await_call(self, proc_name, slot=slot, when=when, call=call)

    def execute(self, call, *hidden: Any):
        """Packaged ``execute`` (§2.3); use as ``yield from self.execute(c)``."""
        return execute_call(call, *hidden)

    def call(
        self, proc_name: str, *args: Any, deadline: int | None = None
    ) -> EntryCall:
        """Invoke an entry or *local* procedure from inside the object."""
        return EntryCall(self, proc_name, args, from_inside=True, deadline=deadline)

    # -- introspection ---------------------------------------------------------

    def definition(self) -> ObjectDefinition:
        """The definition part (§2.2): exported procedures only."""
        exported = [
            name for name, spec in self.__alps_entries__.items() if spec.exported
        ]
        return ObjectDefinition(
            name=self.alps_name,
            procedures=tuple(exported),
            signatures={
                name: self.__alps_entries__[name].signature() for name in exported
            },
        )

    @property
    def pool(self) -> ServerPool:
        return self._pool

    def completed_calls(self, proc_name: str | None = None):
        """Completed call records (requires ``record_calls=True``)."""
        if proc_name is not None:
            return list(self._entry_runtime(proc_name).completed)
        out = []
        for runtime in self._runtimes.values():
            out.extend(runtime.completed)
        out.sort(key=lambda c: (c.finished_at, c.call_id))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AlpsObject {self.alps_name}>"
