"""Entry procedure declarations: the ``@entry`` and ``@local`` decorators.

An ALPS object is *defined* by the signatures of its entry procedures and
*implemented* by bodies that may differ in two hidden ways (§2.5, §2.8):

* the body may be a **hidden procedure array** ``P[1..N]`` even though the
  definition exports a single ``P`` — declare with ``@entry(array=N)``;
* the body may take **hidden parameters** and produce **hidden results**
  that only the manager sees — declare with ``hidden_params=k`` /
  ``hidden_results=m``; the hidden formals come after the regular ones,
  exactly as the paper requires.

The decorated method *is* the implementation body; the definition part
(name, parameter count, result count) is derived from the declaration, so
the definition/implementation split of §2.2 is preserved: callers can see
only the exported signature (``ObjectDefinition`` below).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ObjectModelError


@dataclass(frozen=True)
class Intercept:
    """How the manager intercepts a procedure (§2.6 intercepts clause).

    ``params``/``results`` are the lengths of the *initial subsequences*
    of the parameter and result lists that the manager receives at
    ``accept`` and ``await`` respectively (both default to 0: the manager
    learns of the call but values flow directly between caller and body).
    """

    params: int = 0
    results: int = 0


#: Convenience constructor mirroring the paper's ``intercepts P(params; results)``.
def icpt(params: int = 0, results: int = 0) -> Intercept:
    return Intercept(params=params, results=results)


def _normalize_compatible(
    name: str, compatible: str | tuple[str, ...] | list[str] | None
) -> tuple[str, ...]:
    """Validate a ``compatible=`` annotation into a tuple of group names."""
    if compatible is None:
        return ()
    if isinstance(compatible, str):
        compatible = (compatible,)
    if not isinstance(compatible, (tuple, list)) or not all(
        isinstance(g, str) and g for g in compatible
    ):
        raise ObjectModelError(
            f"entry {name!r}: compatible= must be a group name or a "
            f"tuple of group names, got {compatible!r}"
        )
    return tuple(dict.fromkeys(compatible))


class EntrySpec:
    """Static description of one entry (or local) procedure."""

    def __init__(
        self,
        fn: Callable[..., Any],
        returns: int = 0,
        array: int | str | None = None,
        hidden_params: int = 0,
        hidden_results: int = 0,
        exported: bool = True,
        work: int = 0,
        compatible: str | tuple[str, ...] | list[str] | None = None,
    ) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.returns = returns
        #: Array declaration: int size, or the name of an instance
        #: attribute/class constant resolved at object creation.
        self.array = array
        self.hidden_params = hidden_params
        self.hidden_results = hidden_results
        #: Compatibility groups (multiactive-manager annotation surface):
        #: entries sharing a group name declare that their bodies may run
        #: truly concurrently under a future multiactive manager.  Purely
        #: declarative today — no scheduling change — but the whole-program
        #: interference checker (ALP121) statically verifies that entries
        #: declared compatible touch disjoint object attributes.
        self.compatible: tuple[str, ...] = _normalize_compatible(fn.__name__, compatible)
        #: Local procedures (§2.3 "intercept even local procedures") are
        #: not callable from outside the object.
        self.exported = exported
        #: Optional fixed service time (ticks) charged around the body —
        #: convenient for benchmarks that only need a duration.
        self.work = work
        #: Filled in when the owning class's manager declares interception.
        self.intercept: Intercept | None = None

        params = [
            p
            for p in inspect.signature(fn).parameters.values()
            if p.name != "self"
        ]
        for p in params:
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                raise ObjectModelError(
                    f"entry {self.name!r}: *args/**kwargs are not allowed; "
                    f"ALPS entries have fixed signatures"
                )
        total = len(params)
        if hidden_params > total:
            raise ObjectModelError(
                f"entry {self.name!r}: hidden_params={hidden_params} exceeds "
                f"the body's {total} formals"
            )
        #: Number of *definition* (caller-visible) parameters.
        self.params = total - hidden_params
        self.param_names = tuple(p.name for p in params)
        if returns < 0 or hidden_params < 0 or hidden_results < 0:
            raise ObjectModelError(f"entry {self.name!r}: negative counts")

    @property
    def total_results(self) -> int:
        return self.returns + self.hidden_results

    @property
    def intercepted(self) -> bool:
        return self.intercept is not None

    def resolve_array(self, obj: Any) -> int:
        """Resolve the array declaration to a concrete size for ``obj``."""
        if self.array is None:
            return 1
        if isinstance(self.array, int):
            size = self.array
        else:
            size = getattr(obj, self.array, None)
            if size is None:
                raise ObjectModelError(
                    f"entry {self.name!r}: array size attribute "
                    f"{self.array!r} not found on {type(obj).__name__}"
                )
        if not isinstance(size, int) or size < 1:
            raise ObjectModelError(
                f"entry {self.name!r}: array size must be a positive int, "
                f"got {size!r}"
            )
        return size

    def normalize_results(self, raw: Any) -> tuple:
        """Coerce a body's return value into the declared result tuple."""
        expected = self.total_results
        if expected == 0:
            if raw is not None:
                raise ObjectModelError(
                    f"entry {self.name!r} declares no results but returned {raw!r}"
                )
            return ()
        if expected == 1:
            return (raw,)
        if not isinstance(raw, tuple) or len(raw) != expected:
            raise ObjectModelError(
                f"entry {self.name!r} must return a tuple of {expected} "
                f"values (returns={self.returns} + hidden_results="
                f"{self.hidden_results}), got {raw!r}"
            )
        return raw

    def signature(self) -> str:
        """The exported (definition-part) signature, paper style."""
        visible = self.param_names[: self.params]
        sig = f"proc {self.name}({', '.join(visible)})"
        if self.returns:
            sig += f" returns({self.returns})"
        return sig

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EntrySpec {self.signature()}>"


def _declarator(name: str, exported: bool, doc: str) -> Callable[..., Any]:
    """Build ``@entry`` or ``@local``: they differ in ``exported`` only."""

    def declare(
        fn: Callable[..., Any] | None = None,
        *,
        returns: int = 0,
        array: int | str | None = None,
        hidden_params: int = 0,
        hidden_results: int = 0,
        work: int = 0,
        compatible: str | tuple[str, ...] | list[str] | None = None,
    ) -> Any:
        def wrap(f: Callable[..., Any]) -> EntrySpec:
            return EntrySpec(
                f,
                returns=returns,
                array=array,
                hidden_params=hidden_params,
                hidden_results=hidden_results,
                exported=exported,
                work=work,
                compatible=compatible,
            )

        return wrap(fn) if fn is not None else wrap

    declare.__name__ = declare.__qualname__ = name
    declare.__doc__ = doc
    return declare


entry = _declarator(
    "entry", True, "Declare an exported entry procedure (usable bare or with arguments)."
)
local = _declarator(
    "local", False, "Declare a local procedure (interceptable but not exported, §2.3)."
)


@dataclass(frozen=True)
class ObjectDefinition:
    """The definition part of an object (§2.2): what users may see."""

    name: str
    procedures: tuple[str, ...]
    signatures: dict[str, str] = field(default_factory=dict)

    def __contains__(self, proc: str) -> bool:
        return proc in self.procedures

    def describe(self) -> str:
        lines = [f"object {self.name} defines"]
        for proc in self.procedures:
            lines.append(f"  {self.signatures[proc]};")
        lines.append(f"end {self.name}")
        return "\n".join(lines)
