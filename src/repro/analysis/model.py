"""Pure-AST model of ALPS programs: files, objects, manager sites.

The linter never imports the code it checks — examples spawn kernels at
module scope and fixtures are deliberately broken — so everything it
knows about an object comes from the syntax tree: ``@entry``/``@local``
decorators, the ``@manager_process(intercepts=...)`` clause and the
manager body.  Classes are discovered at any nesting depth (example
programs define objects inside functions).

Every consumer reads the same three things from here: a run's files,
each read, parsed and extracted once (:func:`load_paths`); an object's
declarations (:class:`ObjectInfo`); and its manager body as a list of
primitive *sites* (:attr:`ObjectInfo.sites`) — what the per-class
checks cover and what the call graph draws manager-blocking edges from.

The extraction is best-effort by design.  Anything it cannot resolve
syntactically — a computed intercepts mapping, an ``array=`` bound read
from configuration — is recorded as *unknown* and the checks that would
need it stay silent rather than guess.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable

#: Sentinel for values the AST cannot determine.
UNKNOWN = object()


def final_name(node: ast.expr) -> str | None:
    """Final identifier of a call, decorator or base class.

    ``entry``, ``core.entry`` and ``core.entry(...)`` are all ``entry``:
    how a name was imported never changes what it names.
    """
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def self_attr(node: ast.AST) -> str | None:
    """``self.x`` → ``"x"``; any other expression → None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def const_value(node: ast.expr | None, default: Any = UNKNOWN) -> Any:
    if node is None:
        return default
    if isinstance(node, ast.Constant):
        return node.value
    return UNKNOWN


@dataclass
class InterceptInfo:
    """Parsed ``icpt(params=, results=)`` value (or a bare procedure name)."""

    params: Any = 0  # int or UNKNOWN
    results: Any = 0
    line: int = 0


@dataclass
class EntryInfo:
    """One ``@entry``/``@local`` declaration as the AST shows it."""

    name: str
    line: int
    #: The body ``def`` node.
    fn: ast.FunctionDef
    exported: bool = True
    #: Formal parameter count of the def, minus ``self``.
    n_formals: int = 0
    returns: Any = 0  # int or UNKNOWN
    array: Any = None  # None (scalar), int, str (attribute bound) or UNKNOWN
    hidden_params: Any = 0
    hidden_results: Any = 0
    intercept: InterceptInfo | None = None
    #: Compatibility groups from ``compatible=`` (multiactive annotation);
    #: empty when undeclared, UNKNOWN when syntactically unresolvable.
    compatible: Any = ()

    @property
    def def_params(self) -> Any:
        """Definition-part parameter count (formals minus hidden, §2.8)."""
        if self.hidden_params is UNKNOWN:
            return UNKNOWN
        return self.n_formals - self.hidden_params

    @property
    def array_size(self) -> Any:
        """Statically known slot count: 1 for scalars, N for ``array=N``."""
        if self.array is None:
            return 1
        if isinstance(self.array, int):
            return self.array
        return UNKNOWN  # attribute-named or unparsable bound


@dataclass
class ManagerInfo:
    """The ``@manager_process`` declaration plus its body."""

    name: str
    line: int
    fn: ast.FunctionDef
    #: Parsed intercepts clause; None when it was not syntactically a
    #: list/tuple/set of names or a dict of names to icpt() calls.
    intercepts: dict[str, InterceptInfo] | None = None
    intercepts_line: int = 0


@dataclass
class ObjectInfo:
    """Everything the linter knows about one ALPS object class."""

    name: str
    line: int
    path: str = "<source>"
    entries: dict[str, EntryInfo] = field(default_factory=dict)
    manager: ManagerInfo | None = None
    #: Plain (undecorated) methods — ``setup``, helpers — by name; a
    #: context that calls one through ``self`` has it inlined.
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    def intercepted(self) -> dict[str, EntryInfo]:
        if self.manager is None or self.manager.intercepts is None:
            return {}
        return {
            name: self.entries[name]
            for name in self.manager.intercepts
            if name in self.entries
        }

    @cached_property
    def sites(self) -> list["Site"]:
        """The manager body's primitive sites, in source order."""
        walk = _SiteWalk(self)
        if self.manager is not None:
            walk.visit_all(self.manager.fn.body)
        return walk.sites


def _parse_intercept_value(node: ast.expr) -> InterceptInfo:
    """``icpt(1, results=2)`` / ``Intercept(params=1)`` → InterceptInfo."""
    info = InterceptInfo(line=node.lineno)
    if not (
        isinstance(node, ast.Call)
        and final_name(node) in ("icpt", "Intercept")
    ):
        info.params = info.results = UNKNOWN
        return info
    positional = [const_value(a) for a in node.args]
    if len(positional) >= 1:
        info.params = positional[0]
    if len(positional) >= 2:
        info.results = positional[1]
    for kw in node.keywords:
        if kw.arg == "params":
            info.params = const_value(kw.value)
        elif kw.arg == "results":
            info.results = const_value(kw.value)
    return info


def _parse_intercepts(node: ast.expr) -> dict[str, InterceptInfo] | None:
    """Parse the ``intercepts=`` argument of ``@manager_process``."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        out: dict[str, InterceptInfo] = {}
        for element in node.elts:
            name = const_value(element)
            if not isinstance(name, str):
                return None
            out[name] = InterceptInfo(line=element.lineno)
        return out
    if isinstance(node, ast.Dict):
        out = {}
        for key, value in zip(node.keys, node.values):
            name = const_value(key)
            if not isinstance(name, str):
                return None
            out[name] = _parse_intercept_value(value)
        return out
    return None


def _parse_entry(fn: ast.FunctionDef, deco: ast.expr, kind: str) -> EntryInfo:
    info = EntryInfo(
        name=fn.name,
        line=fn.lineno,
        fn=fn,
        exported=(kind == "entry"),
        n_formals=max(0, len(fn.args.args) - 1)
        + len(fn.args.posonlyargs),
    )
    if isinstance(deco, ast.Call):
        for kw in deco.keywords:
            if kw.arg == "returns":
                info.returns = const_value(kw.value)
            elif kw.arg == "array":
                value = const_value(kw.value)
                info.array = value if isinstance(value, (int, str)) else UNKNOWN
            elif kw.arg == "hidden_params":
                info.hidden_params = const_value(kw.value)
            elif kw.arg == "hidden_results":
                info.hidden_results = const_value(kw.value)
            elif kw.arg == "compatible":
                info.compatible = _parse_compatible(kw.value)
    return info


def _parse_compatible(node: ast.expr) -> Any:
    """``compatible="g"`` / ``compatible=("g", "h")`` → tuple of names."""
    value = const_value(node)
    if isinstance(value, str):
        return (value,)
    if isinstance(node, (ast.Tuple, ast.List)):
        names = [const_value(el) for el in node.elts]
        if all(isinstance(n, str) for n in names):
            return tuple(dict.fromkeys(names))
    return UNKNOWN


def _parse_manager(fn: ast.FunctionDef, deco: ast.expr) -> ManagerInfo:
    info = ManagerInfo(name=fn.name, line=fn.lineno, fn=fn)
    if isinstance(deco, ast.Call):
        for kw in deco.keywords:
            if kw.arg == "intercepts":
                info.intercepts = _parse_intercepts(kw.value)
                info.intercepts_line = kw.value.lineno
    return info


def extract_objects(tree: ast.Module, path: str = "<source>") -> list[ObjectInfo]:
    """All ALPS object classes in a module (any nesting depth).

    A class counts when it declares a ``@manager_process`` or at least
    one entry.  Only the managed ones are per-class lint targets (a
    managerless object has no protocol to get wrong), but unmanaged
    bodies take part in cross-object wait cycles through their hidden
    procedure arrays.  Single-module inheritance is resolved by
    base-class name so fixture hierarchies behave like the metaclass does.
    """
    by_name: dict[str, ObjectInfo] = {}
    objects: list[ObjectInfo] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ObjectInfo(name=node.name, line=node.lineno, path=path)
        # Same-module inheritance: start from the base's declarations.
        for base in node.bases:
            base_name = final_name(base)
            parent = by_name.get(base_name or "")
            if parent is not None:
                info.entries.update(parent.entries)
                info.methods.update(parent.methods)
                info.manager = parent.manager
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            handled = False
            for deco in stmt.decorator_list:
                kind = final_name(deco)
                if kind in ("entry", "local") and isinstance(
                    stmt, ast.FunctionDef
                ):
                    info.entries[stmt.name] = _parse_entry(stmt, deco, kind)
                    handled = True
                elif kind == "manager_process" and isinstance(
                    stmt, ast.FunctionDef
                ):
                    info.manager = _parse_manager(stmt, deco)
                    handled = True
            if not handled and isinstance(stmt, ast.FunctionDef):
                info.methods[stmt.name] = stmt
        by_name[node.name] = info
        if info.manager is not None:
            # Attach intercept info to the entries (mirrors the metaclass).
            for entry in info.entries.values():
                entry.intercept = None
            if info.manager.intercepts is not None:
                for name, icpt_info in info.manager.intercepts.items():
                    if name in info.entries:
                        info.entries[name].intercept = icpt_info
            objects.append(info)
        elif info.entries:
            objects.append(info)
    return objects


# -- the site model: what a manager body does, read once ----------------------

#: The one spelling table: final identifier → site kind.  Receivers are
#: not consulted, so ``self.accept(...)``, ``accept(self, ...)`` and
#: ``core.accept(self, ...)`` are three spellings of one primitive.
_KINDS = {
    "accept": "accept",
    "AcceptGuard": "accept",
    "ShedGuard": "accept",
    "await_": "await",
    "await_call": "await",
    "AwaitGuard": "await",
    "Start": "start",
    "Finish": "finish",
    "execute": "execute",
    "execute_call": "execute",
    "Select": "select",
}
#: The accept/await forms that are not guard objects (arms for a
#: ``Select``) but sugar for a one-guard select that blocks where it stands.
_SUGAR = {"accept", "await_", "await_call"}


@dataclass(eq=False)
class Site:
    """One protocol operation in a manager body."""

    #: accept | await | start | finish | execute | select | pending | call
    #: (``call``: the manager invoking an entry of its own object).
    kind: str
    #: Candidate entries: the literal name at the site, what the call
    #: variable was bound from, or every intercepted entry.
    entries: frozenset[str]
    node: ast.Call
    #: False when ``entries`` is the "could be anything" fallback —
    #: coverage still counts, arity checks stay silent.
    exact: bool = True
    #: Extra positional arguments (hidden params for start/execute,
    #: results for finish); None when starred.
    arity: int | None = None
    #: The guards a blocking point waits on: a ``Select``'s accept/await
    #: arms, the site itself for the accept/await sugar, else nothing.
    arms: tuple["Site", ...] = ()


def entry_arg(node: ast.Call) -> str | None:
    """The entry-name argument of a site, if a literal.

    ``self.accept("x")`` puts the name first; ``AcceptGuard(self, "x")``
    and ``core.accept(self, "x")`` put it after the object.
    """
    args = node.args[:1] if self_attr(node.func) else node.args[1:2]
    value = const_value(args[0]) if args else None
    return value if isinstance(value, str) else None


class _SiteWalk:
    """Source-order walk of a manager body with the candidate-set environment.

    ``c = yield self.accept("x")`` binds ``c`` to ``{x}``; ``r = yield
    Select(...)`` binds ``r.value`` to the union of the arms' entries;
    anything else a ``Start``/``Finish``/``execute`` names means *every
    intercepted entry*, inexactly.  A plain ``self._helper()`` is inlined
    once, with an empty environment (its parameters are unknown).
    """

    def __init__(self, obj: ObjectInfo) -> None:
        self.obj = obj
        self.intercepted = frozenset(obj.intercepted())
        self.sites: list[Site] = []
        self.by_node: dict[int, Site] = {}
        #: Variable → ("call" | "select", candidate entries).
        self.env: dict[str, tuple[str, frozenset[str]]] = {}
        self.inlined: set[str] = set()

    def visit_all(self, nodes: Iterable[ast.AST]) -> None:
        for node in nodes:
            self.visit(node)

    def visit(self, node: ast.AST) -> None:
        self.visit_all(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            self.classify(node)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.bind(target.id, node.value)

    def bind(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Yield) and value.value is not None:
            value = value.value
        site = self.by_node.get(id(value))
        if site is not None and site.kind == "select":
            bound = ("select", site.entries)
        elif site is not None and site.arms:  # the sugar: yields the call
            bound = ("call", site.entries)
        else:
            bound = self.value_of(value)
        if bound is None:
            self.env.pop(name, None)
        else:
            self.env[name] = bound

    def value_of(self, node: ast.expr) -> tuple[str, frozenset[str]] | None:
        """What a name, or a select result's ``.value``, currently holds."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "value"
            and isinstance(node.value, ast.Name)
        ):
            kind, entries = self.env.get(node.value.id, ("", None))
            if kind == "select":
                return ("call", entries)
        return None

    def named(self, kind: str, node: ast.Call) -> Site:
        entry = entry_arg(node)
        if entry is None:
            return Site(kind, self.intercepted, node, exact=False)
        return Site(kind, frozenset({entry}), node)

    def classify(self, node: ast.Call) -> None:
        name = final_name(node)
        kind = _KINDS.get(name)
        via_self = self_attr(node.func) is not None
        if kind in ("accept", "await"):
            site = self.named(kind, node)
            if name in _SUGAR:
                site.arms = (site,)
        elif kind == "select":
            arms = tuple(
                arm
                for arg in node.args
                if (arm := self.by_node.get(id(arg))) is not None
                and arm.kind in ("accept", "await")
            )
            exact = bool(arms) and all(arm.exact for arm in arms)
            entries = frozenset().union(*(arm.entries for arm in arms))
            site = Site(
                kind, entries if exact else self.intercepted, node, exact, arms=arms
            )
        elif kind is not None:
            if not node.args:
                return
            bound = self.value_of(node.args[0])
            exact = bound is not None and bound[0] == "call"
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            site = Site(
                kind,
                bound[1] if exact else self.intercepted,
                node,
                exact,
                arity=None if starred else len(node.args) - 1,
            )
        elif via_self and name in ("pending", "call"):
            site = self.named(name, node)
        elif via_self and name in self.obj.entries:
            site = Site("call", frozenset({name}), node)
        else:
            if via_self and name in self.obj.methods and name not in self.inlined:
                # A plain helper runs on the manager's process: its sites
                # are the manager's, its parameters unknown.
                self.inlined.add(name)
                saved, self.env = self.env, {}
                self.visit_all(self.obj.methods[name].body)
                self.env = saved
            return
        self.sites.append(site)
        self.by_node[id(node)] = site


# -- the loader: every file of a run read, parsed and extracted once ----------


@dataclass
class Module:
    """One source file as every pass consumes it."""

    path: str
    tree: ast.Module
    objects: list[ObjectInfo]


def load_source(source: str, path: str = "<source>") -> Module:
    """Parse *source* and extract its objects; ``SyntaxError`` propagates.

    A name bound by ``from m import X as Y`` is read as ``X`` throughout
    the tree, so an alias never changes what a decorator, base class,
    primitive or constructor names to any pass.
    """
    tree = ast.parse(source, filename=path)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in aliases:
            node.id = aliases[node.id]
    return Module(path, tree, extract_objects(tree, path=path))


def load_paths(paths: Iterable[str | Path]) -> list[Module]:
    """Load the given files and every ``.py`` file under the given directories.

    A directory's files come in sorted path order; dot-directories and
    ``__pycache__`` are not entered.  A file that does not parse raises ``SyntaxError``
    carrying its filename (the CLI's exit 2).
    """
    modules: list[Module] = []
    for raw in paths:
        root = Path(raw)
        files = [root]
        if root.is_dir():
            files = []
            for dirpath, dirnames, names in os.walk(root):
                dirnames[:] = [
                    d for d in dirnames if not d.startswith(".") and d != "__pycache__"
                ]
                files += [Path(dirpath, n) for n in names if n.endswith(".py")]
            files.sort()
        for file in files:
            modules.append(load_source(file.read_text(encoding="utf-8"), str(file)))
    return modules
