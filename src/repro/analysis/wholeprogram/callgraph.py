"""Cross-object static call graph over ALPS programs.

The per-class linter sees one manager at a time; the failures the paper
calls hardest — inter-manager wait cycles — only appear when several
objects call each other.  This module builds a *whole-program* graph
whose nodes are manager processes, entry bodies, and plain driver
functions, and whose edges are the wait relations a call *would* create
at runtime:

* a call to an **intercepted** entry of ``B`` makes the caller wait on
  ``B.manager`` (accept/finish phases) and on the body (started phase);
* a call to an unmanaged entry waits on the body alone (and, through
  the hidden procedure array, on whoever holds the slots — body-to-body
  edges subsume pool exhaustion);
* a manager blocks on a body when it ``execute``\\ s the call inline or
  sits in a **non-receptive** await (an await sugar site or a ``Select``
  holding no accept guard).  A select that still holds accept guards
  keeps the manager receptive — the §2.3 asynchrony that makes nested
  calls safe — and contributes no manager edge.  Which calls are such
  sites is not decided here: ``ObjectInfo.sites`` (:mod:`..model`) is
  the one reading of a manager body, shared with the per-class checks.

Call sites are resolved to target classes by constructor/attribute
dataflow: ``self.backend = KVStore(kernel)``, constructor keywords
(``A(kernel, peer=b)`` — the default ``setup`` stores them as
attributes), post-construction wiring (``a.peer = b``), aliased locals
(``x = self.backend``), and elements of instance collections
(``self.shards[i]``).  Anything else — dict lookups, parameters, call
results — becomes an explicit **unknown-target edge**: visible in the
graph and the DOT export, silent in cycle prediction (an unknown edge
can never complete a cycle, but it is never silently dropped).

The graph is the substrate of :mod:`.cycles` (ALP120 prediction) and of
``python -m repro.analysis --whole-program --dot``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from ..model import Module, ObjectInfo, Site, entry_arg, final_name, self_attr


@dataclass(frozen=True)
class Node:
    """One vertex: a manager process, an entry body, or a plain function."""

    kind: str  # "manager" | "body" | "func"
    cls: str | None
    name: str

    @property
    def label(self) -> str:
        if self.kind == "manager":
            return f"{self.cls}.manager"
        if self.kind == "body":
            return f"{self.cls}.{self.name}"
        return self.name


class Edge:
    """One wait relation; ``dst is None`` marks an unknown-target edge."""

    __slots__ = ("src", "dst", "kind", "label", "path", "line", "obj", "entry")

    def __init__(
        self,
        src: Node,
        dst: Node | None,
        kind: str,
        label: str,
        path: str,
        line: int,
        obj: str | None = None,
        entry: str | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind  # call | body | execute | await | unknown
        self.label = label
        self.path = path
        self.line = line
        self.obj = obj
        self.entry = entry

    def describe(self) -> str:
        dst = self.dst.label if self.dst is not None else "?"
        return f"{self.src.label} --[{self.label}]--> {dst}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Edge {self.describe()}>"


class Program:
    """Every class, function, and inferred attribute type in a code set."""

    def __init__(self) -> None:
        self.classes: dict[str, ObjectInfo] = {}
        #: Class names defined more than once across modules — resolution
        #: through them would be a guess, so they resolve to unknown.
        self.ambiguous: set[str] = set()
        #: Module-level driver functions per module: (name, fn, path).
        self.functions: list[tuple[str, ast.FunctionDef, str]] = []
        #: (class, attr) → set of class names the attribute may hold.
        self.attr_types: dict[tuple[str, str], set[str]] = {}
        #: (class, attr) pairs that hold *collections* of instances.
        self.attr_colls: set[tuple[str, str]] = set()
        #: (class, kwarg) → classes passed at instantiation sites.
        self.kwarg_types: dict[tuple[str, str], set[str]] = {}

    def resolve_class(self, name: str) -> ObjectInfo | None:
        if name in self.ambiguous:
            return None
        return self.classes.get(name)


class CallGraph:
    """The assembled graph: nodes, edges, and deterministic ordering."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self._seen_nodes: set[Node] = set()
        self._seen_edges: set[tuple[Node, Node | None, str, int, str]] = set()

    def add_node(self, node: Node) -> Node:
        if node not in self._seen_nodes:
            self._seen_nodes.add(node)
            self.nodes.append(node)
        return node

    def add_edge(self, edge: Edge) -> None:
        key = (edge.src, edge.dst, edge.kind, edge.line, edge.label)
        if key in self._seen_edges:
            return
        self._seen_edges.add(key)
        self.add_node(edge.src)
        if edge.dst is not None:
            self.add_node(edge.dst)
        self.edges.append(edge)

    def resolved_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.dst is not None]

    def unknown_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.dst is None]

    def edges_from(self, node: Node) -> list[Edge]:
        return [e for e in self.edges if e.src == node]


# ---------------------------------------------------------------------------
# Program construction: class tables and attribute dataflow
# ---------------------------------------------------------------------------

#: A resolved value during dataflow: an instance set or a collection of
#: instances of the named classes.
_Value = tuple[str, frozenset[str]]  # ("inst" | "coll", class names)


def build_program(modules: Iterable[Module]) -> Program:
    """Assemble a :class:`Program` from loaded modules."""
    program = Program()
    modules = list(modules)
    for module in modules:
        for obj in module.objects:
            existing = program.classes.get(obj.name)
            if existing is not None and (
                existing.path != obj.path or existing.line != obj.line
            ):
                program.ambiguous.add(obj.name)
            program.classes[obj.name] = obj
        for stmt in module.tree.body:
            if isinstance(stmt, ast.FunctionDef):
                program.functions.append((stmt.name, stmt, module.path))
    # Two passes so constructor keywords resolved in the first pass can
    # type ``self.attr = param`` assignments seen in the second.
    for _ in range(2):
        for module in modules:
            _DataflowPass(program).scan(module.tree.body, {}, owner=None)
    return program


class _DataflowPass:
    """Order-sensitive scan filling ``attr_types``/``kwarg_types``."""

    def __init__(self, program: Program) -> None:
        self.program = program

    # -- value resolution --------------------------------------------------

    def resolve(
        self, node: ast.expr, env: dict[str, _Value], owner: str | None
    ) -> _Value | None:
        if isinstance(node, ast.Call):
            cls = self._instantiated_class(node)
            if cls is not None:
                self._record_ctor_kwargs(cls, node, env, owner)
                return ("inst", frozenset({cls}))
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if self_attr(node) is not None and owner is not None:
            key = (owner, node.attr)
            classes = self.program.attr_types.get(key)
            if classes:
                kind = "coll" if key in self.program.attr_colls else "inst"
                return (kind, frozenset(classes))
            return None
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value, env, owner)
            if base is not None and base[0] == "coll":
                return ("inst", base[1])
            return None
        if isinstance(node, (ast.List, ast.Tuple)):
            classes: set[str] = set()
            for el in node.elts:
                r = self.resolve(el, env, owner)
                if r is not None:
                    classes |= r[1]
            return ("coll", frozenset(classes)) if classes else None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            r = self.resolve(node.elt, env, owner)
            if r is not None:
                return ("coll", r[1])
            return None
        return None

    def _instantiated_class(self, call: ast.Call) -> str | None:
        name = final_name(call)
        if name in self.program.ambiguous:
            return None
        return name if name in self.program.classes else None

    def _record_ctor_kwargs(
        self, cls: str, call: ast.Call, env: dict[str, _Value], owner: str | None
    ) -> None:
        # Constructor keywords reach the instance as attributes through the
        # default ``setup`` (which setattrs every config item) or an
        # explicit ``setup``/``__init__`` storing the parameter; both are
        # covered by recording kwarg→attr and kwarg→param types.
        for kw in call.keywords:
            if kw.arg is None:
                continue
            r = self.resolve(kw.value, env, owner)
            if r is None:
                continue
            kind, classes = r
            self.program.kwarg_types.setdefault((cls, kw.arg), set()).update(classes)
            self.program.attr_types.setdefault((cls, kw.arg), set()).update(classes)
            if kind == "coll":
                self.program.attr_colls.add((cls, kw.arg))

    # -- statement scan ----------------------------------------------------

    def scan(
        self,
        stmts: Iterable[ast.stmt],
        env: dict[str, _Value],
        owner: str | None,
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, env, owner)

    def _scan_stmt(
        self, stmt: ast.stmt, env: dict[str, _Value], owner: str | None
    ) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = self.resolve(stmt.value, env, owner)
            if isinstance(target, ast.Name):
                if value is not None:
                    env[target.id] = value
                else:
                    env.pop(target.id, None)
            elif isinstance(target, ast.Attribute):
                self._record_attr_store(target, value, env, owner)
            return
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    self._scan_method(stmt.name, sub, env)
            return
        if isinstance(stmt, ast.FunctionDef):
            # Nested/driver function: closures see the enclosing bindings.
            self.scan(stmt.body, dict(env), owner)
            return
        # Compound statements: walk their bodies in order; expressions
        # (bare calls) still need kwarg recording for instantiations.
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.stmt):
                self._scan_stmt(value, env, owner)
            elif isinstance(value, ast.expr):
                for call in ast.walk(value):
                    if isinstance(call, ast.Call):
                        cls = self._instantiated_class(call)
                        if cls is not None:
                            self._record_ctor_kwargs(cls, call, env, owner)

    def _scan_method(
        self, cls: str, fn: ast.FunctionDef, outer_env: dict[str, _Value]
    ) -> None:
        args = fn.args
        is_method = bool(args.args) and args.args[0].arg == "self"
        env = dict(outer_env)
        if is_method and fn.name in ("setup", "__init__"):
            # Constructor parameters carry the types seen at call sites.
            for arg in args.args[1:]:
                classes = self.program.kwarg_types.get((cls, arg.arg))
                if classes:
                    env[arg.arg] = ("inst", frozenset(classes))
        self.scan(fn.body, env, cls if is_method else None)

    def _record_attr_store(
        self,
        target: ast.Attribute,
        value: _Value | None,
        env: dict[str, _Value],
        owner: str | None,
    ) -> None:
        if value is None:
            return
        kind, classes = value
        owners: set[str] = set()
        if self_attr(target) is not None and owner is not None:
            owners.add(owner)
        elif isinstance(target.value, ast.Name):
            bound = env.get(target.value.id)
            if bound is not None and bound[0] == "inst":
                owners |= bound[1]
        for owner_cls in owners:
            key = (owner_cls, target.attr)
            self.program.attr_types.setdefault(key, set()).update(classes)
            if kind == "coll":
                self.program.attr_colls.add(key)


# ---------------------------------------------------------------------------
# Call-site extraction
# ---------------------------------------------------------------------------


def build_call_graph(program: Program) -> CallGraph:
    """Extract every call site into wait edges, one context at a time."""
    graph = CallGraph(program)
    for cls_name in sorted(program.classes):
        obj = program.classes[cls_name]
        if obj.manager is not None:
            ctx = Node("manager", cls_name, "manager")
            graph.add_node(ctx)
            _ContextWalker(program, graph, obj, ctx).walk(obj.manager.fn)
        for entry_name, info in sorted(obj.entries.items()):
            ctx = Node("body", cls_name, entry_name)
            graph.add_node(ctx)
            _ContextWalker(program, graph, obj, ctx).walk(info.fn)
    for name, fn, path in program.functions:
        ctx = Node("func", None, name)
        walker = _ContextWalker(program, graph, None, ctx, path=path)
        walker.walk(fn)
    return graph


def _yielded_calls(fn: ast.FunctionDef) -> set[int]:
    return {
        id(y.value)
        for y in ast.walk(fn)
        if isinstance(y, (ast.Yield, ast.YieldFrom))
        and isinstance(y.value, ast.Call)
    }


class _ContextWalker:
    """Collects the wait edges created by one context's call sites.

    A context is a manager body, an entry body, or a plain driver
    function.  Plain ``self`` helper methods are inlined into the calling
    context (their call sites block whoever runs them); nested function
    definitions are traversed in-context (closures run on the caller's
    process).
    """

    def __init__(
        self,
        program: Program,
        graph: CallGraph,
        obj: ObjectInfo | None,
        ctx: Node,
        path: str | None = None,
    ) -> None:
        self.program = program
        self.graph = graph
        self.obj = obj
        self.ctx = ctx
        self.path = path if path is not None else (obj.path if obj else "<source>")
        self.env: dict[str, _Value] = {}
        self._flow = _DataflowPass(program)
        self._inlined: set[str] = set()
        #: A manager's primitive sites by call node — the one reading of
        #: its body (``ObjectInfo.sites``), consulted where the traversal
        #: passes each call so edge order follows the source.
        self._sites: dict[int, Site] = {}
        if ctx.kind == "manager":
            assert obj is not None
            self._sites = {id(site.node): site for site in obj.sites}

    # -- traversal ---------------------------------------------------------

    def walk(self, fn: ast.FunctionDef) -> None:
        self._yielded = _yielded_calls(fn)
        self._walk_stmts(fn.body)

    def _walk_stmts(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)) and value.value is not None:
                value = value.value
            if isinstance(target, ast.Name):
                bound = self._flow.resolve(value, self.env, self._owner())
                if bound is not None:
                    self.env[target.id] = bound
                else:
                    self.env.pop(target.id, None)
        if isinstance(stmt, ast.FunctionDef):
            # Closure bodies (clients built inside drivers) run on the
            # surrounding process: same context, inherited aliases.
            saved = dict(self.env)
            self._yielded |= _yielded_calls(stmt)
            self._walk_stmts(stmt.body)
            self.env = saved
            return
        if isinstance(stmt, ast.ClassDef):
            return  # nested classes are separate contexts, handled globally
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child)
            else:
                self._walk_expr(child)

    def _walk_expr(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._classify_call(sub)

    def _owner(self) -> str | None:
        return self.obj.name if self.obj is not None else None

    # -- call classification -----------------------------------------------

    def _classify_call(self, node: ast.Call) -> None:
        site = self._sites.get(id(node))
        if site is not None:
            self._manager_blocks(site)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        name, recv = func.attr, func.value
        if self_attr(func) is not None and self.obj is not None:
            self._self_site(name, node)
            return

        resolved = self._flow.resolve(recv, self.env, self._owner())
        if resolved is not None:
            classes = sorted(resolved[1])
            hit = False
            for cls_name in classes:
                target = self.program.resolve_class(cls_name)
                if target is not None and name in target.entries:
                    self._entry_call_edges(target, name, node)
                    hit = True
            if hit:
                return
            if resolved[1]:
                return  # known receiver, ordinary method: not an entry call
        if id(node) in self._yielded and site is None:
            # A yielded call on an unresolvable receiver could be an entry
            # call to anything: record it rather than staying silent.  (A
            # primitive spelled through its module, ``core.await_call``,
            # is a site, not a call.)
            self.graph.add_edge(
                Edge(
                    self.ctx,
                    None,
                    "unknown",
                    f"call ?.{name} (unresolved target "
                    f"{ast.unparse(recv)!r})",
                    self.path,
                    node.lineno,
                    entry=name,
                )
            )

    def _self_site(self, name: str, node: ast.Call) -> None:
        obj = self.obj
        assert obj is not None
        if name == "call" and node.args:
            entry = entry_arg(node)
            if entry in obj.entries:
                self._entry_call_edges(obj, entry, node, internal=True)
            return
        if name in obj.entries:
            # ``self.deposit(...)``: the bound entry builds an EntryCall.
            self._entry_call_edges(obj, name, node, internal=True)
            return
        method = obj.methods.get(name)
        if method is not None and name not in self._inlined:
            # Plain helper: its call sites block this context.
            self._inlined.add(name)
            saved = dict(self.env)
            self.env = {}
            self._yielded |= _yielded_calls(method)
            self._walk_stmts(method.body)
            self.env = saved

    def _manager_blocks(self, site: Site) -> None:
        """Edges from the manager to the bodies it parks on at *site* (§2.3).

        An inline ``execute`` blocks until the body completes — on every
        intercepted entry, because a site's candidate set is what the
        variable was *last* bound from: enough to silence an arity check,
        not enough to rule out an edge.  A blocking point whose arms are
        all awaits (the await sugar, a ``Select`` holding no accept
        guard) is not receptive while it waits; one that still holds an
        accept guard is, and contributes nothing.
        """
        obj = self.obj
        assert obj is not None
        if site.kind == "execute":
            kind, entries, label = "execute", obj.intercepted(), "executes {} inline"
        elif site.arms and all(arm.kind == "await" for arm in site.arms):
            kind, entries, label = "await", site.entries, "awaits {} (non-receptive)"
        else:
            return
        for entry in sorted(entries):
            if entry in obj.entries:
                self.graph.add_edge(
                    Edge(
                        self.ctx,
                        Node("body", obj.name, entry),
                        kind,
                        label.format(f"{obj.name}.{entry}"),
                        self.path,
                        site.node.lineno,
                        obj=obj.name,
                        entry=entry,
                    )
                )

    def _entry_call_edges(
        self,
        target: ObjectInfo,
        entry: str,
        node: ast.Call,
        internal: bool = False,
    ) -> None:
        if entry in target.intercepted():
            manager_node = Node("manager", target.name, "manager")
            if not (internal and self.ctx == manager_node):
                # Manager self-loops are the per-class ALP111 finding.
                self.graph.add_edge(
                    Edge(
                        self.ctx,
                        manager_node,
                        "call",
                        f"call {target.name}.{entry} (awaiting accept)",
                        self.path,
                        node.lineno,
                        obj=target.name,
                        entry=entry,
                    )
                )
        self.graph.add_edge(
            Edge(
                self.ctx,
                Node("body", target.name, entry),
                "body",
                f"call {target.name}.{entry} (body running)",
                self.path,
                node.lineno,
                obj=target.name,
                entry=entry,
            )
        )
