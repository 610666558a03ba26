"""Tree-walking interpreter for ALPS procedure and manager bodies.

Statements execute as generator code yielding kernel syscalls, so an
interpreted ALPS procedure is a first-class lightweight process exactly
like a hand-written one.  Expressions are pure (no blocking): calls in
expression position are restricted to builtins; entry calls appear as
statements or as the right-hand side of an assignment.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

from ..channels.channel import Channel, Receive, ReceiveGuard, Send, unwrap_message
from ..core.object_model import AlpsObject, BoundEntry
from ..core.primitives import (
    AcceptGuard,
    AwaitGuard,
    Finish,
    Start,
    WhenGuard,
    execute_call,
)
from ..errors import AlpsError
from ..kernel.syscalls import Charge, Select
from . import ast


class LangRuntimeError(AlpsError):
    """Semantic error while executing interpreted ALPS code."""


class _Return(Exception):
    """Signals a ``return`` out of a procedure body."""

    def __init__(self, values: tuple) -> None:
        super().__init__("return")
        self.values = values


#: Builtin functions callable in expression position.
BUILTINS: dict[str, Any] = {
    "array": lambda n: [None] * int(n),
    "chan": lambda *a: Channel(),
    "len": len,
    "abs": abs,
    "min": min,
    "max": max,
    "str": str,
    "int": int,
    "ord": ord,
    "chr": chr,
}


class Env:
    """Lexical environment: locals over object attributes over module
    instances over builtins."""

    __slots__ = ("locals", "obj", "module")

    def __init__(self, obj: AlpsObject, module: "Any", locals_: dict | None = None) -> None:
        self.locals = locals_ if locals_ is not None else {}
        self.obj = obj
        self.module = module

    def child(self, locals_: dict) -> "Env":
        merged = dict(self.locals)
        merged.update(locals_)
        return Env(self.obj, self.module, merged)

    def lookup(self, name: str) -> Any:
        if name in self.locals:
            return self.locals[name]
        if self.obj is not None and hasattr(self.obj, name):
            return getattr(self.obj, name)
        if self.module is not None and name in self.module.instances:
            return self.module.instances[name]
        if name in BUILTINS:
            return BUILTINS[name]
        raise LangRuntimeError(f"undefined name {name!r}")

    def assign(self, name: str, value: Any) -> None:
        if name in self.locals:
            self.locals[name] = value
            return
        if self.obj is not None and hasattr(self.obj, name):
            setattr(self.obj, name, value)
            return
        self.locals[name] = value


# ----------------------------------------------------------------------
# Expression evaluation (pure)
# ----------------------------------------------------------------------


def eval_expr(env: Env, node: Any) -> Any:
    if isinstance(node, ast.Num):
        return node.value
    if isinstance(node, ast.Str):
        return node.value
    if isinstance(node, ast.Bool):
        return node.value
    if isinstance(node, ast.Nil):
        return None
    if isinstance(node, ast.Var):
        return env.lookup(node.name)
    if isinstance(node, ast.Index):
        return eval_expr(env, node.base)[eval_expr(env, node.index)]
    if isinstance(node, ast.Field):
        return getattr(eval_expr(env, node.base), node.name)
    if isinstance(node, ast.Pending):
        return env.obj.pending(_runtime_proc_name(env.obj, node.proc))
    if isinstance(node, ast.Unary):
        value = eval_expr(env, node.operand)
        return (not value) if node.op == "not" else -value
    if isinstance(node, ast.Binary):
        return _binary(env, node)
    if isinstance(node, ast.CallExpr):
        if node.target is None and node.name in BUILTINS:
            args = [eval_expr(env, a) for a in node.args]
            return BUILTINS[node.name](*args)
        raise LangRuntimeError(
            f"call to {node.name!r} is not allowed in expression position "
            f"(entry calls must be statements or assignment right-hand sides)"
        )
    raise LangRuntimeError(f"cannot evaluate {node!r}")


def _binary(env: Env, node: ast.Binary) -> Any:
    op = node.op
    if op == "and":
        return bool(eval_expr(env, node.left)) and bool(eval_expr(env, node.right))
    if op == "or":
        return bool(eval_expr(env, node.left)) or bool(eval_expr(env, node.right))
    return ast.BINARY[op][1](eval_expr(env, node.left), eval_expr(env, node.right))


def _runtime_proc_name(obj: AlpsObject, source_name: str) -> str:
    """ALPS source is case-insensitive on keywords but we match procedure
    names case-sensitively first, then case-insensitively."""
    if source_name in obj._runtimes:
        return source_name
    lowered = source_name.lower()
    for name in obj._runtimes:
        if name.lower() == lowered:
            return name
    raise LangRuntimeError(
        f"{obj.alps_name} has no procedure {source_name!r}"
    )


def assign_lvalue(env: Env, target: Any, value: Any) -> None:
    if isinstance(target, ast.Var):
        env.assign(target.name, value)
    elif isinstance(target, ast.Index):
        eval_expr(env, target.base)[eval_expr(env, target.index)] = value
    elif isinstance(target, ast.Field):
        setattr(eval_expr(env, target.base), target.name, value)
    else:
        raise LangRuntimeError(f"cannot assign to {target!r}")


# ----------------------------------------------------------------------
# Statement execution (generator)
# ----------------------------------------------------------------------


def exec_stmts(env: Env, stmts: list, mgr: "ManagerState | None" = None):
    for stmt in stmts:
        yield from exec_stmt(env, stmt, mgr)


def exec_stmt(env: Env, stmt: Any, mgr: "ManagerState | None"):
    if isinstance(stmt, ast.Assign):
        yield from _exec_assign(env, stmt)
    elif isinstance(stmt, ast.CallStmt):
        yield from _perform_call(env, stmt.call)
    elif isinstance(stmt, ast.If):
        for cond, body in stmt.arms:
            if eval_expr(env, cond):
                yield from exec_stmts(env, body, mgr)
                return
        yield from exec_stmts(env, stmt.orelse, mgr)
    elif isinstance(stmt, ast.While):
        while eval_expr(env, stmt.cond):
            yield from exec_stmts(env, stmt.body, mgr)
    elif isinstance(stmt, ast.SendStmt):
        channel = eval_expr(env, stmt.channel)
        values = [eval_expr(env, v) for v in stmt.values]
        yield Send(channel, *values)
    elif isinstance(stmt, ast.ReceiveStmt):
        channel = eval_expr(env, stmt.channel)
        message = yield Receive(channel)
        _bind_values(env, stmt.targets, message, _RECEIVE_MISMATCH)
    elif isinstance(stmt, ast.WorkStmt):
        yield Charge(int(eval_expr(env, stmt.amount)))
    elif isinstance(stmt, ast.ReturnStmt):
        raise _Return(tuple(eval_expr(env, v) for v in stmt.values))
    elif isinstance(stmt, ast.SkipStmt):
        pass
    elif isinstance(stmt, ast.SelectStmt):
        yield from _exec_select(env, stmt, mgr)
    elif isinstance(stmt, ast.StartStmt):
        yield from _exec_start(env, stmt, _need_mgr(mgr, "start"))
    elif isinstance(stmt, ast.FinishStmt):
        yield from _exec_finish(env, stmt, _need_mgr(mgr, "finish"))
    elif isinstance(stmt, ast.ExecuteStmt):
        yield from _exec_execute(env, stmt, _need_mgr(mgr, "execute"))
    else:
        raise LangRuntimeError(f"cannot execute {stmt!r}")


def _need_mgr(mgr: "ManagerState | None", what: str) -> "ManagerState":
    if mgr is None:
        raise LangRuntimeError(f"{what} is only allowed inside a manager")
    return mgr


def _values(value: Any) -> tuple:
    """A message or call result as a tuple: one value, or a tuple of values."""
    return value if isinstance(value, tuple) else (value,)


_RECEIVE_MISMATCH = "receive: {} targets but message has {} values"


def _bind_values(env: Env, targets: list, value: Any, mismatch: str) -> None:
    """Assign *value* to a single lvalue whole, else element-wise to each
    of *targets* (*mismatch* formats the count error)."""
    if len(targets) == 1:
        assign_lvalue(env, targets[0], value)
        return
    values = _values(value)
    if targets and len(values) != len(targets):
        raise LangRuntimeError(mismatch.format(len(targets), len(values)))
    for target, item in zip(targets, values):
        assign_lvalue(env, target, item)


def _exec_assign(env: Env, stmt: ast.Assign):
    if isinstance(stmt.value, ast.CallExpr) and not (
        stmt.value.target is None and stmt.value.name in BUILTINS
    ):
        result = yield from _perform_call(env, stmt.value)
    else:
        result = eval_expr(env, stmt.value)
    _bind_values(env, stmt.targets, result, "assignment: {} targets but call returned {} values")


def _perform_call(env: Env, call: ast.CallExpr):
    """Entry/local call as a statement or assignment RHS (blocking)."""
    args = [eval_expr(env, a) for a in call.args]
    if call.target is None:
        if call.name in BUILTINS and not _resolves_to_proc(env, call.name):
            return BUILTINS[call.name](*args)
        # Local/entry procedure of this object.
        proc_name = _runtime_proc_name(env.obj, call.name)
        result = yield env.obj.call(proc_name, *args)
        return result
    target = eval_expr(env, call.target)
    if isinstance(target, AlpsObject):
        proc_name = _runtime_proc_name(target, call.name)
        result = yield target.call(proc_name, *args)
        return result
    bound = getattr(target, call.name, None)
    if isinstance(bound, BoundEntry):
        result = yield bound(*args)
        return result
    if callable(bound):
        return bound(*args)
    raise LangRuntimeError(f"cannot call {call.name!r} on {target!r}")


def _resolves_to_proc(env: Env, name: str) -> bool:
    try:
        _runtime_proc_name(env.obj, name)
        return True
    except LangRuntimeError:
        return False


# ----------------------------------------------------------------------
# Manager primitives
# ----------------------------------------------------------------------


class ManagerState:
    """Tracks the manager's outstanding calls per procedure.

    The surface syntax names procedures (``start Read``); the runtime
    needs call handles.  ``accepted[p]`` is the most recently accepted,
    not yet started/finished call; ``awaited[p]`` the most recently
    awaited one.  This matches the paper's examples, where each primitive
    operates on "the" current call of the named procedure.
    """

    def __init__(self) -> None:
        self.accepted: dict[str, list] = {}
        self.awaited: dict[str, list] = {}

    def push(self, table: dict, proc: str, call: Any) -> None:
        table.setdefault(proc, []).append(call)

    def pop(self, table: dict, proc: str) -> Any:
        stack = table.get(proc)
        if not stack:
            return None
        return stack.pop()


def _accepted_call(
    env: Env, stmt: ast.StartStmt | ast.ExecuteStmt, mgr: ManagerState, what: str
) -> Any:
    call = mgr.pop(mgr.accepted, _runtime_proc_name(env.obj, stmt.proc))
    if call is None:
        raise LangRuntimeError(f"{what} {stmt.proc}: no accepted call")
    return call


def _hidden_params(env: Env, call: Any, exprs: list) -> list:
    """The hidden parameters among the arguments of ``start``/``execute``.

    The source form 'start P(Word, Place)' re-supplies the intercepted
    parameters first (the manager "supplies all the invocation
    parameters that it received", §2.3); only the surplus beyond the
    intercepted count are hidden parameters.
    """
    hidden = [eval_expr(env, h) for h in exprs]
    icpt = call.spec.intercept.params if call.spec.intercept else 0
    return hidden[icpt:] if len(hidden) > call.spec.hidden_params else hidden


def _exec_start(env: Env, stmt: ast.StartStmt, mgr: ManagerState):
    call = _accepted_call(env, stmt, mgr, "start")
    yield Start(call, *_hidden_params(env, call, stmt.hidden))


def _await_values(call: Any) -> tuple:
    """Everything the manager may receive at ``await``: the intercepted
    prefix of the definition results plus any hidden results (§2.8)."""
    return tuple(call.intercepted_results) + tuple(call.hidden_results)


def _exec_finish(env: Env, stmt: ast.FinishStmt, mgr: ManagerState):
    proc = _runtime_proc_name(env.obj, stmt.proc)
    call = mgr.pop(mgr.awaited, proc)
    if call is None:
        call = mgr.pop(mgr.accepted, proc)  # combining (§2.7)
    if call is None:
        raise LangRuntimeError(f"finish {stmt.proc}: no awaited or accepted call")
    results = [eval_expr(env, r) for r in stmt.results]
    yield Finish(call, *results)


def _exec_execute(env: Env, stmt: ast.ExecuteStmt, mgr: ManagerState):
    call = _accepted_call(env, stmt, mgr, "execute")
    yield from execute_call(call, *_hidden_params(env, call, stmt.hidden))


def _bind_names(env: Env, names: list, values: tuple, what: str) -> None:
    if not names:
        return
    if len(names) > len(values):
        raise LangRuntimeError(
            f"{what}: binds {len(names)} names but only {len(values)} "
            f"intercepted values are available"
        )
    for name, value in zip(names, values):
        env.assign(name, value)


# ----------------------------------------------------------------------
# select / loop
# ----------------------------------------------------------------------


def _clause_hook(env: Env, names: list, expr: Any, cast, values=lambda *a: a):
    """A guard's ``when``/``pri`` hook: ``cast(expr)`` evaluated with
    ``names`` bound to ``values(*args)`` (the hook's own arguments by
    default); None when the clause has no such expression."""
    if expr is None:
        return None
    return lambda *args: cast(eval_expr(env.child(dict(zip(names, values(*args)))), expr))


def _make_guard(env: Env, clause: ast.GuardClause, mgr: ManagerState | None):
    if clause.kind in ("accept", "await"):
        _need_mgr(mgr, clause.kind)
        accepting = clause.kind == "accept"
        values = attrgetter("intercepted_args" if accepting else "intercepted_results")
        return (AcceptGuard if accepting else AwaitGuard)(
            env.obj,
            _runtime_proc_name(env.obj, clause.proc),
            when=_clause_hook(env, clause.binders, clause.when, bool),
            pri=_clause_hook(env, clause.binders, clause.pri, int, values),
        )
    if clause.kind == "receive":
        # The hooks see the message as the arm binds it (``_bind_values``):
        # whole when there is one target.  An element or field target
        # binds no name for them.
        names = [t.name if isinstance(t, ast.Var) else None for t in clause.binders]
        if len(names) == 1:
            when = _clause_hook(env, names, clause.when, bool, lambda *a: (unwrap_message(a),))
            pri = _clause_hook(env, names, clause.pri, int, lambda value: (value,))
        else:
            when = _clause_hook(env, names, clause.when, bool)
            pri = _clause_hook(env, names, clause.pri, int, _values)
        return ReceiveGuard(eval_expr(env, clause.channel), when=when, pri=pri)
    # pure boolean guard
    return WhenGuard(_clause_hook(env, clause.binders, clause.when, bool))


def _exec_select(env: Env, stmt: ast.SelectStmt, mgr: ManagerState | None):
    def run_once():
        guards = [_make_guard(env, clause, mgr) for clause in stmt.clauses]
        result = yield Select(*guards)
        clause = stmt.clauses[result.index]
        if clause.kind in ("accept", "await"):
            call = result.value
            proc = _runtime_proc_name(env.obj, clause.proc)
            if clause.kind == "accept":
                mgr.push(mgr.accepted, proc, call)
                _bind_names(env, clause.binders, call.intercepted_args, "accept")
            else:
                mgr.push(mgr.awaited, proc, call)
                _bind_names(env, clause.binders, _await_values(call), "await")
        elif clause.kind == "receive":
            _bind_values(env, clause.binders, result.value, _RECEIVE_MISMATCH)
        yield from exec_stmts(env, clause.body, mgr)

    if stmt.repetitive:
        while True:
            yield from run_once()
    else:
        yield from run_once()
