"""Compile parsed ALPS programs onto the :mod:`repro.core` runtime.

``compile_program(source)`` returns a :class:`Module`; instantiating an
object binds it to a kernel::

    module = compile_program(BUFFER_SOURCE)
    buffer = module.instantiate(kernel, "Buffer", N=4)

Each compiled object is a genuine :class:`~repro.core.AlpsObject`
subclass: entry procedures become interpreted generator bodies, the
manager becomes an interpreted daemon process, and all of the runtime's
machinery — hidden procedure arrays, intercepts, pools, combining,
remote placement — applies unchanged.
"""

from __future__ import annotations

from typing import Any

from ..core.entry import EntrySpec, Intercept
from ..core.manager import ManagerSpec
from ..core.object_model import AlpsObject, AlpsObjectMeta
from ..errors import ObjectModelError
from . import ast
from .interp import Env, LangRuntimeError, ManagerState, _Return, eval_expr, exec_stmts
from .parser import parse_program


class Module:
    """A compiled ALPS program: object classes plus a live-instance registry.

    Bare names in interpreted code resolve locals → object attributes →
    this registry, so objects can call each other by their declared names
    (the paper's ``use`` clause).
    """

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.classes: dict[str, type] = {}
        self.instances: dict[str, AlpsObject] = {}
        for name, impl in program.implementations.items():
            definition = program.definitions.get(name)
            self.classes[name] = _build_class(self, name, definition, impl)

    def instantiate(self, kernel, name: str, alps_name: str | None = None, **config: Any) -> AlpsObject:
        """Create the single instance of object ``name`` (§2.2)."""
        cls = self.classes.get(name)
        if cls is None:
            raise ObjectModelError(
                f"program has no implementation for object {name!r} "
                f"(has: {sorted(self.classes)})"
            )
        obj = cls(kernel, name=alps_name or name, **config)
        self.instances[name] = obj
        return obj


def compile_program(source: str) -> Module:
    """Parse and compile ALPS source text into a :class:`Module`."""
    return Module(parse_program(source))


# ----------------------------------------------------------------------
# Class synthesis
# ----------------------------------------------------------------------


def _build_class(
    module: Module,
    name: str,
    definition: ast.ObjectDef | None,
    impl: ast.ObjectImpl,
) -> type:
    def_sigs = {sig.name: sig for sig in definition.procs} if definition else {}

    namespace: dict[str, Any] = {}
    for proc in impl.procs:
        namespace[proc.name] = _build_entry_spec(module, proc, def_sigs.get(proc.name))
    if impl.manager is not None:
        namespace["mgr"] = _build_manager_spec(module, impl.manager)
    namespace["setup"] = _build_setup(module, impl)
    namespace["__doc__"] = f"Compiled ALPS object {name!r}."
    namespace["__alps_module__"] = module
    return AlpsObjectMeta(name, (AlpsObject,), namespace)


def _build_entry_spec(
    module: Module, proc: ast.ProcImpl, signature: ast.ProcSig | None
) -> EntrySpec:
    total_params = len(proc.params)
    total_returns = proc.returns
    if signature is not None:
        hidden_params = total_params - len(signature.params)
        hidden_results = total_returns - signature.returns
        if hidden_params < 0:
            raise ObjectModelError(
                f"{proc.name}: implementation has fewer parameters than "
                f"the definition"
            )
        if hidden_results < 0:
            raise ObjectModelError(
                f"{proc.name}: implementation returns fewer results than "
                f"the definition"
            )
        exported = True
    else:
        hidden_params = 0
        hidden_results = 0
        exported = False  # not in the definition part: a local procedure

    body_fn = _make_body_function(module, proc)

    array: Any = None
    if proc.array is not None:
        array = proc.array.name if isinstance(proc.array, ast.Var) else proc.array

    spec = EntrySpec(
        body_fn,
        returns=total_returns - hidden_results,
        array=array,
        hidden_params=hidden_params,
        hidden_results=hidden_results,
        exported=exported,
    )
    return spec


def _make_body_function(module: Module, proc: ast.ProcImpl):
    """Synthesize a generator function with the exact formal signature."""
    params = proc.params
    arglist = ", ".join(["self"] + list(params))
    binds = ", ".join(f"{p!r}: {p}" for p in params)
    source = (
        f"def {proc.name}({arglist}):\n"
        f"    result = yield from _run_body(self, _proc_ast, {{{binds}}}, _module)\n"
        f"    return result\n"
    )
    scope = {"_run_body": _run_body, "_proc_ast": proc, "_module": module}
    exec(source, scope)  # noqa: S102 - controlled codegen for signatures
    return scope[proc.name]


def _run_body(obj: AlpsObject, proc: ast.ProcImpl, locals_: dict, module: Module):
    env = Env(obj, module, dict(locals_))
    for var_name, initial in proc.locals_:
        env.locals[var_name] = (
            eval_expr(env, initial) if initial is not None else None
        )
    try:
        yield from exec_stmts(env, proc.body, mgr=None)
    except _Return as ret:
        values = ret.values
        if len(values) == 0:
            return None
        if len(values) == 1:
            return values[0]
        return tuple(values)
    # Implicit return for procedures that fall off the end.
    if proc.returns:
        raise LangRuntimeError(
            f"{proc.name}: body ended without returning its "
            f"{proc.returns} result(s)"
        )
    return None


def _build_manager_spec(module: Module, decl: ast.ManagerDecl) -> ManagerSpec:
    intercepts = {
        clause.proc: Intercept(params=clause.params, results=clause.results)
        for clause in decl.intercepts
    }

    def mgr(self):
        locals_ = {}
        env = Env(self, module, locals_)
        for name, initial in decl.variables:
            locals_[name] = eval_expr(env, initial) if initial is not None else None
        state = ManagerState()
        yield from exec_stmts(env, decl.body, mgr=state)

    mgr.__name__ = "mgr"
    return ManagerSpec(mgr, intercepts=intercepts)


def _build_setup(module: Module, impl: ast.ObjectImpl):
    def setup(self, **config: Any) -> None:
        # Configuration overrides arrive first so declared initializers
        # (which may reference them, e.g. 'var Buf := array(N)') see the
        # overridden values.
        for key, value in config.items():
            setattr(self, key, value)
        env = Env(self, module, {})
        for decl in impl.variables:
            for name in decl.names:
                if name in config:
                    continue
                value = eval_expr(env, decl.initial) if decl.initial is not None else None
                setattr(self, name, value)
        # The object's initialization code runs before the manager (§2.3).
        if impl.init:
            self.kernel.spawn(
                lambda: exec_stmts(Env(self, module, {}), impl.init, mgr=None),
                name=f"{self.alps_name}.init",
            )

    return setup
