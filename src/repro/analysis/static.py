"""The ALPS protocol linter: static checks over manager bodies.

The analysis is a whole-body *site/coverage* analysis with candidate
entry sets, not a path enumeration.  Manager loops carry protocol state
across iterations — readers_writers accepts in one select arm and awaits
the same call in a different arm, many iterations later — so "does a
start exist on the path from this accept" is the wrong question.  What
is checkable is coverage: for each intercepted entry, does *any* site in
the body accept it / start it / await it / finish it, and are the
arities at those sites consistent with the declarations?

The sites come from :attr:`repro.analysis.model.ObjectInfo.sites`, the
one reading of a manager body (the call graph draws its manager-blocking
edges from the same list); this module holds only the checks.  A site
carries a candidate entry set — what its call variable was bound from,
or *all intercepted entries* when that cannot be resolved (subscripts,
queue pops, helper returns).  It contributes coverage to every
candidate, and an arity site is accepted if **any** candidate
interpretation is consistent — the conservative direction: unresolved
dynamism silences checks instead of fabricating findings, so the linter
runs clean over correct code and the fixture corpus keeps it honest on
broken code.

Finding codes are shared with the runtime (``ProtocolError.code``); the
catalogue lives in :mod:`repro.analysis.findings` and DESIGN.md §10.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable

from .findings import Finding
from .model import (
    UNKNOWN,
    EntryInfo,
    Module,
    ObjectInfo,
    Site,
    const_value,
    final_name,
    load_paths,
    load_source,
)


def _call_signature(op: str, extra: int) -> str:
    """Corrected ``Start``/``Finish`` call text with ``extra`` extras.

    Placeholder names follow the op: hidden params for ``Start``
    (``h0, h1, ...``), fabricated/forwarded results for ``Finish``
    (``r0, r1, ...``).
    """
    prefix = "h" if op == "Start" else "r"
    extras = "".join(f", {prefix}{i}" for i in range(extra))
    return f"yield {op}(call{extras})"


class ManagerLinter:
    """Lints one object's manager body against its declarations."""

    def __init__(self, obj: ObjectInfo) -> None:
        self.obj = obj
        self.manager = obj.manager
        self.findings: list[Finding] = []
        self.sites: list[Site] = obj.sites
        self.intercepted = frozenset(obj.intercepted())

    # -- entry points ------------------------------------------------------

    def run(self) -> list[Finding]:
        self.check_declarations()
        if self.manager is not None and self.manager.intercepts is not None:
            self.check_sites()
            self.check_coverage()
        return self.findings

    def report(
        self,
        code: str,
        message: str,
        node: ast.AST | None = None,
        line: int | None = None,
        entry: str | None = None,
        suggestion: str | None = None,
    ) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=message,
                path=self.obj.path,
                line=line if line is not None else getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                obj=self.obj.name,
                entry=entry,
                suggestion=suggestion,
            )
        )

    # -- declaration-level checks (no body needed) -------------------------

    def check_declarations(self) -> None:
        manager = self.manager
        intercepts = manager.intercepts if manager else None
        for name, icpt in (intercepts or {}).items():
            if name not in self.obj.entries:
                self.report(
                    "ALP112",
                    f"intercepts clause names {name!r}, which "
                    f"{self.obj.name} does not declare",
                    line=icpt.line or (manager.intercepts_line if manager else 0),
                    entry=name,
                )
        for name, entry in self.obj.entries.items():
            icpt = (intercepts or {}).get(name)
            if icpt is None:
                # Hidden params/results require interception (§2.8) — the
                # manager is the only party that could supply/consume them.
                for attr, label in (
                    (entry.hidden_params, "hidden_params"),
                    (entry.hidden_results, "hidden_results"),
                ):
                    if isinstance(attr, int) and attr > 0:
                        self.report(
                            "ALP105",
                            f"entry {name!r} declares {label}={attr} but the "
                            f"manager does not intercept it",
                            line=entry.line,
                            entry=name,
                            suggestion=(
                                f"add {name!r} to the manager's intercepts — "
                                f'@manager_process(intercepts={{..., "{name}": '
                                f"icpt()}}) — or drop {label}={attr} from the "
                                f"@entry declaration"
                            ),
                        )
                continue
            if (
                isinstance(icpt.params, int)
                and entry.def_params is not UNKNOWN
                and icpt.params > entry.def_params
            ):
                self.report(
                    "ALP105",
                    f"intercepts {icpt.params} params of {name!r}, which has "
                    f"only {entry.def_params} definition parameter(s)",
                    line=icpt.line,
                    entry=name,
                    suggestion=(
                        f'"{name}": icpt(params={entry.def_params}) — an '
                        f"intercept can take at most the entry's "
                        f"{entry.def_params} definition parameter(s)"
                    ),
                )
            if (
                isinstance(icpt.results, int)
                and isinstance(entry.returns, int)
                and icpt.results > entry.returns
            ):
                self.report(
                    "ALP105",
                    f"intercepts {icpt.results} results of {name!r}, which "
                    f"declares only returns={entry.returns}",
                    line=icpt.line,
                    entry=name,
                    suggestion=(
                        f'"{name}": icpt(results={entry.returns}) — an '
                        f"intercept can take at most the entry's "
                        f"returns={entry.returns} result(s)"
                    ),
                )

    # -- per-site arity / guard checks -------------------------------------

    def check_sites(self) -> None:
        for site in self.sites:
            if site.kind in ("start", "execute"):
                self._check_start_arity(site)
            if not site.exact or site.kind not in ("accept", "await", "pending", "call"):
                continue
            (entry,) = site.entries  # the literal name written at the site
            if site.kind == "pending":
                if entry not in self.obj.entries:
                    self.report(
                        "ALP112",
                        f"#pending names {entry!r}, which {self.obj.name} does "
                        f"not declare",
                        node=site.node,
                        entry=entry,
                    )
            elif site.kind == "call":
                # ``self.call("deposit")`` or ``self.deposit(...)``: the
                # bound entry builds an EntryCall on this very object.
                if entry in self.intercepted:
                    self.report(
                        "ALP111",
                        f"manager invokes intercepted entry {entry!r} of its own "
                        f"object; it would wait for itself to accept",
                        node=site.node,
                        entry=entry,
                    )
            else:
                self._check_guard(site.kind, entry, site.node)

    def _entry_or_report(self, kind: str, entry: str, node: ast.Call) -> EntryInfo | None:
        info = self.obj.entries.get(entry)
        if info is None:
            self.report(
                "ALP112",
                f"{kind} guard names {entry!r}, which {self.obj.name} does "
                f"not declare",
                node=node,
                entry=entry,
            )
            return None
        if entry not in self.intercepted:
            self.report(
                "ALP113",
                f"{kind} guard on {entry!r}, which the manager does not "
                f"intercept",
                node=node,
                entry=entry,
            )
            return None
        return info

    def _check_guard(self, kind: str, entry: str, node: ast.Call) -> None:
        info = self._entry_or_report(kind, entry, node)
        if info is None:
            return
        icpt = info.intercept
        for kw in node.keywords:
            if kw.arg == "slot":
                slot = const_value(kw.value)
                size = info.array_size
                if (
                    isinstance(slot, int)
                    and isinstance(size, int)
                    and not 0 <= slot < size
                ):
                    self.report(
                        "ALP110",
                        f"{kind} {entry}[{slot}]: slot outside the procedure "
                        f"array (size {size}, valid slots 0..{size - 1})",
                        node=kw.value,
                        entry=entry,
                    )
            elif kw.arg == "when" and isinstance(kw.value, ast.Lambda):
                self._check_when(kind, entry, icpt, kw.value)

    def _check_when(
        self, kind: str, entry: str, icpt: Any, lam: ast.Lambda
    ) -> None:
        body_const = const_value(lam.body, default=UNKNOWN)
        if body_const is not UNKNOWN and not body_const:
            self.report(
                "ALP109",
                f"when-condition on {kind} {entry!r} is constant "
                f"{body_const!r}: the guard can never fire",
                node=lam,
                entry=entry,
            )
        if lam.args.vararg is not None or icpt is None:
            return
        expected = icpt.params if kind == "accept" else icpt.results
        if not isinstance(expected, int):
            return
        got = len(lam.args.args) + len(lam.args.posonlyargs)
        required = got - len(lam.args.defaults)
        if required > expected or got < expected:
            what = "params" if kind == "accept" else "results"
            prefix = "p" if kind == "accept" else "r"
            names = ", ".join(f"{prefix}{i}" for i in range(expected))
            corrected = f"lambda {names}: ..." if expected else "lambda: ..."
            self.report(
                "ALP106",
                f"when-condition on {kind} {entry!r} takes {got} argument(s) "
                f"but the guard passes the {expected} intercepted {what}",
                node=lam,
                entry=entry,
                suggestion=(
                    f"when={corrected} — the condition receives exactly the "
                    f"{expected} intercepted {what} of {entry!r}"
                ),
            )

    def _check_start_arity(self, site: Site) -> None:
        entries, arity = site.entries, site.arity
        if not site.exact or arity is None or not entries:
            return
        hidden_counts = set()
        for entry in entries:
            info = self.obj.entries.get(entry)
            if info is None:
                continue
            if not isinstance(info.hidden_params, int):
                return  # any unknown declaration silences the check
            hidden_counts.add(info.hidden_params)
        if hidden_counts and arity not in hidden_counts:
            declared = "/".join(str(c) for c in sorted(hidden_counts))
            self.report(
                "ALP108",
                f"start supplies {arity} hidden parameter(s) but "
                f"{self._entries_label(entries)} declare(s) "
                f"hidden_params={declared}",
                node=site.node,
                entry=next(iter(entries)) if len(entries) == 1 else None,
                suggestion=" or ".join(
                    _call_signature("Start", count)
                    for count in sorted(hidden_counts)
                )
                + f" — match hidden_params={declared}",
            )

    @staticmethod
    def _entries_label(entries: frozenset[str]) -> str:
        return "/".join(sorted(entries))

    # -- whole-body coverage checks ----------------------------------------

    def _coverage(self, kind: str) -> dict[str, list[Site]]:
        out: dict[str, list[Site]] = {name: [] for name in self.intercepted}
        kinds = {kind, "execute"} if kind in ("start", "await", "finish") else {kind}
        for site in self.sites:
            if site.kind in kinds:
                for entry in site.entries:
                    if entry in out:
                        out[entry].append(site)
        return out

    def check_coverage(self) -> None:
        accepts = self._coverage("accept")
        starts = self._coverage("start")
        awaits = self._coverage("await")
        finishes = self._coverage("finish")
        manager_line = self.manager.line if self.manager else 0

        for entry in sorted(self.intercepted):
            info = self.obj.entries[entry]
            if not accepts[entry]:
                self.report(
                    "ALP101",
                    f"entry {entry!r} is intercepted but the manager body "
                    f"never accepts it: every call stalls forever",
                    line=manager_line,
                    entry=entry,
                )
                continue
            if awaits[entry] and not starts[entry]:
                site = awaits[entry][0]
                self.report(
                    "ALP102",
                    f"manager awaits {entry!r} but never starts it: the "
                    f"await can never become ready",
                    node=site.node,
                    entry=entry,
                )
            if starts[entry] and not awaits[entry] and not finishes[entry]:
                site = starts[entry][0]
                self.report(
                    "ALP103",
                    f"manager starts {entry!r} but neither awaits nor "
                    f"finishes it: callers are never resumed",
                    node=site.node,
                    entry=entry,
                )
            if starts[entry] and finishes[entry] and not awaits[entry]:
                site = finishes[entry][0]
                self.report(
                    "ALP104",
                    f"manager starts {entry!r} and finishes it without an "
                    f"await in between: finish requires the call to be "
                    f"awaited first",
                    node=site.node,
                    entry=entry,
                )

        # ALP107: finish result arity, judged per site with candidate
        # semantics — valid if ANY candidate interpretation fits.
        for site in self.sites:
            if site.kind != "finish" or site.arity is None or not site.exact:
                continue
            ok = False
            expectations: list[str] = []
            valid_counts: list[int] = []
            for entry in site.entries:
                info = self.obj.entries.get(entry)
                if info is None:
                    continue
                icpt = info.intercept
                icpt_results = icpt.results if icpt is not None else 0
                if not isinstance(icpt_results, int) or not isinstance(
                    info.returns, int
                ):
                    ok = True  # unknown declaration: stay silent
                    break
                if starts.get(entry) and site.arity == icpt_results:
                    ok = True
                    break
                if site.arity == info.returns:
                    ok = True  # combining: manager fabricates all results
                    break
                if starts.get(entry):
                    expectations.append(f"{icpt_results} (awaited {entry})")
                    valid_counts.append(icpt_results)
                expectations.append(f"{info.returns} (combining {entry})")
                valid_counts.append(info.returns)
            if not ok and expectations:
                self.report(
                    "ALP107",
                    f"finish supplies {site.arity} result(s); expected "
                    + " or ".join(dict.fromkeys(expectations)),
                    node=site.node,
                    entry=(
                        next(iter(site.entries))
                        if len(site.entries) == 1
                        else None
                    ),
                    suggestion=" or ".join(
                        _call_signature("Finish", count)
                        for count in sorted(dict.fromkeys(valid_counts))
                    )
                    + " — the result count must match what the protocol "
                    "expects at this site",
                )


# -- module-level checks (not tied to one object's manager) -----------------

#: Retry-policy constructors recognized by the ALP114 check.
_POLICY_CTORS = {"FixedBackoff", "ExponentialBackoff"}


def _is_none(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _retry_policy_arg(call: ast.Call) -> ast.expr | None:
    """The policy argument of a ``retry(call_factory, policy, ...)`` site."""
    for kw in call.keywords:
        if kw.arg == "policy":
            return kw.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


def _unbounded_policy_ctor(node: ast.expr | None) -> str | None:
    """Constructor name if *node* is ``Ctor(..., max_attempts=None)``."""
    if not isinstance(node, ast.Call):
        return None
    ctor = final_name(node)
    if ctor not in _POLICY_CTORS:
        return None
    unbounded = any(
        kw.arg == "max_attempts" and _is_none(kw.value) for kw in node.keywords
    )
    return ctor if unbounded else None


def lint_retry_sites(tree: ast.Module, path: str = "<source>") -> list[Finding]:
    """ALP114: ``retry()`` with an unbounded policy and no budget.

    Flags call sites of ``retry`` — at module level, in class methods,
    or in nested functions — whose policy is an explicit
    ``max_attempts=None`` constructor and which pass no (or a ``None``)
    ``budget=``.  The policy may be written inline at the call site or
    held in a local variable; variable bindings are tracked per lexical
    scope (nested functions see enclosing bindings, reassignment to
    anything unrecognized clears the binding, and class-level names are
    not visible inside methods — matching Python's scoping).  Policies
    that arrive as parameters or attributes stay unflagged: they may be
    bounded elsewhere, and the linter fabricates no findings it cannot
    see locally.
    """
    findings: list[Finding] = []
    _RetryScopeWalker(findings, path).scan(tree.body, {})
    return findings


class _RetryScopeWalker:
    """Order-sensitive walk tracking unbounded-policy variable bindings."""

    def __init__(self, findings: list[Finding], path: str) -> None:
        self.findings = findings
        self.path = path

    def scan(self, stmts: Iterable[ast.stmt], env: dict[str, str]) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, env)

    def _scan_stmt(self, stmt: ast.stmt, env: dict[str, str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested scope: closures see the enclosing bindings; local
            # reassignments must not leak back out.
            self.scan(stmt.body, dict(env))
            return
        if isinstance(stmt, ast.ClassDef):
            # Class-level assignments are not visible as bare names in
            # method bodies; methods close over the *enclosing* scope.
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.scan(sub.body, dict(env))
                elif isinstance(sub, ast.ClassDef):
                    self._scan_stmt(sub, env)
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            self._check_expr(stmt.value, env)
            if isinstance(target, ast.Name):
                ctor = _unbounded_policy_ctor(stmt.value)
                if ctor is not None:
                    env[target.id] = ctor
                else:
                    env.pop(target.id, None)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child, env)
            else:
                self._check_expr(child, env)

    def _check_expr(self, node: ast.AST, env: dict[str, str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and final_name(sub) == "retry":
                self._check_retry_site(sub, env)

    def _check_retry_site(self, node: ast.Call, env: dict[str, str]) -> None:
        policy = _retry_policy_arg(node)
        held = None
        ctor = _unbounded_policy_ctor(policy)
        if ctor is None and isinstance(policy, ast.Name):
            ctor = env.get(policy.id)
            held = policy.id if ctor is not None else None
        if ctor is None:
            return
        budget = next(
            (kw.value for kw in node.keywords if kw.arg == "budget"), None
        )
        if budget is not None and not _is_none(budget):
            return
        source = (
            f"policy {held!r} = {ctor}(max_attempts=None)"
            if held is not None
            else f"{ctor}(max_attempts=None)"
        )
        self.findings.append(
            Finding(
                code="ALP114",
                message=(
                    f"retry() with {source} and no budget: a persistent "
                    f"fault makes this caller re-offer its call forever "
                    f"(retry storm)"
                ),
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                suggestion=(
                    "pass budget=shared_budget(kernel, caller, obj) so "
                    "excess retries become immediate AdmissionErrors, or "
                    f"bound the policy: {ctor}(..., max_attempts=N)"
                ),
            )
        )


# -- public API -------------------------------------------------------------


def check_module(module: Module) -> list[Finding]:
    """Per-class checks and ALP114 over one loaded module, unsorted."""
    findings: list[Finding] = []
    for obj in module.objects:
        if obj.manager is not None:
            findings.extend(ManagerLinter(obj).run())
    findings.extend(lint_retry_sites(module.tree, path=module.path))
    return findings


def lint_source(source: str, path: str = "<source>") -> list[Finding]:
    """Lint python source text; returns the findings (possibly empty)."""
    from .wholeprogram import analyze

    return analyze([[load_source(source, path)]])[1]


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    Each file is its own program: cycles and interference confined to
    one file (ALP120/ALP121) surface here too; ``--whole-program``
    merges the files first.
    """
    from .wholeprogram import analyze

    return analyze([[module] for module in load_paths(paths)])[1]
