"""AST node definitions for the ALPS surface syntax."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any


# -- expressions ---------------------------------------------------------


@dataclass
class Num:
    value: int


@dataclass
class Str:
    value: str


@dataclass
class Bool:
    value: bool


@dataclass
class Nil:
    pass


@dataclass
class Var:
    name: str


@dataclass
class Index:
    base: Any
    index: Any


@dataclass
class Field:
    base: Any
    name: str


@dataclass
class Pending:
    """``#P`` — the pending-call count of procedure P (§2.5.1)."""

    proc: str


@dataclass
class Unary:
    op: str
    operand: Any


@dataclass
class Binary:
    op: str
    left: Any
    right: Any


#: The binary operators, ``op -> (level, function)``; a higher level binds
#: tighter.  ``not`` is a prefix at level 3, comparisons do not chain, and
#: ``and``/``or`` short-circuit in the evaluator.
BINARY: dict[str, tuple[int, Any]] = {
    "or": (1, None),
    "and": (2, None),
    "=": (4, operator.eq), "<>": (4, operator.ne),
    "<": (4, operator.lt), "<=": (4, operator.le),
    ">": (4, operator.gt), ">=": (4, operator.ge),
    "+": (5, operator.add), "-": (5, operator.sub),
    "*": (6, operator.mul), "/": (6, operator.truediv),
    "div": (6, operator.floordiv), "mod": (6, operator.mod),
}


@dataclass
class CallExpr:
    """``X.P(args)`` or ``P(args)`` used as an expression (entry call /
    local call / builtin)."""

    target: Any          # None for bare names, else object expression
    name: str
    args: list = field(default_factory=list)


# -- statements ----------------------------------------------------------


@dataclass
class Assign:
    targets: list        # lvalues (Var/Index/Field); multi-target for calls
    value: Any


@dataclass
class If:
    arms: list           # [(cond, body), ...]
    orelse: list


@dataclass
class While:
    cond: Any
    body: list


@dataclass
class CallStmt:
    call: CallExpr


@dataclass
class SendStmt:
    channel: Any
    values: list


@dataclass
class ReceiveStmt:
    channel: Any
    targets: list


@dataclass
class ReturnStmt:
    values: list


@dataclass
class WorkStmt:
    """``work(E)`` — consume E ticks of simulated CPU (Charge)."""

    amount: Any


@dataclass
class SkipStmt:
    pass


@dataclass
class StartStmt:
    proc: str
    hidden: list            # hidden parameter expressions


@dataclass
class FinishStmt:
    proc: str
    results: list           # expressions for intercepted results


@dataclass
class ExecuteStmt:
    proc: str
    hidden: list


# -- guards and select/loop ----------------------------------------------


@dataclass
class GuardClause:
    """One guarded alternative: quantifier? primitive when? pri? => body."""

    kind: str               # 'accept' | 'await' | 'receive' | 'when'
    proc: str | None        # for accept/await
    channel: Any            # for receive
    binders: list           # names bound from params/results; receive: lvalues
    when: Any               # condition expression or None
    pri: Any                # priority expression or None
    body: list


@dataclass
class SelectStmt:
    """``select``/``loop``; ``accept P(X);`` and ``await P(R);`` written
    as statements are one-clause selects with an empty body (§2.4)."""

    clauses: list
    repetitive: bool        # loop vs select


# -- declarations ---------------------------------------------------------


@dataclass
class ProcSig:
    name: str
    params: list            # parameter names (definition part)
    returns: int


@dataclass
class ObjectDef:
    name: str
    procs: list             # [ProcSig]


@dataclass
class ProcImpl:
    name: str
    array: Any              # None | int | Var(name) — upper bound of [1..N]
    params: list            # all parameter names (incl. hidden)
    returns: int            # total results (incl. hidden)
    body: list
    locals_: list = field(default_factory=list)   # [(name, initial-expr)]


@dataclass
class InterceptClause:
    proc: str
    params: int
    results: int


@dataclass
class ManagerDecl:
    intercepts: list        # [InterceptClause]
    variables: list         # [(name, initial)]
    body: list


@dataclass
class VarDecl:
    names: list
    type_name: str | None
    initial: Any            # expression or None


@dataclass
class ObjectImpl:
    name: str
    variables: list         # [VarDecl]
    procs: list             # [ProcImpl]
    manager: ManagerDecl | None
    init: list              # initialization statements


@dataclass
class Program:
    definitions: dict       # name -> ObjectDef
    implementations: dict   # name -> ObjectImpl
