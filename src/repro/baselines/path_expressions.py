"""Path expressions (Campbell & Habermann, 1974) on the ALPS kernel.

§1: "In ALPS it is possible to design objects such that all entry
procedures of the object are sequential procedures and all scheduling is
implemented separately ... [an idea] first used in path expressions."
The paper cites path expressions [4,5] as one of the abstractions the
manager generalizes, so we implement them as a baseline: a small parser
for the classical grammar and the standard translation into semaphore
prologues/epilogues wrapped around each operation.

Grammar::

    path       := 'path' sequence 'end'
    sequence   := selection ( ';' selection )*
    selection  := factor ( ',' factor )*
    factor     := NUMBER ':' '(' sequence ')'      restriction
                | '[' sequence ']'                 burst (simultaneous)
                | '(' sequence ')'
                | NAME

Semantics (the standard counter derivation):

* ``a ; b`` — the *n*-th execution of ``b`` may begin only after the
  *n*-th execution of ``a`` has finished (semaphore initialized to 0
  between the stages);
* ``a , b`` — alternatives: both governed by the same surrounding
  constraints;
* ``n : ( L )`` — at most ``n`` executions of ``L`` active at once
  (counting semaphore ``n`` around it);
* ``[ L ]`` — burst: any number of simultaneous executions count as one
  with respect to the surrounding constraints (first-in acquires, last-
  out releases — the readers-writers shape).

Examples::

    path 1:(deposit; remove) end          # one-slot buffer
    path N:(deposit; remove) end          # N-slot bounded buffer
    path 1:([read], write) end            # readers-writers

Use :func:`compile_path` to obtain a :class:`PathRuntime`, then wrap each
operation body with ``yield from rt.before("name")`` / ``yield from
rt.after("name")``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import PathExpressionError
from .semaphore import P, Semaphore, V


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass
class Name:
    name: str


@dataclass
class Sequence:
    items: list


@dataclass
class Selection:
    items: list


@dataclass
class Restriction:
    limit: int
    body: object


@dataclass
class Burst:
    body: object


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[:;,()\[\]]))"
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise PathExpressionError(
                    f"unexpected character {text[pos]!r} at position {pos}"
                )
            break
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise PathExpressionError(f"unexpected end of path expression")
        if expected is not None and token != expected:
            raise PathExpressionError(f"expected {expected!r}, got {token!r}")
        self.pos += 1
        return token

    def parse_path(self) -> object:
        if self.peek() == "path":
            self.take("path")
            body = self.parse_sequence()
            self.take("end")
        else:
            body = self.parse_sequence()
        if self.peek() is not None:
            raise PathExpressionError(f"trailing tokens: {self.tokens[self.pos:]}")
        return body

    def parse_sequence(self) -> object:
        items = [self.parse_selection()]
        while self.peek() == ";":
            self.take(";")
            items.append(self.parse_selection())
        return items[0] if len(items) == 1 else Sequence(items)

    def parse_selection(self) -> object:
        items = [self.parse_factor()]
        while self.peek() == ",":
            self.take(",")
            items.append(self.parse_factor())
        return items[0] if len(items) == 1 else Selection(items)

    def parse_factor(self) -> object:
        token = self.peek()
        if token is None:
            raise PathExpressionError("unexpected end of path expression")
        if token.isdigit():
            self.take()
            self.take(":")
            self.take("(")
            body = self.parse_sequence()
            self.take(")")
            limit = int(token)
            if limit < 1:
                raise PathExpressionError(f"restriction must be >= 1, got {limit}")
            return Restriction(limit, body)
        if token == "[":
            self.take("[")
            body = self.parse_sequence()
            self.take("]")
            return Burst(body)
        if token == "(":
            self.take("(")
            body = self.parse_sequence()
            self.take(")")
            return body
        if token in (";", ",", ")", "]", ":", "end"):
            raise PathExpressionError(f"unexpected {token!r}")
        self.take()
        return Name(token)


def parse_path(text: str) -> object:
    """Parse a path expression into its AST."""
    return _Parser(_tokenize(text)).parse_path()


# ----------------------------------------------------------------------
# Translation to semaphore prologues/epilogues
# ----------------------------------------------------------------------


@dataclass
class _Ops:
    """Prologue/epilogue actions attached to one operation name."""

    before: list = field(default_factory=list)
    after: list = field(default_factory=list)


class PathRuntime:
    """Executable form of a path expression.

    ``before(name)``/``after(name)`` are generators performing the
    semaphore operations derived from the expression; a caller brackets
    a body with both.  Executions are counted per operation.
    """

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.ops: dict[str, _Ops] = {}
        self.semaphores: list[Semaphore] = []
        self.counts: dict[str, int] = {}
        self._burst_counter = 0
        ast = parse_path(expression)
        self._compile(ast, pre=[], post=[])
        if not self.ops:
            raise PathExpressionError(f"path {expression!r} names no operations")

    # -- compilation -------------------------------------------------------

    def _sem(self, value: int, name: str) -> Semaphore:
        sem = Semaphore(value, name=f"path.{name}{len(self.semaphores)}")
        self.semaphores.append(sem)
        return sem

    def _compile(self, node: object, pre: list, post: list) -> None:
        if isinstance(node, Name):
            if node.name in self.ops:
                raise PathExpressionError(
                    f"operation {node.name!r} appears more than once in "
                    f"{self.expression!r}"
                )
            self.ops[node.name] = _Ops(before=list(pre), after=list(post))
            self.counts[node.name] = 0
        elif isinstance(node, Selection):
            for child in node.items:
                self._compile(child, pre, post)
        elif isinstance(node, Sequence):
            # sems between consecutive stages, init 0: stage i+1's n-th
            # start needs stage i's n-th finish.
            stages = node.items
            links = [self._sem(0, "seq") for _ in range(len(stages) - 1)]
            for index, child in enumerate(stages):
                child_pre = list(pre) if index == 0 else [("P", links[index - 1])]
                child_post = list(post) if index == len(stages) - 1 else [("V", links[index])]
                self._compile(child, child_pre, child_post)
        elif isinstance(node, Restriction):
            gate = self._sem(node.limit, "limit")
            self._compile(
                node.body,
                pre=list(pre) + [("P", gate)],
                post=[("V", gate)] + list(post),
            )
        elif isinstance(node, Burst):
            # First-in performs the surrounding prologue, last-out the
            # surrounding epilogue; a mutex protects the counter.
            self._burst_counter += 1
            mutex = self._sem(1, "burstmx")
            token = f"__burst{self._burst_counter}"
            self.counts[token] = 0
            burst_pre = [("BURST_IN", (mutex, token, list(pre)))]
            burst_post = [("BURST_OUT", (mutex, token, list(post)))]
            self._compile(node.body, burst_pre, burst_post)
        else:  # pragma: no cover - parser produces only the above
            raise PathExpressionError(f"unknown node {node!r}")

    # -- execution ---------------------------------------------------------

    def _run_ops(self, actions: list):
        for kind, payload in actions:
            if kind == "P":
                yield P(payload)
            elif kind == "V":
                yield V(payload)
            elif kind == "BURST_IN":
                mutex, token, inner = payload
                yield P(mutex)
                self.counts[token] += 1
                if self.counts[token] == 1:
                    yield from self._run_ops(inner)
                yield V(mutex)
            elif kind == "BURST_OUT":
                mutex, token, inner = payload
                yield P(mutex)
                self.counts[token] -= 1
                if self.counts[token] == 0:
                    yield from self._run_ops(inner)
                yield V(mutex)

    def _lookup(self, name: str) -> _Ops:
        ops = self.ops.get(name)
        if ops is None:
            raise PathExpressionError(
                f"operation {name!r} is not named in {self.expression!r}"
            )
        return ops

    def before(self, name: str):
        """Prologue for operation ``name`` (generator; ``yield from``)."""
        yield from self._run_ops(self._lookup(name).before)

    def after(self, name: str):
        """Epilogue for operation ``name``."""
        yield from self._run_ops(self._lookup(name).after)
        self.counts[name] += 1


def compile_path(expression: str) -> PathRuntime:
    """Compile a path expression into a :class:`PathRuntime`."""
    return PathRuntime(expression)
