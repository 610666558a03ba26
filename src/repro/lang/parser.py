"""Recursive-descent parser for the ALPS surface syntax.

Grammar (regularized from the paper's examples)::

    program    := { objectdef | objectimpl }
    objectdef  := 'object' NAME 'defines' { 'proc' NAME '(' [types] ')'
                  ['returns' '(' types ')'] ';' } 'end' NAME ';'
    objectimpl := 'object' NAME 'implements'
                  { vardecl } { procimpl } [managerdecl]
                  ['begin' stmts] 'end' NAME ';'
    vardecl    := 'var' NAME {',' NAME} [':' NAME] [':=' expr] ';'
    procimpl   := 'proc' NAME ['[' INT '..' (INT|NAME) ']']
                  '(' [params] ')' ['returns' '(' types ')'] ';'
                  'begin' stmts 'end' [NAME] ';'
    managerdecl:= 'manager' ['intercepts' icptlist ';'] { vardecl }
                  'begin' stmts 'end' ['manager'] ';'
    icptlist   := NAME ['(' [names] [';' names] ')'] {',' ...}

    stmts      := { stmt ';' }
    stmt       := lvalues ':=' expr | callstmt | 'send' NAME '(' args ')'
                | 'receive' NAME '(' names ')' | 'work' '(' expr ')'
                | 'return' [args] | 'skip'
                | ifstmt | whilestmt | selectstmt
                | primhead               (a one-guard select, no body)
                | ('start'|'finish'|'execute') primname ['(' args ')']
    selectstmt := ('select'|'loop') guarded {'or' guarded} 'end' ('select'|'loop')
    guarded    := ['(' NAME ':' expr '..' expr ')'] guardprim
                  ['when' expr] ['pri' expr] '=>' stmts
    guardprim  := primhead
                | 'receive' NAME '(' names ')'
                | 'when' expr            (pure boolean guard)
    primhead   := ('accept'|'await') primname ['(' names ')']
    primname   := NAME ['[' NAME ']']

Expressions use the usual precedence: ``or`` < ``and`` < ``not`` <
comparison < additive < multiplicative < unary < postfix (call, index,
field) < primary; the binary levels are the table :data:`ast.BINARY`.
``#P`` is the pending count (§2.5.1).
"""

from __future__ import annotations

from . import ast
from .tokens import LangSyntaxError, Token, tokenize

#: Levels the parser treats specially: the comparisons, which do not
#: chain; the ``not`` prefix just looser than them; the tightest level.
_COMPARE = ast.BINARY["="][0]
_NOT = _COMPARE - 1
_TIGHTEST = max(level for level, _ in ast.BINARY.values())


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def at_kw(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "kw" and token.value in words

    def take(self) -> Token:
        token = self.peek()
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            want = value or kind
            raise LangSyntaxError(
                f"expected {want!r}, got {token.value or token.kind!r}",
                token.line,
                token.column,
            )
        return self.take()

    def expect_kw(self, word: str) -> Token:
        return self.expect("kw", word)

    def expect_sym(self, symbol: str) -> Token:
        return self.expect("sym", symbol)

    def error(self, message: str) -> LangSyntaxError:
        token = self.peek()
        return LangSyntaxError(message, token.line, token.column)

    # -- program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        definitions: dict[str, ast.ObjectDef] = {}
        implementations: dict[str, ast.ObjectImpl] = {}
        while not self.at("eof"):
            self.expect_kw("object")
            name = self.expect("name").value
            if self.at_kw("defines"):
                self.take()
                definitions[name] = self.parse_defines(name)
            elif self.at_kw("implements"):
                self.take()
                implementations[name] = self.parse_implements(name)
            else:
                raise self.error("expected 'defines' or 'implements'")
        return ast.Program(definitions, implementations)

    def parse_defines(self, name: str) -> ast.ObjectDef:
        procs = []
        while self.at_kw("proc"):
            self.take()
            proc_name = self.expect("name").value
            self.expect_sym("(")
            params = self.parse_name_or_type_list()
            self.expect_sym(")")
            returns = 0
            if self.at_kw("returns"):
                self.take()
                self.expect_sym("(")
                returns = len(self.parse_name_or_type_list())
                self.expect_sym(")")
            self.expect_sym(";")
            procs.append(ast.ProcSig(proc_name, params, returns))
        self.expect_kw("end")
        self.expect("name", name)
        if self.at("sym", ";"):
            self.take()
        return ast.ObjectDef(name, procs)

    def parse_name_or_type_list(self) -> list[str]:
        """Names or `Name: Type` pairs; returns the leading names.

        Both ``,`` and ``;`` separate items (the paper writes
        ``Write(Key: KeyType; Data: DataType)``).
        """
        names: list[str] = []
        while self.at("name"):
            names.append(self.take().value)
            if self.at("sym", ":"):  # ': Type' — consume and ignore the type
                self.take()
                self.expect("name")
            if self.at("sym", ",") or self.at("sym", ";"):
                self.take()
                continue
            break
        return names

    def parse_comma_names(self) -> list[str]:
        """Comma-separated names only (``;`` is significant to the caller)."""
        names: list[str] = []
        while self.at("name"):
            names.append(self.take().value)
            if self.at("sym", ":"):
                self.take()
                self.expect("name")
            if self.at("sym", ","):
                self.take()
                continue
            break
        return names

    # -- implementation -------------------------------------------------------

    def parse_implements(self, name: str) -> ast.ObjectImpl:
        variables: list[ast.VarDecl] = []
        procs: list[ast.ProcImpl] = []
        manager: ast.ManagerDecl | None = None
        init: list = []
        while True:
            if self.at_kw("var"):
                variables.append(self.parse_vardecl())
            elif self.at_kw("proc"):
                procs.append(self.parse_procimpl())
            elif self.at_kw("manager"):
                if manager is not None:
                    raise self.error("object has more than one manager")
                manager = self.parse_manager()
            elif self.at_kw("begin"):
                self.take()
                init = self.parse_stmts(stop={"end"})
                break
            elif self.at_kw("end"):
                break
            else:
                raise self.error(
                    "expected 'var', 'proc', 'manager', 'begin' or 'end'"
                )
        self.expect_kw("end")
        self.expect("name", name)
        if self.at("sym", ";"):
            self.take()
        return ast.ObjectImpl(name, variables, procs, manager, init)

    def parse_vardecl(self) -> ast.VarDecl:
        self.expect_kw("var")
        names = [self.expect("name").value]
        while self.at("sym", ","):
            self.take()
            names.append(self.expect("name").value)
        type_name = None
        if self.at("sym", ":"):
            self.take()
            type_name = self.expect("name").value
            # 'array' style types may have trailing index bounds: skip a
            # balanced [...] if present.
            if self.at("sym", "["):
                depth = 0
                while True:
                    token = self.take()
                    if token.kind == "sym" and token.value == "[":
                        depth += 1
                    elif token.kind == "sym" and token.value == "]":
                        depth -= 1
                        if depth == 0:
                            break
        initial = None
        if self.at("sym", ":="):
            self.take()
            initial = self.parse_expr()
        self.expect_sym(";")
        return ast.VarDecl(names, type_name, initial)

    def parse_procimpl(self) -> ast.ProcImpl:
        self.expect_kw("proc")
        name = self.expect("name").value
        array = None
        if self.at("sym", "["):
            self.take()
            low = self.expect("int").value
            if low != "1":
                raise self.error("procedure arrays must start at 1")
            self.expect_sym("..")
            if self.at("int"):
                array = int(self.take().value)
            else:
                array = ast.Var(self.expect("name").value)
            self.expect_sym("]")
        self.expect_sym("(")
        params = self.parse_name_or_type_list()
        self.expect_sym(")")
        returns = 0
        if self.at_kw("returns"):
            self.take()
            self.expect_sym("(")
            if self.at("int"):
                returns = int(self.take().value)
            else:
                returns = len(self.parse_name_or_type_list())
            self.expect_sym(")")
        if self.at("sym", ";"):
            self.take()
        locals_: list = []
        while self.at_kw("var"):
            decl = self.parse_vardecl()
            locals_.extend((n, decl.initial) for n in decl.names)
        self.expect_kw("begin")
        body = self.parse_stmts(stop={"end"})
        self.expect_kw("end")
        if self.at("name"):
            trailer = self.take().value
            if trailer != name:
                raise self.error(
                    f"'end {trailer}' does not match 'proc {name}'"
                )
        self.expect_sym(";")
        return ast.ProcImpl(name, array, params, returns, body, locals_)

    def parse_manager(self) -> ast.ManagerDecl:
        self.expect_kw("manager")
        intercepts: list[ast.InterceptClause] = []
        if self.at_kw("intercepts"):
            self.take()
            while True:
                proc = self.expect("name").value
                params = results = 0
                if self.at("sym", "("):
                    self.take()
                    params = len(self.parse_comma_names())
                    if self.at("sym", ";"):
                        self.take()
                        results = len(self.parse_comma_names())
                    self.expect_sym(")")
                intercepts.append(ast.InterceptClause(proc, params, results))
                if self.at("sym", ","):
                    self.take()
                    continue
                break
            self.expect_sym(";")
        variables: list[ast.VarDecl] = []
        while self.at_kw("var"):
            variables.append(self.parse_vardecl())
        self.expect_kw("begin")
        body = self.parse_stmts(stop={"end"})
        self.expect_kw("end")
        if self.at_kw("manager"):
            self.take()
        if self.at("sym", ";"):
            self.take()
        flat_vars = [
            (name, decl.initial) for decl in variables for name in decl.names
        ]
        return ast.ManagerDecl(intercepts, flat_vars, body)

    # -- statements -------------------------------------------------------------

    def parse_stmts(self, stop: set[str]) -> list:
        stmts = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind == "kw" and token.value in stop:
                break
            if token.kind == "kw" and token.value == "or":
                break
            stmts.append(self.parse_stmt())
            if self.at("sym", ";"):
                self.take()
        return stmts

    def parse_stmt(self):
        token = self.peek()
        if token.kind == "kw":
            handler = {
                "if": self.parse_if,
                "while": self.parse_while,
                "select": lambda: self.parse_select(repetitive=False),
                "loop": lambda: self.parse_select(repetitive=True),
                "send": self.parse_send,
                "receive": self.parse_receive,
                "return": self.parse_return,
                "work": self.parse_work,
                "skip": lambda: (self.take(), ast.SkipStmt())[1],
                "accept": self.parse_prim_stmt,
                "await": self.parse_prim_stmt,
                "start": lambda: ast.StartStmt(*self._prim_call()),
                "finish": lambda: ast.FinishStmt(*self._prim_call()),
                "execute": lambda: ast.ExecuteStmt(*self._prim_call()),
            }.get(token.value)
            if handler is not None:
                return handler()
            raise self.error(f"unexpected keyword {token.value!r}")
        # assignment or call statement
        expr = self.parse_postfix(self.parse_primary())
        if self.at("sym", ",") or self.at("sym", ":="):
            targets = [expr]
            while self.at("sym", ","):
                self.take()
                targets.append(self.parse_postfix(self.parse_primary()))
            self.expect_sym(":=")
            value = self.parse_expr()
            return ast.Assign(targets, value)
        if isinstance(expr, ast.CallExpr):
            return ast.CallStmt(expr)
        raise self.error("expression is not a statement")

    def parse_if(self):
        self.expect_kw("if")
        arms = []
        cond = self.parse_expr()
        self.expect_kw("then")
        body = self.parse_stmts(stop={"elsif", "else", "end"})
        arms.append((cond, body))
        orelse: list = []
        while self.at_kw("elsif"):
            self.take()
            cond = self.parse_expr()
            self.expect_kw("then")
            arms.append((cond, self.parse_stmts(stop={"elsif", "else", "end"})))
        if self.at_kw("else"):
            self.take()
            orelse = self.parse_stmts(stop={"end"})
        self.expect_kw("end")
        self.expect_kw("if")
        return ast.If(arms, orelse)

    def parse_while(self):
        self.expect_kw("while")
        cond = self.parse_expr()
        self.expect_kw("do")
        body = self.parse_stmts(stop={"end"})
        self.expect_kw("end")
        self.expect_kw("while")
        return ast.While(cond, body)

    def parse_send(self):
        self.expect_kw("send")
        channel = self.parse_postfix(self.parse_primary())
        values: list = []
        if isinstance(channel, ast.CallExpr):
            # 'send C(v1, v2)' parses as a call; unpack it.
            values = channel.args
            channel = (
                ast.Field(channel.target, channel.name)
                if channel.target is not None
                else ast.Var(channel.name)
            )
        return ast.SendStmt(channel, values)

    def parse_receive(self):
        self.expect_kw("receive")
        channel = self.parse_postfix(self.parse_primary())
        targets: list = []
        if isinstance(channel, ast.CallExpr):
            targets = channel.args
            channel = (
                ast.Field(channel.target, channel.name)
                if channel.target is not None
                else ast.Var(channel.name)
            )
        return ast.ReceiveStmt(channel, targets)

    def parse_return(self):
        self.expect_kw("return")
        values: list = []
        if self.at("sym", "("):
            self.take()
            values = self.parse_args(")")
            self.expect_sym(")")
        elif not self.at("sym", ";") and not self.at_kw("end"):
            values = [self.parse_expr()]
        return ast.ReturnStmt(values)

    def parse_work(self):
        self.expect_kw("work")
        self.expect_sym("(")
        amount = self.parse_expr()
        self.expect_sym(")")
        return ast.WorkStmt(amount)

    # -- manager primitives as statements --------------------------------------

    def _prim_target(self) -> str:
        """Parse ``P`` or ``P[i]`` after a primitive keyword.

        ``i`` is the quantifier's binder; the runtime quantifies over the
        whole array, so it is parsed and discarded.
        """
        proc = self.expect("name").value
        if self.at("sym", "["):
            self.take()
            self.expect("name")
            self.expect_sym("]")
        return proc

    def _prim_call(self) -> tuple[str, list]:
        """``start``/``finish``/``execute P[i](E, ...)``: name and arguments."""
        self.take()
        proc = self._prim_target()
        args: list = []
        if self.at("sym", "("):
            self.take()
            args = self.parse_args(")")
            self.expect_sym(")")
        return proc, args

    def _prim_head(self) -> tuple[str, str, list]:
        """``accept``/``await P[i](X, ...)``: kind, name and binders."""
        kind = self.take().value
        proc = self._prim_target()
        binders: list = []
        if self.at("sym", "("):
            self.take()
            binders = self.parse_name_or_type_list()
            self.expect_sym(")")
        return kind, proc, binders

    def parse_prim_stmt(self):
        """``accept P(X);`` / ``await P(R);``: a one-guard select (§2.4)."""
        kind, proc, binders = self._prim_head()
        clause = ast.GuardClause(kind, proc, None, binders, None, None, [])
        return ast.SelectStmt([clause], repetitive=False)

    # -- select / loop -----------------------------------------------------------

    def parse_select(self, repetitive: bool):
        opener = "loop" if repetitive else "select"
        self.expect_kw(opener)
        clauses = [self.parse_guarded()]
        while self.at_kw("or"):
            self.take()
            clauses.append(self.parse_guarded())
        self.expect_kw("end")
        self.expect_kw(opener)
        return ast.SelectStmt(clauses, repetitive)

    def parse_guarded(self) -> ast.GuardClause:
        # optional quantifier '(i : 1..N)' — runtime quantifies over the
        # whole array, so the binder is parsed and discarded.
        if (
            self.at("sym", "(")
            and self.peek(1).kind == "name"
            and self.peek(2).kind == "sym"
            and self.peek(2).value == ":"
        ):
            self.take()  # (
            self.take()  # binder name
            self.take()  # :
            self.parse_expr()
            self.expect_sym("..")
            self.parse_expr()
            self.expect_sym(")")

        kind: str
        proc = None
        channel = None
        binders: list = []
        when = None
        pri = None
        if self.at_kw("accept", "await"):
            kind, proc, binders = self._prim_head()
        elif self.at_kw("receive"):
            kind = "receive"
            self.take()
            channel_expr = self.parse_postfix(self.parse_primary())
            if isinstance(channel_expr, ast.CallExpr):
                # Lvalues, as ``receive C(...);`` takes them.
                binders = channel_expr.args
                channel = (
                    ast.Field(channel_expr.target, channel_expr.name)
                    if channel_expr.target is not None
                    else ast.Var(channel_expr.name)
                )
            else:
                channel = channel_expr
        elif self.at_kw("when"):
            kind = "when"
            self.take()
            when = self.parse_expr()
        else:
            raise self.error("expected accept/await/receive/when guard")

        if kind != "when" and self.at_kw("when"):
            self.take()
            when = self.parse_expr()
        if self.at_kw("pri"):
            self.take()
            pri = self.parse_expr()
        self.expect_sym("=>")
        body = self.parse_stmts(stop={"end"})
        return ast.GuardClause(kind, proc, channel, binders, when, pri, body)

    # -- expressions -----------------------------------------------------------

    def parse_args(self, closer: str) -> list:
        args = []
        if not self.at("sym", closer):
            args.append(self.parse_expr())
            while self.at("sym", ","):
                self.take()
                args.append(self.parse_expr())
        return args

    def parse_expr(self, level: int = 1):
        """An expression whose operators bind at *level* or tighter.

        Precedence climbing over :data:`ast.BINARY`: an operator at level
        L takes a right operand that binds at L + 1 or tighter, so
        operators associate to the left.  ``ceiling`` is the tightest
        operator this frame may still take: after ``not E`` or a
        comparison only ``and``/``or``, so comparisons do not chain.
        """
        if level <= _NOT and self.at_kw("not"):
            self.take()
            left, ceiling = ast.Unary("not", self.parse_expr(_NOT)), _NOT
        else:
            left, ceiling = self.parse_unary(), _TIGHTEST
        while True:
            token = self.peek()
            op = token.value if token.kind in ("kw", "sym") else None
            prec = ast.BINARY.get(op, (0, None))[0]
            if not level <= prec <= ceiling or (
                op == "or" and not self._or_is_operator()
            ):
                return left
            self.take()
            left = ast.Binary(op, left, self.parse_expr(prec + 1))
            ceiling = _NOT if prec == _COMPARE else prec

    def _or_is_operator(self) -> bool:
        # 'or' separates guarded alternatives in select/loop; inside an
        # expression it is only an operator when more expression follows.
        nxt = self.peek(1)
        if nxt.kind in ("name", "int", "string"):
            return True
        if nxt.kind == "kw" and nxt.value in ("not", "true", "false", "nil"):
            return True
        if nxt.kind == "sym" and nxt.value in ("(", "-", "#"):
            return True
        return False

    def parse_unary(self):
        if self.at("sym", "-"):
            self.take()
            return ast.Unary("-", self.parse_unary())
        return self.parse_postfix(self.parse_primary())

    def parse_postfix(self, expr):
        while True:
            if self.at("sym", "["):
                self.take()
                index = self.parse_expr()
                self.expect_sym("]")
                expr = ast.Index(expr, index)
            elif self.at("sym", "."):
                self.take()
                name = self.expect("name").value
                expr = ast.Field(expr, name)
            elif self.at("sym", "("):
                # call: base must be a name or field access
                self.take()
                args = self.parse_args(")")
                self.expect_sym(")")
                if isinstance(expr, ast.Var):
                    expr = ast.CallExpr(None, expr.name, args)
                elif isinstance(expr, ast.Field):
                    expr = ast.CallExpr(expr.base, expr.name, args)
                else:
                    raise self.error("cannot call this expression")
            else:
                return expr

    def parse_primary(self):
        token = self.peek()
        if token.kind == "int":
            self.take()
            return ast.Num(int(token.value))
        if token.kind == "string":
            self.take()
            return ast.Str(token.value)
        if token.kind == "kw" and token.value in ("true", "false"):
            self.take()
            return ast.Bool(token.value == "true")
        if token.kind == "kw" and token.value == "nil":
            self.take()
            return ast.Nil()
        if token.kind == "sym" and token.value == "#":
            self.take()
            return ast.Pending(self.expect("name").value)
        if token.kind == "sym" and token.value == "(":
            self.take()
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if token.kind == "name":
            self.take()
            return ast.Var(token.value)
        raise self.error(f"unexpected token {token.value or token.kind!r}")


def parse_program(source: str) -> ast.Program:
    """Parse ALPS source text into a :class:`~repro.lang.ast.Program`."""
    return Parser(source).parse_program()
