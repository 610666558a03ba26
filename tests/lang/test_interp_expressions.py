"""Unit tests for the interpreter's expression evaluator."""

import pytest

from repro.lang import LangSyntaxError, ast, compile_program, parse_program
from repro.lang.interp import BUILTINS, Env, LangRuntimeError, eval_expr
from repro.lang.parser import Parser


def expr(text):
    """Parse a standalone expression."""
    return Parser(text).parse_expr()


def ev(text, **locals_):
    env = Env(None, None, dict(locals_))
    return eval_expr(env, expr(text))


class TestArithmetic:
    def test_precedence(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9

    def test_div_mod(self):
        assert ev("7 div 2") == 3
        assert ev("7 mod 2") == 1

    def test_unary_minus(self):
        assert ev("-3 + 5") == 2

    def test_comparisons(self):
        assert ev("1 < 2") is True
        assert ev("2 <= 2") is True
        assert ev("1 = 2") is False
        assert ev("1 <> 2") is True

    def test_boolean_operators(self):
        assert ev("true and not false") is True
        assert ev("false or true") is True

    def test_short_circuit(self):
        # 'and' must not evaluate the right side when left is false.
        assert ev("false and Missing") is False
        with pytest.raises(LangRuntimeError):
            ev("true and Missing")


#: One evaluation of every binary operator of the notation.
EVERY_OPERATOR = {
    "or": ("false or true", True),
    "and": ("true and false", False),
    "=": ("2 = 2", True),
    "<>": ("2 <> 2", False),
    "<": ("3 < 2", False),
    "<=": ("3 <= 2", False),
    ">": ("3 > 2", True),
    ">=": ("2 >= 3", False),
    "+": ("7 + 2", 9),
    "-": ("7 - 2", 5),
    "*": ("7 * 2", 14),
    "/": ("7 / 2", 3.5),
    "div": ("7 div 2", 3),
    "mod": ("7 mod 2", 1),
}


class TestOperators:
    @pytest.mark.parametrize("op", sorted(EVERY_OPERATOR))
    def test_every_operator_evaluates(self, op):
        text, value = EVERY_OPERATOR[op]
        node = expr(text)
        assert isinstance(node, ast.Binary) and node.op == op
        result = ev(text)
        assert result == value and type(result) is type(value)

    def test_table_is_every_operator(self):
        assert set(EVERY_OPERATOR) == set(ast.BINARY)

    def test_left_associative(self):
        assert ev("10 - 3 - 2") == 5
        assert ev("16 div 4 div 2") == 2

    def test_not_binds_looser_than_comparison(self):
        node = expr("not 1 = 2")
        assert isinstance(node, ast.Unary) and node.op == "not"
        assert isinstance(node.operand, ast.Binary) and node.operand.op == "="
        assert ev("not 1 = 2") is True

    def test_unary_minus_binds_tighter_than_multiplication(self):
        node = expr("-2 * 3")
        assert isinstance(node, ast.Binary) and node.op == "*"
        assert isinstance(node.left, ast.Unary) and node.left.op == "-"
        assert ev("-2 * 3") == -6

    def test_comparisons_do_not_chain(self):
        with pytest.raises(LangSyntaxError, match="unexpected token '<'"):
            parse_program(
                """
                object T implements
                  proc P(); begin X := 1 < 2 < 3; end P;
                end T;
                """
            )

    def test_or_separates_select_arms(self):
        # 'A or B' in a when-condition is the operator; an 'or' followed
        # by a guard keyword ends the arm's body, even after an
        # expression with no ';'.
        program = parse_program(
            """
            object T implements
              proc P(); begin skip; end P;
              manager intercepts P;
              begin
                select when A or B => X := 1
                or accept P => X := 2 or Y
                end select;
              end manager;
            end T;
            """
        )
        (stmt,) = program.implementations["T"].manager.body
        first, second = stmt.clauses
        assert first.when.op == "or"
        assert first.body[0].value == ast.Num(1)
        assert second.kind == "accept"
        assert second.body[0].value.op == "or"


class TestNamesAndStructure:
    def test_locals(self):
        assert ev("X + Y", X=3, Y=4) == 7

    def test_indexing(self):
        assert ev("A[1]", A=[10, 20, 30]) == 20

    def test_dict_indexing(self):
        assert ev("D['k']", D={"k": 9}) == 9

    def test_nested_index(self):
        assert ev("M[0][1]", M=[[1, 2]]) == 2

    def test_undefined_name_rejected(self):
        with pytest.raises(LangRuntimeError):
            ev("Nope")

    def test_nil(self):
        assert ev("nil") is None
        assert ev("X = nil", X=None) is True


class TestBuiltins:
    def test_array_builtin(self):
        assert ev("array(3)") == [None, None, None]

    def test_len_min_max(self):
        assert ev("len(A)", A=[1, 2]) == 2
        assert ev("min(3, 1)") == 1
        assert ev("max(3, 1)") == 3

    def test_chan_builtin(self):
        from repro.channels import Channel

        assert isinstance(ev("chan()"), Channel)

    def test_entry_call_in_expression_rejected(self):
        with pytest.raises(LangRuntimeError):
            ev("SomeObject(1)")


class TestModuleResolution:
    def test_instances_visible_by_name(self):
        from repro.kernel import Kernel

        kernel = Kernel()
        module = compile_program(
            """
            object A implements
              var X: int := 5;
              proc Get() returns (1); begin return (X); end Get;
            end A;
            """
        )
        instance = module.instantiate(kernel, "A")
        env = Env(None, module, {})
        assert eval_expr(env, expr("A")) is instance
