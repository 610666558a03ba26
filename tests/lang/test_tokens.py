"""Lexer tests for the ALPS surface syntax."""

import pytest

from repro.lang import LangSyntaxError, parse_program, tokenize


class TestTokenize:
    def kinds(self, source):
        return [(t.kind, t.value) for t in tokenize(source)[:-1]]

    def test_keywords_case_insensitive(self):
        assert self.kinds("OBJECT Object oBjEcT") == [("kw", "object")] * 3

    def test_identifiers(self):
        assert self.kinds("Deposit ReadMax x_1") == [
            ("name", "Deposit"),
            ("name", "ReadMax"),
            ("name", "x_1"),
        ]

    def test_numbers_and_strings(self):
        assert self.kinds('42 "hello" \'there\'') == [
            ("int", "42"),
            ("string", "hello"),
            ("string", "there"),
        ]

    def test_compound_symbols(self):
        assert self.kinds(":= => .. <= >= <>") == [
            ("sym", ":="),
            ("sym", "=>"),
            ("sym", ".."),
            ("sym", "<="),
            ("sym", ">="),
            ("sym", "<>"),
        ]

    def test_pascal_comments_skipped(self):
        assert self.kinds("a { the buffer } b") == [
            ("name", "a"),
            ("name", "b"),
        ]

    def test_line_comments_skipped(self):
        assert self.kinds("a // ignore this\nb") == [
            ("name", "a"),
            ("name", "b"),
        ]

    def test_multiline_comment_tracks_lines(self):
        tokens = tokenize("{ first\nsecond }\nx")
        assert tokens[0].line == 3

    def test_unterminated_comment_rejected(self):
        with pytest.raises(LangSyntaxError):
            tokenize("{ never closed")

    def test_unterminated_string_rejected(self):
        with pytest.raises(LangSyntaxError):
            tokenize('"open')

    def test_unknown_character_rejected(self):
        with pytest.raises(LangSyntaxError):
            tokenize("a ? b")

    def test_positions(self):
        token = tokenize("  hello")[0]
        assert (token.line, token.column) == (1, 3)

    def test_pending_count_symbol(self):
        assert self.kinds("#Write") == [("sym", "#"), ("name", "Write")]

    def test_non_decimal_digit_rejected(self):
        # '²' is a digit to str.isdigit() but not a decimal: it is not an
        # integer literal of the notation.
        with pytest.raises(LangSyntaxError, match="unexpected character '²'"):
            tokenize("x := ²;")
        with pytest.raises(LangSyntaxError, match="line 1, column 6"):
            parse_program("x := ²;")

    def test_eof_after_line_comment_has_its_column(self):
        assert [(t.kind, t.line, t.column) for t in tokenize("//x")] == [
            ("eof", 1, 4)
        ]
        assert tokenize("a // b\n  ")[-1].column == 3
