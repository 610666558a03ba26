"""Lexer for the ALPS surface syntax.

The paper writes ALPS in a Pascal-like notation ("The version of ALPS
presented here uses strong typing and is based on a Pascal-like
notation", §4) and reports that a compiler was in its initial stages.
:mod:`repro.lang` is that front end: it parses the paper's notation and
compiles it onto the :mod:`repro.core` runtime.

The lexer is one regular expression of named alternatives: keywords,
identifiers, decimal integer and string literals, and the
operator/punctuation set used by the paper's examples (``:=``, ``=>``,
``..``, comparisons, arithmetic).  Comments are ``{ ... }`` (Pascal
style) and ``// ...`` to end of line.  Lines and columns count from 1
and every character is one column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import AlpsError


class LangSyntaxError(AlpsError):
    """Lexical or syntactic error in ALPS source text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


KEYWORDS = {
    "object", "defines", "implements", "end", "proc", "returns", "var",
    "manager", "intercepts", "begin", "if", "then", "else", "elsif",
    "while", "do", "loop", "select", "when", "pri", "or", "and", "not",
    "accept", "start", "await", "finish", "execute", "send", "receive",
    "return", "skip", "true", "false", "nil", "par", "to", "work",
    "mod", "div", "use",
}

SYMBOLS = [
    ":=", "=>", "..", "<=", ">=", "<>", "(", ")", "[", "]", ",", ";",
    ":", "=", "<", ">", "+", "-", "*", "/", ".", "#",
]


@dataclass(frozen=True)
class Token:
    kind: str       # 'kw', 'name', 'int', 'string', 'sym', 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind},{self.value!r}@{self.line}:{self.column})"


#: The lexicon as one table: each alternative is one token class, tried
#: in this order at every offset.  ``skip`` is whitespace and comments;
#: symbols are tried longest first, in :data:`SYMBOLS` order.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|\{[^}]*\})"
    r"|(?P<string>\"[^\"\n]*\"|'[^'\n]*')"
    r"|(?P<int>\d+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<sym>" + "|".join(map(re.escape, SYMBOLS)) + ")"
)


def tokenize(source: str) -> list[Token]:
    """Split ALPS source into tokens (raises LangSyntaxError)."""
    tokens: list[Token] = []
    line, line_start, index = 1, 0, 0
    while index < len(source):
        match = _TOKEN.match(source, index)
        kind = match.lastgroup if match else None
        text = match.group() if match else source[index]
        column = index - line_start + 1
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            kind = None  # a numeric character such as '²' starts no word
        if kind is None:
            if text[0] == "{":
                raise LangSyntaxError("unterminated { comment", line, column)
            if text[0] in "\"'":
                end = source.find("\n", index)
                end = len(source) if end < 0 else end
                raise LangSyntaxError(
                    "unterminated string literal", line, end - line_start + 1
                )
            raise LangSyntaxError(f"unexpected character {text[0]!r}", line, column)
        index = match.end()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        if kind == "string":
            text = text[1:-1]
        elif kind == "word":
            kind = "kw" if text.lower() in KEYWORDS else "name"
            text = text.lower() if kind == "kw" else text
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
