"""Token kinds produced by the JavaScript lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class TokenType(enum.Enum):
    """Lexical categories of the supported JavaScript subset."""

    NUMBER = enum.auto()
    STRING = enum.auto()
    IDENTIFIER = enum.auto()
    KEYWORD = enum.auto()
    PUNCTUATOR = enum.auto()
    EOF = enum.auto()
    #: A whole top-level function declaration the parse memo already
    #: holds (:class:`DeclarationToken`).
    DECLARATION = enum.auto()


#: Reserved words recognized by the lexer.
KEYWORDS = frozenset(
    {
        "var",
        "function",
        "return",
        "if",
        "else",
        "while",
        "for",
        "break",
        "continue",
        "true",
        "false",
        "null",
        "undefined",
        "new",
        "typeof",
        "this",
        "in",
        "delete",
        "do",
        "switch",
        "case",
        "default",
        "throw",
        "try",
        "catch",
        "finally",
    }
)

#: Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = (
    "===",
    "!==",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ".",
    ":",
    "?",
)


@dataclass(slots=True)
class Token:
    """One lexical token with its source position (1-based).

    Slotted and not frozen: the lexer builds one per token, and a frozen
    dataclass pays ``object.__setattr__`` per field (3x the constructor).
    Nothing mutates a token.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"


@dataclass(slots=True, repr=False)
class DeclarationToken(Token):
    """A memoised ``function name(...) {...}`` span lexed as one token.

    Its type is ``DECLARATION``, its value ``"function"`` and its
    position the keyword's, so a parser that stops at it reports what it
    would report at the keyword; ``declaration`` is the memo's
    ``ast.FunctionDeclaration``.
    """

    declaration: Any
