"""Tokenizer for the JavaScript subset.

Supports decimal and hexadecimal numbers, single- and double-quoted
strings with the common escapes, identifiers, keywords, punctuators and
both comment styles.  Positions are tracked for error messages.

One compiled master pattern recognises what page scripts are made of;
whatever it declines — numbers, strings with escapes, identifiers led by
a non-ASCII letter, malformed input — goes to the hand-written readers.
"""

from __future__ import annotations

import re

from repro.errors import JsSyntaxError
from repro.js.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "/": "/",
}

#: Escapes followed by hex digits: how many, and the complaint when short.
_HEX_ESCAPES = {"u": (4, "bad unicode escape"), "x": (2, "bad hex escape")}

#: Group numbers of the master pattern's alternatives.
_PUNCT, _NAME, _STRING, _LINES, _RARE = range(1, 6)

#: Total over any non-empty input.  Every alternative also swallows the
#: blanks after it, so a match ends on the first character of the next
#: token.  ``.`` is a punctuator only where it cannot open a number (the
#: old lexer asked ``str.isdigit``, which no character class spells, so a
#: dot before a non-ASCII character is left to ``_read_rare``), ``/`` only
#: where it cannot open a comment.  ``\w`` is ``str.isalnum`` plus ``_``.
_MASTER = re.compile(
    r"(?:(%s|\.(?![0-9]|[^\x00-\x7f])|/(?![/*]))"  # _PUNCT
    r"|([A-Za-z_$][\w$]*)"  # _NAME
    r"""|("[^"\\\n]*"|'[^'\\\n]*')"""  # _STRING without escapes
    r"|(\n[ \t\r\n]*|/\*[\s\S]*?\*/)"  # _LINES: trivia that may span lines
    r"|//[^\n]*|[ \t\r]+"  # other trivia
    r"|([\s\S]))[ \t\r]*"  # _RARE
    % "|".join(re.escape(p) for p in PUNCTUATORS if p not in (".", "/"))
).match
_NAME_TAIL = re.compile(r"[\w$]*").match
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*").match


class Lexer:
    """Converts JavaScript source text into a list of tokens."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokenize(self) -> list[Token]:
        """Tokenize the whole input, ending with a single EOF token."""
        source = self.source
        tokens: list[Token] = []
        append = tokens.append
        length = len(source)
        pos = 0
        line = 1
        line_start = 0  # index of the first character of ``line``
        while pos < length:
            match = _MASTER(source, pos)
            kind = match.lastindex
            if kind == _PUNCT:
                append(Token(TokenType.PUNCTUATOR, match[1], line, pos - line_start + 1))
            elif kind == _NAME:
                word = match[2]
                type_ = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENTIFIER
                append(Token(type_, word, line, pos - line_start + 1))
            elif kind == _STRING:
                append(Token(TokenType.STRING, match[3][1:-1], line, pos - line_start + 1))
            elif kind is not None:
                if kind == _RARE:
                    token, end = self._read_rare(pos, line, pos - line_start + 1)
                    append(token)
                else:
                    end = match.end()
                # A string with a backslash-newline spans lines, too.
                newlines = source.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = source.rfind("\n", pos, end) + 1
                pos = end
                continue
            pos = match.end()
        append(Token(TokenType.EOF, "", line, length - line_start + 1))
        return tokens

    # -- what the master pattern declines ---------------------------------------

    def _error(self, message: str, index: int) -> JsSyntaxError:
        """A syntax error positioned at ``source[index]``."""
        line = self.source.count("\n", 0, index) + 1
        return JsSyntaxError(message, line, index - self.source.rfind("\n", 0, index))

    def _read_rare(self, pos: int, line: int, column: int) -> tuple[Token, int]:
        """The token starting at ``pos`` and the index just past it."""
        source = self.source
        char = source[pos]
        if char.isdigit() or (char == "." and source[pos + 1:pos + 2].isdigit()):
            return self._read_number(pos, line, column)
        if char in "\"'":
            return self._read_string(pos, line, column)
        if char.isalpha():
            end = _NAME_TAIL(source, pos + 1).end()
            return Token(TokenType.IDENTIFIER, source[pos:end], line, column), end
        if char == ".":
            return Token(TokenType.PUNCTUATOR, ".", line, column), pos + 1
        if source.startswith("/*", pos):
            raise self._error("unterminated block comment", len(source))
        raise JsSyntaxError(f"unexpected character {char!r}", line, column)

    def _skip_digits(self, pos: int) -> int:
        # str.isdigit, not [0-9]: the old lexer took any Unicode digit.
        while self.source[pos:pos + 1].isdigit():
            pos += 1
        return pos

    def _read_number(self, pos: int, line: int, column: int) -> tuple[Token, int]:
        source = self.source
        if source.startswith(("0x", "0X"), pos):
            end = _HEX_DIGITS(source, pos + 2).end()
        else:
            end = self._skip_digits(pos)
            if source.startswith(".", end):
                end = self._skip_digits(end + 1)
            if source.startswith(("e", "E"), end):
                end += 1
                if source.startswith(("+", "-"), end):
                    end += 1
                if not source[end:end + 1].isdigit():
                    raise self._error("malformed exponent", end)
                end = self._skip_digits(end)
        return Token(TokenType.NUMBER, source[pos:end], line, column), end

    def _read_string(self, pos: int, line: int, column: int) -> tuple[Token, int]:
        source = self.source
        quote = source[pos]
        parts: list[str] = []
        pos += 1
        while True:
            char = source[pos:pos + 1]
            if not char:
                raise JsSyntaxError("unterminated string literal", line, column)
            if char == quote:
                return Token(TokenType.STRING, "".join(parts), line, column), pos + 1
            if char == "\n":
                raise self._error("newline in string literal", pos)
            if char != "\\":
                parts.append(char)
                pos += 1
                continue
            escape = source[pos + 1:pos + 2]
            if escape in _HEX_ESCAPES:
                width, complaint = _HEX_ESCAPES[escape]
                end = _HEX_DIGITS(source, pos + 2, pos + 2 + width).end()
                if end < pos + 2 + width:
                    raise self._error(complaint, pos + 2)
                parts.append(chr(int(source[pos + 2:end], 16)))
                pos = end
            else:
                parts.append(_ESCAPES.get(escape, escape))
                pos += 1 + len(escape)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` with a fresh :class:`Lexer`."""
    return Lexer(source).tokenize()
