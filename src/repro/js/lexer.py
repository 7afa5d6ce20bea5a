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
from typing import Any, Optional

from repro.errors import JsSyntaxError
from repro.js.tokens import KEYWORDS, PUNCTUATORS, DeclarationToken, Token, TokenType

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


#: How a bracket punctuator moves the nesting depth.
_NESTING = {"{": 1, "(": 1, "[": 1, "}": -1, ")": -1, "]": -1}

#: ``(type, value)`` of the tokens a top-level statement may follow.
_STATEMENT_ENDS = {
    (TokenType.PUNCTUATOR, ";"),
    (TokenType.PUNCTUATOR, "}"),
    (TokenType.DECLARATION, "function"),
}


def _proposals(source: str) -> list[tuple[int, int]]:
    """``(start, end)`` of each brace-balanced span from the last
    ``function`` before a ``{`` to the ``}`` that closes it, outside
    earlier spans.

    Strings and comments are not skipped, so a span may be wrong; the
    lexer takes one only where its own tokens agree and the memo holds
    its exact text.
    """
    spans = []
    find = source.find
    start = find("function")
    while start >= 0:
        body = find("{", start)
        if body < 0:
            break
        start = source.rfind("function", start, body)
        depth, end = 1, body + 1
        while depth:
            close = find("}", end)
            if close < 0:
                return spans
            depth += source.count("{", end, close) - 1
            end = close + 1
        spans.append((start, end))
        start = find("function", end)
    return spans


class Lexer:
    """Converts JavaScript source text into a list of tokens.

    Given ``declarations``, a memo from the exact text of a top-level
    function declaration to its ``ast.FunctionDeclaration``, the lexer
    emits a :class:`DeclarationToken` in place of a span it holds, where
    a top-level statement may start: at nesting depth 0 (braces,
    parentheses and brackets), at the start of input or right after a
    ``;``, a ``}`` or another collapsed declaration.  Lines and columns
    after it are those of a full lex.  A span that starts there and
    misses lands in :attr:`candidates`, for the parser to remember.
    """

    def __init__(self, source: str, declarations: Optional[dict[str, Any]] = None) -> None:
        self.source = source
        self.declarations = declarations
        #: Token index of a missed span's ``function`` -> (its text, the
        #: index just past its closing ``}`` token).
        self.candidates: dict[int, tuple[str, int]] = {}

    def tokenize(self) -> list[Token]:
        """Tokenize the whole input, ending with a single EOF token."""
        source = self.source
        tokens: list[Token] = []
        pos, line, line_start = 0, 1, 0  # line_start: index of the line's first character
        memo = self.declarations
        if memo is not None:
            depth = counted = 0
            for start, end in _proposals(source):
                pos, line, line_start = self._lex(tokens, pos, start, line, line_start)
                if pos != start:
                    continue  # inside a token, or already lexed
                for token in tokens[counted:]:
                    if token.type is TokenType.PUNCTUATOR:
                        depth += _NESTING.get(token.value, 0)
                counted = len(tokens)
                if depth or tokens and (tokens[-1].type, tokens[-1].value) not in _STATEMENT_ENDS:
                    continue
                text = source[start:end]
                declaration = memo.get(text)
                if declaration is None:
                    index = len(tokens)
                    pos, line, line_start = self._lex(tokens, pos, end - 1, line, line_start)
                    if pos == end - 1:  # the closing brace is the next token
                        self.candidates[index] = (text, len(tokens) + 1)
                    continue
                tokens.append(DeclarationToken(
                    TokenType.DECLARATION, "function", line, pos - line_start + 1, declaration
                ))
                counted += 1
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + text.rfind("\n") + 1
                pos = end
        pos, line, line_start = self._lex(tokens, pos, len(source), line, line_start)
        tokens.append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
        return tokens

    def _lex(
        self, tokens: list[Token], pos: int, stop: int, line: int, line_start: int
    ) -> tuple[int, int, int]:
        """Append the tokens that start before ``stop``; answers where
        the next one starts, its line and that line's start."""
        source = self.source
        append = tokens.append
        while pos < stop:
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
        return pos, line, line_start

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
