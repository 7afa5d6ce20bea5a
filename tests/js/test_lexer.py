"""Unit tests for the JavaScript lexer."""

import pytest

from repro.errors import JsSyntaxError
from repro.js import tokenize
from repro.js.tokens import TokenType


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source) if t.type is not TokenType.EOF]


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]

    def test_decimal(self):
        assert kinds("3.14") == [(TokenType.NUMBER, "3.14")]

    def test_leading_dot(self):
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]

    def test_hex(self):
        assert kinds("0xFF") == [(TokenType.NUMBER, "0xFF")]

    def test_exponent(self):
        assert kinds("1e3 2.5E-2") == [
            (TokenType.NUMBER, "1e3"),
            (TokenType.NUMBER, "2.5E-2"),
        ]

    def test_malformed_exponent(self):
        with pytest.raises(JsSyntaxError):
            tokenize("1e")


class TestStrings:
    def test_double_quoted(self):
        assert kinds('"hello"') == [(TokenType.STRING, "hello")]

    def test_single_quoted(self):
        assert kinds("'hi'") == [(TokenType.STRING, "hi")]

    def test_escapes(self):
        assert kinds(r'"a\nb\tc\\d"') == [(TokenType.STRING, "a\nb\tc\\d")]

    def test_quote_escape(self):
        assert kinds(r'"say \"hi\""') == [(TokenType.STRING, 'say "hi"')]

    def test_unicode_escape(self):
        assert kinds(r'"A"') == [(TokenType.STRING, "A")]

    def test_hex_escape(self):
        assert kinds(r'"\x41"') == [(TokenType.STRING, "A")]

    @pytest.mark.parametrize(
        "source, message, column",
        [
            ('"\\u12"', "bad unicode escape", 4),
            ('"\\u12" + x', "bad unicode escape", 4),
            ('"\\uZZZZ"', "bad unicode escape", 4),
            ('"\\u 12 "', "bad unicode escape", 4),
            ('"a\\x4"', "bad hex escape", 5),
            ('"\\xZZ"', "bad hex escape", 4),
            ('"\\x', "bad hex escape", 4),
        ],
    )
    def test_malformed_hex_escapes_are_syntax_errors(self, source, message, column):
        # Digits int() would not take used to escape as ValueError, and
        # blanks or underscores it tolerates were decoded.
        with pytest.raises(JsSyntaxError) as raised:
            tokenize(source)
        assert str(raised.value) == f"{message} (line 1, column {column})"

    def test_unterminated(self):
        with pytest.raises(JsSyntaxError):
            tokenize('"never ends')

    def test_newline_in_string(self):
        with pytest.raises(JsSyntaxError):
            tokenize('"a\nb"')


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        assert kinds("getUrl") == [(TokenType.IDENTIFIER, "getUrl")]

    def test_dollar_and_underscore(self):
        assert kinds("$x _y") == [
            (TokenType.IDENTIFIER, "$x"),
            (TokenType.IDENTIFIER, "_y"),
        ]

    def test_keywords(self):
        assert kinds("var function return") == [
            (TokenType.KEYWORD, "var"),
            (TokenType.KEYWORD, "function"),
            (TokenType.KEYWORD, "return"),
        ]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("variable")[0] == (TokenType.IDENTIFIER, "variable")


class TestPunctuatorsAndComments:
    def test_maximal_munch(self):
        assert [v for _, v in kinds("a===b")] == ["a", "===", "b"]
        assert [v for _, v in kinds("a==b")] == ["a", "==", "b"]
        assert [v for _, v in kinds("i++")] == ["i", "++"]

    def test_line_comment(self):
        assert kinds("a // comment\nb") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(JsSyntaxError):
            tokenize("/* forever")

    def test_unexpected_character(self):
        with pytest.raises(JsSyntaxError):
            tokenize("a # b")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_tokens_are_slotted(self):
        (token, _) = tokenize("a")
        with pytest.raises(AttributeError):
            token.note = "ad hoc"

    def test_eof_token_present(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF
