"""The declaration memo of ``Interpreter.run_once`` is exact.

A top-level function declaration whose text the memo holds is lexed as
one token and taken from the memo.  Every script the substrate crawls
run, every ``js``/``js-mutated`` fuzz case and a set of hand-made
scripts must parse to the same AST through one shared memo as cold, or
fail with the same message, line and column.
"""

from collections import Counter

import pytest

from repro.crawler import AjaxCrawler
from repro.errors import JsSyntaxError
from repro.js import Interpreter, Lexer, Parser, parse_program
from repro.js.tokens import TokenType
from repro.sites import SiteConfig, SyntheticYouTube
from repro.testgen.fuzz import generate_case
from tests.substrate_crawls import run_crawls


def parsed(source, memo=None):
    """The program, or the error's ``(message, line, column)``."""
    try:
        return parse_program(source, memo)
    except JsSyntaxError as error:
        return (str(error), error.line, error.column)


class CountingMemo(dict):
    """A declaration memo that counts the lookups that hit."""

    hits = 0

    def get(self, text, default=None):
        declaration = super().get(text, default)
        self.hits += declaration is not None
        return declaration


def hits(source, memo):
    """How many declarations the lexer takes from ``memo``, up to an
    error if the source has one."""
    counting = CountingMemo(memo)
    try:
        Lexer(source, counting).tokenize()
    except JsSyntaxError:
        pass
    return counting.hits


def crawl_sources(monkeypatch):
    """Every distinct source the substrate crawls parse, in first-parse order."""
    import repro.js.interpreter as interpreter

    seen = {}
    parse = interpreter.parse_program

    def recording(source, *memo):
        seen.setdefault(source)
        return parse(source, *memo)

    monkeypatch.setattr(interpreter, "parse_program", recording)
    run_crawls()
    monkeypatch.undo()
    return list(seen)


def fuzz_sources():
    cases = (generate_case(seed) for seed in range(2000))
    return [case.text for case in cases if case.kind.startswith("js")]


def test_crawl_and_fuzz_sources_parse_as_cold(monkeypatch):
    sources = crawl_sources(monkeypatch) + fuzz_sources()
    memo = {}
    taken = 0
    for source in sources:
        taken += hits(source, memo)
        assert parsed(source, memo) == parsed(source), source
    # The crawls' shared declarations are taken from the memo, page after page.
    assert taken > 300 and len(memo) > 50


#: Declarations a primer script puts in the memo.
MULTI_LINE = "function g(a, b) {\n  var c = a + b;\n\n  return c;\n}"
STRINGY = 'function q() { return "}" + \'function s() {}\'; /* } */ }'
PRIMER = "function f() { return 1; }\n" + MULTI_LINE + "\n" + STRINGY + "\nfunction k() {}"

HAND_MADE = {
    # Not at a statement start: the lexer must not collapse these.
    "named function expression": "var h = function f() { return 1; };",
    "argument": "call(function f() { return 1; });",
    "for header": "for (;function f() { return 1; };) { break; }",
    "if consequent": "if (x) function f() { return 1; }",
    "else branch": "if (x) {} else function f() { return 1; }",
    "nested": "function outer() { function f() { return 1; } return f; }",
    "in a block": "{ x(); function f() { return 1; } }",
    # Where the cold parse fails at the keyword, the collapsed one must too.
    "after a missing semicolon": "var a = 1\nfunction f() { return 1; }",
    "after an object literal": "x = {}\nfunction f() { return 1; }",
    "after a function expression": "x = function () {} function f() { return 1; }",
    "after an object argument": "call({} function f() { return 1; })",
    "before while": "do {} function f() { return 1; } while (0);",
    "after try": "try {} function f() { return 1; }",
    "called at once": "function f() { return 1; }()",
    # Statement starts: taken from the memo.
    "at the start": "function f() { return 1; } f();",
    "twice": "function f() { return 1; } function f() { return 1; }",
    "after an if": "if (x) {} function f() { return 1; }",
    "after an empty statement": "if (x) ; function k() {}",
    "after a declaration": "function k() {}function f() { return 1; }",
    "multi-line then an error": "var x = 1;\n" + MULTI_LINE + "\n\n  var = 2;",
    "multi-line then a lexer error": MULTI_LINE + "  x;\n   @",
    "crlf and tabs": "x;\r\n\t" + MULTI_LINE + "\r\n\ty = 'unterminated",
    "braces in a string and a comment": "x();\n" + STRINGY + "\nq();",
    "in a string": "var s = 'function f() { return 1; }'; function k() {}",
    "in a comment": "/* function f() { return 1; } */ x;\n// function k() {}\nfunction k() {}",
    "a longer name": "function f1() { return 1; }",
    "a name glued on": "function$x = 1; function f() { return 1; }",
    "unbalanced closer": "x); function f() { return 1; }",
}

#: How many declarations each hand-made case takes from the memo.
EXPECTED_HITS = {
    "after an object literal": 1,
    "after a function expression": 1,
    "before while": 1,
    "after try": 1,
    "called at once": 1,
    "at the start": 1,
    "twice": 2,
    "after an if": 1,
    "after an empty statement": 1,
    "after a declaration": 2,
    "multi-line then an error": 1,
    "multi-line then a lexer error": 1,
    "crlf and tabs": 1,
    "in a string": 1,
    "in a comment": 1,
    "a name glued on": 1,
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_a_memoised_text_reappearing(name):
    memo = {}
    parse_program(PRIMER, memo)
    # The string's brace misleads the scan, so that declaration never enters.
    assert sorted(declaration.name for declaration in memo.values()) == ["f", "g", "k"]
    source = HAND_MADE[name]
    assert hits(source, memo) == EXPECTED_HITS.get(name, 0)
    assert parsed(source, dict(memo)) == parsed(source)


def test_a_hit_reports_what_the_keyword_would():
    memo = {}
    parse_program(MULTI_LINE, memo)
    source = "x = {}\n\n  " + MULTI_LINE
    expected = "expected ';' but found 'function' (line 3, column 3)"
    assert parsed(source, memo) == (expected, 3, 3)
    assert parsed(source) == parsed(source, memo)


def test_the_lexer_resumes_with_the_full_lex_positions():
    memo = {}
    parse_program(MULTI_LINE, memo)
    source = "a;\r\n\t" + MULTI_LINE + " b\n  c /* \n */ d"
    full = Lexer(source).tokenize()
    collapsed = Lexer(source, memo).tokenize()
    spanned = len(Lexer(MULTI_LINE).tokenize()) - 1  # all but its EOF
    assert collapsed[:2] + collapsed[3:] == full[:2] + full[2 + spanned:]
    declaration = collapsed[2]
    assert declaration.type is TokenType.DECLARATION
    assert (declaration.value, declaration.line, declaration.column) == ("function", 2, 2)


def test_only_a_declaration_that_parsed_enters_the_memo():
    memo = {}
    assert isinstance(parsed("function f() { return 1; }\nvar = 1;", memo), tuple)
    assert list(memo) == ["function f() { return 1; }"]
    parsed("function$x() {}; function y() { ( }", memo)
    assert list(memo) == ["function f() { return 1; }"]


@pytest.mark.parametrize(
    "primer, later",
    [
        # The scan's span runs past the declaration, to a stray closer.
        ('function h() { s = "{"; } }', 'function h() { s = "{"; } }'),
        # A span that starts where a statement may but is no declaration.
        ("function$x = {a: 1}", "function$x = {a: 1} y();"),
    ],
)
def test_a_span_that_is_not_exactly_a_declaration_stays_out(primer, later):
    memo = {}
    parsed(primer, memo)
    assert memo == {}
    assert parsed(later, memo) == parsed(later)


def test_a_bare_interpreter_keeps_its_own_memo():
    first, second = Interpreter(), Interpreter()
    first.run_once("function f() { return 1; } f();")
    assert list(first.declarations) == ["function f() { return 1; }"]
    assert second.declarations == {}


def test_a_full_memo_is_cleared_before_the_next_script(monkeypatch):
    monkeypatch.setattr(Interpreter, "PROGRAM_MEMO_LIMIT", 2)
    interpreter = Interpreter()
    interpreter.run_once("function a() {} function b() {}")
    assert len(interpreter.declarations) == 2
    interpreter.run_once("function c() {}")
    assert list(interpreter.declarations) == ["function c() {}"]


def test_a_crawl_parses_each_declaration_text_once(monkeypatch):
    parsed_names = []
    declare = Parser._function_declaration

    def recording(parser):
        declaration = declare(parser)
        parsed_names.append(declaration.name)
        return declaration

    monkeypatch.setattr(Parser, "_function_declaration", recording)
    site = SyntheticYouTube(SiteConfig(num_videos=40, seed=7))
    crawler = AjaxCrawler(site)
    crawler.crawl(site.all_video_urls())
    # Only showPage embeds the video id: 40 texts, the other nine one each.
    counts = Counter(parsed_names)
    assert counts.pop("showPage") == 40
    assert len(counts) == 9 and set(counts.values()) == {1}
    assert len(crawler.browser.declarations) == 49
    # Another crawler starts cold: its first page parses all ten again.
    parsed_names.clear()
    AjaxCrawler(site).crawl(site.all_video_urls()[:1])
    assert len(parsed_names) == 10
