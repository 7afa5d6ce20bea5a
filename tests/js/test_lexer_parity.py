"""The lexer's output is pinned to what the character-at-a-time lexer
it replaced produced.

Token ``(type, value, line, column)`` streams over every source a crawl
of the synthetic sites lexes, and ``(message, line, column)`` of every
malformed input, were recorded into ``lexer_pins.json`` on the commit
before the master-pattern lexer landed, by running this file as a script
against that commit's ``src``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.crawler import AjaxCrawler
from repro.errors import JsSyntaxError
from repro.js import tokenize
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube
from repro.testgen.conformance import crawl_generated
from repro.testgen.generator import generate_site


def _sources_lexed(monkeypatch, crawl):
    """Distinct sources handed to ``parse_program`` while ``crawl`` runs."""
    import repro.js.interpreter as interpreter

    seen = set()
    parse = interpreter.parse_program

    def recording(source):
        seen.add(source)
        return parse(source)

    monkeypatch.setattr(interpreter, "parse_program", recording)
    crawl()
    monkeypatch.undo()
    return sorted(seen)


def _crawl_tube():
    site = SyntheticYouTube(SiteConfig(num_videos=40, seed=7))
    AjaxCrawler(site).crawl(site.all_video_urls())


def _crawl_webmail():
    site = SyntheticWebmail()
    AjaxCrawler(site).crawl([site.inbox_url])


def _crawl_generated():
    for seed in range(20):
        crawl_generated(generate_site(seed))


CORPORA = {"tube": _crawl_tube, "webmail": _crawl_webmail, "testgen": _crawl_generated}


def stream_digest(sources):
    """[sources, tokens, sha256 of every token's type/value/line/column]."""
    digest = hashlib.sha256()
    tokens = 0
    for source in sources:
        for token in tokenize(source):
            tokens += 1
            digest.update(
                repr((token.type.name, token.value, token.line, token.column)).encode()
            )
        digest.update(b"\x00")
    return [len(sources), tokens, digest.hexdigest()]


PINS_PATH = Path(__file__).with_name("lexer_pins.json")

TOKEN_CASES = [
    ".5",
    "1.e3 1.5.3 0x 0xFFg 07 1..2 a.b.c x.5",
    "1e+5 2E-3 .5e1 3.",
    "٣ + 1² .²",
    "café = π + _$1 + $",
    "a² b½ ²x",
    "a.π .π",
    "'a\\\nb' c\n d",
    r'"\x41B\n\t\r\b\f\v\0\\\'\"\/\q" + ' + r"'it\'s'",
    '"plain" \'single\' "" \'\'',
    "a/*x\n\ny*/b//c\n  d /**/ e /***/ f",
    "a\r\n\tb \r c",
    "x === y !== z == w != v <= u >= t && s || r ++ -- += -= *= /= %= ! ? : ; , . [ ] { } ( ) < > = + - * / %",
    "a===!==b",
    "if iff function functions $this this typeof undefined",
    "",
    "  \n\n  ",
    "// only a comment",
    "a //",
]

ERROR_CASES = [
    "1e",
    "1e+",
    "2.5E-x",
    "/* unterminated",
    "a\n  /* b\nc",
    "/*/",
    '"\\u12"',
    '"\\x4',
    '"a\nb"',
    "\n 'abc",
    '"abc\\',
    '"a\\\nb\nc"',
    "a # b",
    "x\n  @",
    "a \x0c b",
    "a   b",
    "a & b",
    "a | b",
    "~a",
    "a ^ b",
    "`t`",
    "\\",
]


def tokens_of(source):
    return [[t.type.name, t.value, t.line, t.column] for t in tokenize(source)]


def error_of(source):
    try:
        tokenize(source)
    except JsSyntaxError as error:
        return [str(error), error.line, error.column]
    return None


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_token_streams_of_crawled_sources(monkeypatch, pins, corpus):
    sources = _sources_lexed(monkeypatch, CORPORA[corpus])
    assert stream_digest(sources) == pins["streams"][corpus]


@pytest.mark.parametrize("source", TOKEN_CASES)
def test_token_positions(pins, source):
    assert tokens_of(source) == pins["tokens"][source]


@pytest.mark.parametrize("source", ERROR_CASES)
def test_error_positions(pins, source):
    assert pins["errors"][source] is not None
    assert error_of(source) == pins["errors"][source]


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    PINS_PATH.write_text(
        json.dumps(
            {
                "streams": {
                    name: stream_digest(_sources_lexed(patch, crawl))
                    for name, crawl in CORPORA.items()
                },
                "tokens": {source: tokens_of(source) for source in TOKEN_CASES},
                "errors": {source: error_of(source) for source in ERROR_CASES},
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
