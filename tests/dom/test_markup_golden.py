"""Equivalence golden for the HTML parser.

For every page and fragment the substrate crawls parse
(``tests/substrate_crawls.py``), and for the ``markup`` and
``markup-mutated`` cases among fuzz seeds 0-1999, it records a digest
of the parsed tree: tags, attributes in order, text and structure.
``markup_golden.json`` was recorded from the character-loop tokenizer;
the regex tokenizer that replaced it must build the same trees, quirks
included.

Rewrite after an intended change with
``PYTHONPATH=src python -m tests.dom.test_markup_golden --regen``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

from repro.dom import Element, Text
from repro.dom.parser import HtmlParser, parse_document
from repro.testgen.fuzz import generate_case
from tests.substrate_crawls import digest, run_crawls

GOLDEN = Path(__file__).with_name("markup_golden.json")

FUZZ_SEEDS = range(2000)


def tree_digest(nodes: list) -> str:
    """Digest of a node list in pre-order: ``<tag [[name, value], ...]``
    opens an element, ``>`` closes it, ``"text"`` is a text node."""
    parts: list[str] = []
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(">")
        elif isinstance(node, Text):
            parts.append(json.dumps(node.data))
        else:
            assert isinstance(node, Element)
            parts.append(f"<{node.tag} {json.dumps(list(node.attrs.items()))}")
            stack.append(None)
            stack.extend(reversed(node.children))
    return digest("\n".join(parts))


def crawl_entries() -> dict[str, str]:
    """``{input digest: tree digest}`` over every parse the crawls make,
    documents keyed with a ``d`` prefix and fragments with ``f``."""
    entries: dict[str, str] = {}
    parse_document_method = HtmlParser.parse_document
    parse_fragment = HtmlParser.parse_fragment
    parsing_document = []

    def recording_document(parser, html, url=""):
        parsing_document.append(html)
        try:
            document = parse_document_method(parser, html, url=url)
        finally:
            parsing_document.pop()
        entries["d" + digest(html)] = tree_digest([document.root])
        return document

    def recording_fragment(parser, html):
        nodes = parse_fragment(parser, html)
        if not parsing_document:
            entries["f" + digest(html)] = tree_digest(nodes)
        return nodes

    with mock.patch.object(HtmlParser, "parse_document", recording_document), mock.patch.object(
        HtmlParser, "parse_fragment", recording_fragment
    ):
        run_crawls()
    return dict(sorted(entries.items()))


def fuzz_entries() -> dict[str, str]:
    """``{seed: tree digest}`` per ``markup``/``markup-mutated`` fuzz seed."""
    entries = {}
    for seed in FUZZ_SEEDS:
        case = generate_case(seed)
        if case.kind.startswith("markup"):
            document = parse_document(case.text, url="http://fuzz.test/")
            entries[str(seed)] = tree_digest([document.root])
    return entries


def first_difference(name: str, got: dict, want: dict) -> str:
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return f"{name}[{key}]: got {got.get(key)}, golden {want.get(key)}"
    return f"{name}: equal"


def test_crawled_markup_parses_as_recorded():
    golden = json.loads(GOLDEN.read_text())
    got = crawl_entries()
    assert got == golden["crawls"], first_difference("crawls", got, golden["crawls"])
    assert sum(key.startswith("f") for key in got) > 100


def test_fuzz_markup_parses_as_recorded():
    golden = json.loads(GOLDEN.read_text())
    got = fuzz_entries()
    assert got == golden["fuzz"], first_difference("fuzz", got, golden["fuzz"])
    assert len(got) == 1000


def write_golden() -> None:
    recorded = {"crawls": crawl_entries(), "fuzz": fuzz_entries()}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"{GOLDEN}: {len(recorded['crawls'])} crawled inputs, {len(recorded['fuzz'])} fuzz cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.dom.test_markup_golden --regen")
    write_golden()
