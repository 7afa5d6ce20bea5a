"""DOM substrate: tree model, HTML parser, serializer and state hashing.

This package replaces the COBRA HTML toolkit the thesis used: it supplies
exactly the DOM operations the AJAX crawler and the browser substrate
need (parse, mutate via ``innerHTML``, enumerate events, hash states).
"""

from repro.dom.node import (
    Document,
    Element,
    Node,
    RAW_TEXT_ELEMENTS,
    Text,
    VOID_ELEMENTS,
)
from repro.dom.parser import HtmlParser, parse_document, parse_fragment, unescape
from repro.dom.serialize import escape_attribute, escape_text, inner_html, serialize
from repro.dom.hashing import (
    DomHashes,
    HashStats,
    changed_regions,
    clear_digest_memo,
    hash_tree,
    reference_region_hashes,
    reference_state_hash,
)
from repro.dom.simhash import (
    bands_for_threshold,
    band_keys,
    hamming,
    simhash64,
    state_features,
)

__all__ = [
    "Document",
    "Element",
    "Node",
    "Text",
    "RAW_TEXT_ELEMENTS",
    "VOID_ELEMENTS",
    "HtmlParser",
    "parse_document",
    "parse_fragment",
    "unescape",
    "serialize",
    "inner_html",
    "escape_text",
    "escape_attribute",
    "changed_regions",
    "hash_tree",
    "DomHashes",
    "HashStats",
    "reference_state_hash",
    "reference_region_hashes",
    "clear_digest_memo",
    "simhash64",
    "hamming",
    "band_keys",
    "bands_for_threshold",
    "state_features",
]
