"""Serialization of DOM trees back to HTML text.

Serialization is the inverse of parsing for the supported subset and is
also the basis of state hashing: two states are "the same" when their
canonical serializations hash equal (section 3.2 of the thesis).
"""

from __future__ import annotations

from repro.dom.node import (
    Document,
    Element,
    Node,
    RAW_TEXT_ELEMENTS,
    Text,
    VOID_ELEMENTS,
)


def escape_text(text: str) -> str:
    """Escape character data for inclusion in markup."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for inclusion in a double-quoted attribute."""
    return escape_text(value).replace('"', "&quot;")


def escaped_length(text: str, attribute: bool = False) -> int:
    """``len(escape_attribute(text))`` when ``attribute``, else
    ``len(escape_text(text))``, without building the escaped text."""
    length = len(text)
    if "&" in text or "<" in text or ">" in text or (attribute and '"' in text):
        length += 4 * text.count("&") + 3 * (text.count("<") + text.count(">"))
        if attribute:
            length += 5 * text.count('"')
    return length


def serialize(node: Node | Document) -> str:
    """Serialize a node (or whole document) to HTML text."""
    parts: list[str] = []
    if isinstance(node, Document):
        _serialize_into(node.root, parts)
    else:
        _serialize_into(node, parts)
    return "".join(parts)


def inner_html(element: Element) -> str:
    """Serialize just the children of ``element`` (the DOM ``innerHTML``)."""
    parts: list[str] = []
    for child in element.children:
        _serialize_into(child, parts, raw=element.tag in RAW_TEXT_ELEMENTS)
    return "".join(parts)


def _serialize_into(node: Node, parts: list[str], raw: bool = False) -> None:
    if isinstance(node, Text):
        parts.append(node.data if raw else escape_text(node.data))
        return
    if not isinstance(node, Element):
        raise TypeError(f"cannot serialize {type(node).__name__}")
    parts.append("<")
    parts.append(node.tag)
    for name in sorted(node.attrs):
        parts.append(f' {name}="{escape_attribute(node.attrs[name])}"')
    if node.tag in VOID_ELEMENTS and not node.children:
        parts.append("/>")
        return
    parts.append(">")
    child_raw = node.tag in RAW_TEXT_ELEMENTS
    for child in node.children:
        _serialize_into(child, parts, raw=child_raw)
    parts.append(f"</{node.tag}>")
