"""A lenient HTML tokenizer and tree builder.

Covers the subset of HTML the synthetic sites (and realistic AJAX pages)
use: nested elements, quoted/unquoted attributes, void elements,
``<script>``/``<style>`` raw-text bodies, comments, doctypes and the five
predefined character entities plus numeric references.

The parser is forgiving like a browser: unmatched close tags pop to the
nearest matching ancestor and stray close tags are dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.dom.node import (
    Document,
    Element,
    Node,
    RAW_TEXT_ELEMENTS,
    Text,
    VOID_ELEMENTS,
)

_ENTITY_RE = re.compile(r"&(#x?[0-9a-fA-F]+|[a-zA-Z]+);")

#: Where the body of a raw-text element ends: its close tag, in any case
#: (ASCII folding only, as ``str.lower`` on the tag name gave).
_RAW_TEXT_CLOSE = {
    name: re.compile(f"</{name}", re.IGNORECASE | re.ASCII) for name in RAW_TEXT_ELEMENTS
}

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}


def unescape(text: str) -> str:
    """Resolve the supported character entities in ``text``; a numeric
    reference to no character stays as written."""

    def _replace(match: re.Match[str]) -> str:
        body = match.group(1)
        if not body.startswith("#"):
            return _NAMED_ENTITIES.get(body.lower(), match.group(0))
        try:
            code = int(body[2:], 16) if body[1] == "x" else int(body[1:])
            if not 0xD800 <= code <= 0xDFFF:  # a surrogate is no character
                return chr(code)
        except (ValueError, OverflowError):  # not decimal, or past U+10FFFF
            pass
        return match.group(0)  # left as written, like an unknown name

    return _ENTITY_RE.sub(_replace, text)


@dataclass
class _Tag:
    """A parsed start or end tag."""

    name: str
    attrs: dict[str, str]
    closing: bool
    self_closing: bool
    end: int  # index just past the tag in the source


class HtmlParser:
    """Parses HTML text into :class:`~repro.dom.node.Document` trees."""

    # -- public API ----------------------------------------------------------

    def parse_document(self, html: str, url: str = "") -> Document:
        """Parse a complete document; synthesizes ``<html>`` if absent."""
        children = self.parse_fragment(html)
        root = self._find_root(children)
        if root is None:
            root = Element("html")
            body = Element("body")
            root.append_child(body)
            for child in children:
                body.append_child(child)
        return Document(root, url=url)

    def parse_fragment(self, html: str) -> list[Node]:
        """Parse markup into a list of sibling nodes (for ``innerHTML``)."""
        root = Element("#fragment")
        stack: list[Element] = [root]
        pos = 0
        length = len(html)
        while pos < length:
            lt = html.find("<", pos)
            if lt == -1:
                self._append_text(stack[-1], html[pos:])
                break
            if lt > pos:
                self._append_text(stack[-1], html[pos:lt])
            pos = self._consume_markup(html, lt, stack)
        return self._take_children(root)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _take_children(root: Element) -> list[Node]:
        children = list(root.children)
        for child in children:
            child.parent = None
        root.children.clear()
        return children

    @staticmethod
    def _find_root(children: list[Node]) -> Element | None:
        for child in children:
            if isinstance(child, Element) and child.tag == "html":
                return child
        return None

    @staticmethod
    def _append_text(parent: Element, raw: str) -> None:
        if not raw:
            return
        parent.append_child(Text(unescape(raw)))

    def _consume_markup(self, html: str, lt: int, stack: list[Element]) -> int:
        """Handle the markup starting at index ``lt``; return the next index."""
        if html.startswith("<!--", lt):
            end = html.find("-->", lt + 4)
            return len(html) if end == -1 else end + 3
        if html.startswith("<!", lt):  # doctype or other declaration
            end = html.find(">", lt)
            return len(html) if end == -1 else end + 1
        tag = self._read_tag(html, lt)
        if tag is None:
            # A bare '<' that is not a tag: treat as text.
            self._append_text(stack[-1], "<")
            return lt + 1
        if tag.closing:
            self._close_tag(tag, stack)
            return tag.end
        return self._open_tag(html, tag, stack)

    def _open_tag(self, html: str, tag: _Tag, stack: list[Element]) -> int:
        element = Element(tag.name, tag.attrs)
        stack[-1].append_child(element)
        if tag.self_closing or tag.name in VOID_ELEMENTS:
            return tag.end
        if tag.name in RAW_TEXT_ELEMENTS:
            close = _RAW_TEXT_CLOSE[tag.name].search(html, tag.end)
            if close is None:
                end = close_end = len(html)
            else:
                end = close.start()
                close_end = html.find(">", end)
                close_end = len(html) if close_end == -1 else close_end + 1
            raw = html[tag.end:end]
            if raw:
                element.append_child(Text(raw))
            return close_end
        stack.append(element)
        return tag.end

    def _close_tag(self, tag: _Tag, stack: list[Element]) -> None:
        for depth in range(len(stack) - 1, 0, -1):
            if stack[depth].tag == tag.name:
                del stack[depth:]
                return
        # A close tag that matches nothing is ignored.

    def _read_tag(self, html: str, lt: int) -> _Tag | None:
        pos = lt + 1
        length = len(html)
        closing = False
        if pos < length and html[pos] == "/":
            closing = True
            pos += 1
        name_start = pos
        while pos < length and (html[pos].isalnum() or html[pos] in "-_:"):
            pos += 1
        if pos == name_start:
            return None
        name = html[name_start:pos].lower()
        attrs: dict[str, str] = {}
        self_closing = False
        while pos < length:
            while pos < length and html[pos].isspace():
                pos += 1
            if pos >= length:
                break
            char = html[pos]
            if char == ">":
                pos += 1
                return _Tag(name, attrs, closing, self_closing, pos)
            if char == "/" and pos + 1 < length and html[pos + 1] == ">":
                self_closing = True
                pos += 2
                return _Tag(name, attrs, closing, self_closing, pos)
            attr_name, attr_value, pos = self._read_attribute(html, pos)
            if attr_name:
                attrs[attr_name] = attr_value
            else:
                pos += 1  # skip an unparsable character
        return _Tag(name, attrs, closing, self_closing, length)

    @staticmethod
    def _read_attribute(html: str, pos: int) -> tuple[str, str, int]:
        length = len(html)
        name_start = pos
        while pos < length and html[pos] not in "=/> \t\r\n":
            pos += 1
        name = html[name_start:pos].lower()
        while pos < length and html[pos].isspace():
            pos += 1
        if pos >= length or html[pos] != "=":
            return name, "", pos
        pos += 1
        while pos < length and html[pos].isspace():
            pos += 1
        if pos < length and html[pos] in "\"'":
            quote = html[pos]
            pos += 1
            value_start = pos
            end = html.find(quote, pos)
            if end == -1:
                return name, unescape(html[value_start:]), length
            return name, unescape(html[value_start:end]), end + 1
        value_start = pos
        while pos < length and html[pos] not in "/> \t\r\n":
            pos += 1
        return name, unescape(html[value_start:pos]), pos


_DEFAULT_PARSER = HtmlParser()


def parse_document(html: str, url: str = "") -> Document:
    """Parse a full document with the default (lenient) parser."""
    return _DEFAULT_PARSER.parse_document(html, url=url)


def parse_fragment(html: str) -> list[Node]:
    """Parse a markup fragment with the default (lenient) parser."""
    return _DEFAULT_PARSER.parse_fragment(html)
