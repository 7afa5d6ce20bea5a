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
    if "&" not in text:
        return text

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


#: A start or end tag's head: ``<`` or ``</``, a name of Unicode
#: alphanumerics, ``-``, ``_`` and ``:``, and, when no attribute
#: follows, the tag's end (group 3).
_TAG_HEAD = re.compile(r"<(/?)([\w:-]+)(?:\s*(/?>))?")

#: One step inside a tag, after whitespace: the tag's end (``>`` or
#: ``/>``, group 1), or one attribute: a name (group 2) running to ``=``,
#: ``/``, ``>`` or a space, tab, CR or LF (so U+000C and U+00A0 stay in
#: it), then optionally ``=`` and a double-quoted (3), single-quoted (4)
#: or bare (5) value.  A quote left open runs to the end of the input.
#: The name may be empty (at ``=`` or a ``/`` not before ``>``).  Every
#: part after the whitespace is a plain run with no alternative to fall
#: back to, so a match takes time linear in what it consumes.
_TAG_STEP = re.compile(
    r"""\s*(?:(/?>)|([^=/>\ \t\r\n]*)\s*(?:=\s*(?:"([^"]*)"?|'([^']*)'?|([^/>\ \t\r\n]*)))?)"""
)


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
        """Parse markup into a list of sibling nodes (for ``innerHTML``).

        The nodes are fresh, so they are linked directly (``parent`` and
        ``children``), not through :meth:`Element.append_child`, which
        would detach and invalidate what has nothing to undo.
        """
        root = Element("#fragment")
        stack: list[Element] = [root]
        parent = root
        pos = 0
        length = len(html)
        while pos < length:
            lt = html.find("<", pos)
            if lt == -1:
                _append(parent, Text(unescape(html[pos:])))
                break
            if lt > pos:
                _append(parent, Text(unescape(html[pos:lt])))
            head = _TAG_HEAD.match(html, lt)
            if head is None:
                if html.startswith("<!--", lt):
                    end = html.find("-->", lt + 4)
                    pos = length if end == -1 else end + 3
                elif html.startswith("<!", lt):  # doctype or other declaration
                    end = html.find(">", lt)
                    pos = length if end == -1 else end + 1
                else:  # a bare '<' that is not a tag: treat as text
                    _append(parent, Text("<"))
                    pos = lt + 1
                continue
            closing, name, end = head.groups()
            name = name.lower()
            pos = head.end()
            attrs: dict[str, str] = {}
            while end is None:
                step = _TAG_STEP.match(html, pos)
                pos = step.end()
                end, attr_name, double, single, bare = step.groups()
                if attr_name:
                    value = double if double is not None else single if single is not None else bare
                    attrs[attr_name.lower()] = "" if value is None else unescape(value)
                elif end is None:
                    if pos >= length:
                        break  # the tag runs to the end of the input
                    pos += 1  # skip an unparsable character
            if closing:
                for depth in range(len(stack) - 1, 0, -1):
                    if stack[depth].tag == name:
                        del stack[depth:]
                        parent = stack[-1]
                        break
                # A close tag that matches nothing is ignored.
                continue
            element = Element(name, attrs)
            _append(parent, element)
            if end == "/>" or name in VOID_ELEMENTS:
                continue
            if name in RAW_TEXT_ELEMENTS:
                close = _RAW_TEXT_CLOSE[name].search(html, pos)
                if close is None:
                    body_end = close_end = length
                else:
                    body_end = close.start()
                    close_end = html.find(">", body_end)
                    close_end = length if close_end == -1 else close_end + 1
                if body_end > pos:
                    _append(element, Text(html[pos:body_end]))
                pos = close_end
                continue
            stack.append(element)
            parent = element
        children = root.children
        for child in children:
            child.parent = None
        return children

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _find_root(children: list[Node]) -> Element | None:
        for child in children:
            if isinstance(child, Element) and child.tag == "html":
                return child
        return None


def _append(parent: Element, child: Node) -> None:
    """Link a freshly built ``child`` as the last child of ``parent``."""
    child.parent = parent
    parent.children.append(child)


_DEFAULT_PARSER = HtmlParser()


def parse_document(html: str, url: str = "") -> Document:
    """Parse a full document with the default (lenient) parser."""
    return _DEFAULT_PARSER.parse_document(html, url=url)


def parse_fragment(html: str) -> list[Node]:
    """Parse a markup fragment with the default (lenient) parser."""
    return _DEFAULT_PARSER.parse_fragment(html)
