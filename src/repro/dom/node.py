"""A small DOM tree: documents, elements and text nodes.

The crawler only needs a focused subset of the W3C DOM: tree construction,
attribute access, ``innerHTML`` get/set, ``getElementById`` and text
extraction.  Everything here is plain Python objects — no external
dependencies — mirroring what the thesis obtained from the COBRA toolkit.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.errors import DomError

#: Elements that never have children and never get a closing tag.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)

#: Elements whose body is raw text (no nested markup is parsed inside).
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})


class Node:
    """Base class of every node in the tree.

    Nodes are slotted: a crawl holds hundreds of thousands of them, and
    :meth:`clone` copies them field by field.
    """

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[Element] = None

    def _invalidate_ancestors(self) -> None:
        """Clear cached subtree digests on every ancestor (dirty bit).

        Propagation stops at the first already-dirty ancestor: its own
        ancestors were invalidated when it went dirty, so the walk is
        O(clean prefix), not O(depth), under repeated mutation.
        """
        node = self.parent
        while node is not None and node._canon_bytes is not None:
            node._canon_bytes = None
            node._canon_digest = None
            node._region_items = None
            node._node_count = None
            node = node.parent

    def detach(self) -> None:
        """Remove this node from its parent, if any."""
        if self.parent is not None:
            self.parent.remove_child(self)

    def clone(self):
        """A detached deep copy of the subtree, carrying over clean
        hash caches (used to restore page snapshots without losing the
        Merkle digests of unchanged regions)."""
        return self._copy(None)

    @property
    def owner_document(self) -> Optional["Document"]:
        """The :class:`Document` this node ultimately hangs off, if any."""
        node: Optional[Node] = self
        while node is not None:
            if isinstance(node, Element) and node._document is not None:
                return node._document
            node = node.parent
        return None


class Text(Node):
    """A run of character data."""

    __slots__ = ("_data", "_hash_bytes")

    def __init__(self, data: str) -> None:
        super().__init__()
        self._data = data
        #: Cached escaped hash-stream bytes of this run (None = dirty).
        self._hash_bytes: Optional[bytes] = None

    @property
    def data(self) -> str:
        return self._data

    @data.setter
    def data(self, value: str) -> None:
        self._data = value
        self._hash_bytes = None
        self._invalidate_ancestors()

    def _copy(self, parent: Optional["Element"]) -> "Text":
        copy = Text.__new__(Text)
        copy.parent = parent
        copy._data = self._data
        copy._hash_bytes = self._hash_bytes
        return copy

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class Element(Node):
    """An element node: tag name, attributes and ordered children."""

    __slots__ = (
        "tag", "attrs", "children", "_document",
        "_canon_bytes", "_canon_digest", "_region_items", "_node_count", "_open_bytes",
    )

    def __init__(self, tag: str, attrs: Optional[dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: dict[str, str] = dict(attrs or {})
        self.children: list[Node] = []
        # Set on the root element by Document so owner_document resolves.
        self._document: Optional[Document] = None
        # -- Merkle hash cache (maintained by repro.dom.hashing) ------------
        #: Canonical hash-stream bytes of the whole subtree (None = dirty).
        self._canon_bytes: Optional[bytes] = None
        #: Hex SHA-256 of ``_canon_bytes`` (lazily computed, None = unknown).
        self._canon_digest: Optional[str] = None
        #: Cached ``(id, digest)`` region entries of the subtree, pre-order.
        self._region_items: Optional[tuple[tuple[str, str], ...]] = None
        #: Nodes in the subtree including self (for skip accounting).
        self._node_count: Optional[int] = None
        #: Cached open-tag bytes ``<tag a="v" ...>`` (attrs-dependent only).
        self._open_bytes: Optional[bytes] = None

    def _invalidate(self) -> None:
        """Mark this subtree's cached digest dirty and propagate upward."""
        self._canon_bytes = None
        self._canon_digest = None
        self._region_items = None
        self._node_count = None
        self._invalidate_ancestors()

    def _save(self) -> tuple:
        """What one mutator call on this element can overwrite, for
        :meth:`_reinstate`: its children, its attributes with the bytes
        derived from them, and the four digest fields of every node
        :meth:`_invalidate` would clear (this element, then ancestors up
        to the first one that is already dirty)."""
        caches = []
        node: Optional[Element] = self
        while node is not None and (node is self or node._canon_bytes is not None):
            caches.append(
                (node, node._canon_bytes, node._canon_digest,
                 node._region_items, node._node_count)
            )
            node = node.parent
        return self, self.children.copy(), self.attrs.copy(), self._open_bytes, caches

    @staticmethod
    def _reinstate(saved: tuple) -> None:
        """Undo every write made to an element since :meth:`_save`.

        Exact only when later saves were reinstated first (newest to
        oldest): children gained since lose their parent, the saved ones
        get theirs back, so a node moved between two saved elements ends
        up under whichever held it first.
        """
        element, children, attrs, open_bytes, caches = saved
        for child in element.children:
            child.parent = None
        for child in children:
            child.parent = element
        element.children = children
        element.attrs = attrs
        element._open_bytes = open_bytes
        for node, canon_bytes, canon_digest, region_items, node_count in caches:
            node._canon_bytes = canon_bytes
            node._canon_digest = canon_digest
            node._region_items = region_items
            node._node_count = node_count
        # Whatever is above the last saved node was dirty at the save; a
        # hash pass since may have filled it with what is being undone.
        node._invalidate_ancestors()

    def _copy(self, parent: Optional["Element"]) -> "Element":
        # Allocated and filled field by field: no constructor re-derives
        # (tag.lower(), dict(attrs)) what the original already holds.
        copy = Element.__new__(Element)
        copy.parent = parent
        copy.tag = self.tag
        copy.attrs = self.attrs.copy()
        copy._document = None
        copy._canon_bytes = self._canon_bytes
        copy._canon_digest = self._canon_digest
        copy._region_items = self._region_items
        copy._node_count = self._node_count
        copy._open_bytes = self._open_bytes
        copy.children = [child._copy(copy) for child in self.children]
        return copy

    # -- tree manipulation -------------------------------------------------

    def append_child(self, child: Node) -> Node:
        """Append ``child``, detaching it from any previous parent."""
        if child is self:
            raise DomError("an element cannot be its own child")
        child.detach()
        child.parent = self
        self.children.append(child)
        self._invalidate()
        return child

    def insert_before(self, new: Node, reference: Optional[Node]) -> Node:
        """Insert ``new`` before ``reference`` (or append when ``None``)."""
        if reference is None:
            return self.append_child(new)
        try:
            index = self.children.index(reference)
        except ValueError:
            raise DomError("reference node is not a child of this element") from None
        new.detach()
        new.parent = self
        self.children.insert(index, new)
        self._invalidate()
        return new

    def remove_child(self, child: Node) -> Node:
        """Remove ``child`` from this element."""
        try:
            self.children.remove(child)
        except ValueError:
            raise DomError("node is not a child of this element") from None
        child.parent = None
        self._invalidate()
        return child

    def replace_children(self, new_children: list[Node]) -> None:
        """Atomically replace all children (used by ``innerHTML`` set)."""
        old, self.children = self.children, []
        for child in old:
            child.parent = None
        for child in new_children:
            if child is self:
                raise DomError("an element cannot be its own child")
            child.detach()
            child.parent = self
            self.children.append(child)
        if old or new_children:
            self._invalidate()

    # -- attributes ---------------------------------------------------------

    def get_attribute(self, name: str) -> Optional[str]:
        """The value of attribute ``name`` or ``None``."""
        return self.attrs.get(name.lower())

    def set_attribute(self, name: str, value: str) -> None:
        """Set attribute ``name`` to ``value``."""
        self.attrs[name.lower()] = value
        self._open_bytes = None
        self._invalidate()

    def has_attribute(self, name: str) -> bool:
        """Whether attribute ``name`` is present."""
        return name.lower() in self.attrs

    def remove_attribute(self, name: str) -> None:
        """Drop attribute ``name`` if present."""
        self.attrs.pop(name.lower(), None)
        self._open_bytes = None
        self._invalidate()

    @property
    def id(self) -> Optional[str]:
        """Shorthand for the ``id`` attribute."""
        return self.attrs.get("id")

    # -- traversal ----------------------------------------------------------

    def iter_descendants(self) -> Iterator[Node]:
        """Depth-first pre-order iteration over all descendant nodes."""
        stack: list[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Depth-first iteration over descendant *elements* only."""
        for node in self.iter_descendants():
            if isinstance(node, Element):
                yield node

    def find_all(self, predicate: Callable[["Element"], bool]) -> list["Element"]:
        """All descendant elements matching ``predicate``."""
        return [element for element in self.iter_elements() if predicate(element)]

    def get_elements_by_tag(self, tag: str) -> list["Element"]:
        """All descendant elements with the given tag name."""
        tag = tag.lower()
        return self.find_all(lambda element: element.tag == tag)

    def get_element_by_id(self, element_id: str) -> Optional["Element"]:
        """First element in document order with ``id == element_id``,
        this element included."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                if node.attrs.get("id") == element_id:
                    return node
                stack.extend(reversed(node.children))
        return None

    # -- content ------------------------------------------------------------

    @property
    def text_content(self) -> str:
        """Concatenation of all descendant text, script/style excluded."""
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        if self.tag in RAW_TEXT_ELEMENTS:
            return
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.data)
            elif isinstance(child, Element):
                child._collect_text(parts)

    def __repr__(self) -> str:
        element_id = self.attrs.get("id")
        suffix = f" id={element_id!r}" if element_id else ""
        return f"<Element {self.tag}{suffix} children={len(self.children)}>"


class Document:
    """A parsed HTML document: the root element plus convenience lookups."""

    def __init__(self, root: Element, url: str = "") -> None:
        self.root = root
        self.url = url
        root._document = self

    @property
    def body(self) -> Optional[Element]:
        """The ``<body>`` element, if present."""
        if self.root.tag == "body":
            return self.root
        elements = self.root.get_elements_by_tag("body")
        return elements[0] if elements else None

    @property
    def head(self) -> Optional[Element]:
        """The ``<head>`` element, if present."""
        elements = self.root.get_elements_by_tag("head")
        return elements[0] if elements else None

    def clone(self) -> "Document":
        """A deep copy of the document that keeps the clean Merkle hash
        caches of every node (snapshot restoration without re-hashing)."""
        return Document(self.root.clone(), url=self.url)

    def create_element(self, tag: str, attrs: Optional[dict[str, str]] = None) -> Element:
        """Create a detached element owned by this document."""
        return Element(tag, attrs)

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        """Look up an element anywhere in the document by its ``id``."""
        return self.root.get_element_by_id(element_id)

    def get_elements_by_tag(self, tag: str) -> list[Element]:
        """All elements in the document with the given tag."""
        tag = tag.lower()
        result = [self.root] if self.root.tag == tag else []
        result.extend(self.root.get_elements_by_tag(tag))
        return result

    @property
    def text_content(self) -> str:
        """All visible text of the document."""
        return self.root.text_content

    def __repr__(self) -> str:
        return f"Document(url={self.url!r})"
