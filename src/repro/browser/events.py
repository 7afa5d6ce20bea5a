"""Event enumeration and addressing.

Chapter 2 models an AJAX page as states connected by transitions, each
triggered by a user event on a *source element*.  This module finds
those events (``on*`` attributes in the DOM) and gives each a locator
that survives DOM re-parsing, so a rolled-back page can re-resolve the
same source element.  The same walk (:func:`take`) takes a snapshot's
tree: it copies the tree and yields its serialized length, its id table
and its events in one pass.

Per section 3.2 ("Irrelevant events") only the most important event
types are considered by default: click, double-click, mouse-over and
mouse-down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from repro.dom import RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Document, Element
from repro.dom.serialize import escaped_length

#: Event attributes considered by default, most relevant first.
DEFAULT_EVENT_TYPES = ("onclick", "ondblclick", "onmouseover", "onmousedown")

#: The page-load event handled specially by the crawler (Algorithm 3.1.1).
ONLOAD = "onload"


@dataclass(frozen=True)
class ElementLocator:
    """Addresses an element by id when available, else by structural path.

    The structural path is the sequence of child indexes from the root,
    which stays valid across serialize/re-parse round trips (used after
    the crawler rolls a page back to an earlier state).
    """

    element_id: Optional[str]
    path: tuple[int, ...]

    def resolve(
        self, document: Document, by_id: Optional[Callable[[str], Optional[Element]]] = None
    ) -> Optional[Element]:
        """Find the addressed element in ``document`` (or ``None``); ``by_id``
        looks an id up in it (``Page.element_by_id``; default: a walk)."""
        if self.element_id is not None:
            found = (by_id or document.get_element_by_id)(self.element_id)
            if found is not None:
                return found
        node = document.root
        for index in self.path:
            children = [child for child in node.children if isinstance(child, Element)]
            if index >= len(children):
                return None
            node = children[index]
        return node if isinstance(node, Element) else None

    def describe(self) -> str:
        if self.element_id is not None:
            return f"#{self.element_id}"
        return "/" + "/".join(str(index) for index in self.path)


def locate(element: Element, document: Document, by_id: bool = True) -> ElementLocator:
    """Build a locator for ``element`` within ``document`` (by its path
    alone when not ``by_id``)."""
    path: list[int] = []
    node = element
    while node.parent is not None:
        siblings = [child for child in node.parent.children if isinstance(child, Element)]
        path.append(siblings.index(node))
        node = node.parent
    return ElementLocator(element.id if by_id else None, tuple(reversed(path)))


@dataclass(frozen=True)
class EventBinding:
    """One invocable event: where it sits and what script it runs.

    Corresponds to a table row of the thesis' event tables (Table 4.1):
    the source element, the trigger type and the handler code.

    ``input_value`` supports the forms extension (thesis future work):
    when set, dispatching first writes the value into the source input
    element, then runs the handler — simulating a user typing and
    triggering ``onkeyup``/``onchange``.
    """

    locator: ElementLocator
    event_type: str
    handler: str
    input_value: Optional[str] = None

    def describe(self) -> str:
        base = f"{self.event_type}@{self.locator.describe()}"
        if self.input_value is not None:
            return f"{base}[value={self.input_value!r}]"
        return base


def enumerate_events(
    document: Document,
    event_types: Iterable[str] = DEFAULT_EVENT_TYPES,
) -> list[EventBinding]:
    """All invocable events in ``document``, in document order
    (:func:`take`'s bindings)."""
    return take(document.root, event_types=event_types).bindings


class TakenTree(NamedTuple):
    """What :func:`take` yields: the walked root or its copy,
    ``len(serialize(root))``, ``id`` -> the first element of the tree
    carrying it, and every invocable event in document order."""

    root: Element
    length: int
    ids: dict[str, Element]
    bindings: list[EventBinding]


def take(
    root: Element, copy: bool = False, event_types: Iterable[str] = DEFAULT_EVENT_TYPES
) -> TakenTree:
    """Walk ``root``'s tree once, in pre-order, copying it when ``copy``
    (caches and all, as :meth:`~repro.dom.Node.clone` does).

    The walk measures its serialization and collects its id table and
    events, all read from the tree it returns.  The body ``onload`` is
    no event: Algorithm 3.1.1 runs it once during initialisation, not as
    a crawlable transition.  Only the first element carrying an id is
    located by it; a later duplicate's id would resolve to the first, so
    it is located by its path.
    """
    wanted = [(event_type, event_type.lower()) for event_type in event_types]
    ids: dict[str, Element] = {}
    bindings: list[EventBinding] = []
    taken = root._shallow(None) if copy else root
    length = _visit(root, taken, (), copy, wanted, ids, bindings)
    return TakenTree(taken, length, ids, bindings)


def _visit(element: Element, into: Element, path: tuple[int, ...], copy: bool,
           wanted: list[tuple[str, str]], ids: dict, bindings: list) -> int:
    """:func:`take` at ``element`` (``into`` in the taken tree, at
    ``path``): files its id and events, copies its children under
    ``into`` when ``copy``, and returns ``len(serialize(element))``."""
    tag, attrs = element.tag, element.attrs
    key = attrs.get("id")
    if key is not None and ids.setdefault(key, into) is not into:
        key = None
    length = 2 * len(tag) + 5  # <tag></tag>
    if attrs:
        for name, value in attrs.items():
            length += len(name) + escaped_length(value, True) + 4
        locator = None
        for event_type, name in wanted:
            handler = attrs.get(name)
            if handler:
                locator = locator or ElementLocator(key, path)
                bindings.append(EventBinding(locator, event_type, handler))
    children = element.children
    if not children:
        return length - len(tag) - 2 if tag in VOID_ELEMENTS else length  # <tag/>
    raw = tag in RAW_TEXT_ELEMENTS
    index = 0
    for child in children:
        if type(child) is Element:
            child_into = child._shallow(into) if copy else child
            if copy:
                into.children.append(child_into)
            length += _visit(child, child_into, (*path, index), copy, wanted, ids, bindings)
            index += 1
        else:
            length += len(child._data) if raw else escaped_length(child._data)
            if copy:
                into.children.append(child._copy(into))
    return length


def onload_handler(document: Document) -> Optional[str]:
    """The body's ``onload`` script, if any."""
    body = document.body
    if body is None:
        return None
    handler = body.get_attribute(ONLOAD)
    return handler or None
