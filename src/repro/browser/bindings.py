"""Host bindings exposing the DOM to page scripts.

``document`` and element objects are thin :class:`HostObject` wrappers
over the :mod:`repro.dom` tree.  Mutations performed by scripts (most
importantly ``innerHTML`` assignment, the action of every transition in
the thesis' event model, Figure 2.1) all go through ``Page.write``,
which journals them for rollback and flags the owning page as dirty so
the crawler can detect that an event changed the DOM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.dom import Element, Text, inner_html
from repro.errors import JsTypeError
from repro.js.values import HostObject, NativeFunction, UNDEFINED, to_string

if TYPE_CHECKING:  # pragma: no cover
    from repro.browser.page import Page


class ElementHost(HostObject):
    """Script-side view of one :class:`~repro.dom.Element`."""

    host_class = "HTMLElement"

    def __init__(self, element: Element, page: "Page") -> None:
        self.element = element
        self.page = page

    def js_get(self, name: str) -> Any:
        element = self.element
        if name == "innerHTML":
            return inner_html(element)
        if name == "id":
            return element.id or ""
        if name == "tagName":
            return element.tag.upper()
        if name == "textContent":
            return element.text_content
        if name == "value":
            # Form controls: the live value is mirrored in the attribute
            # so that snapshots and state hashes include it.
            return element.get_attribute("value") or ""
        if name == "name":
            return element.get_attribute("name") or ""
        if name == "type":
            return element.get_attribute("type") or ""
        if name == "parentNode":
            if element.parent is None:
                return None
            return self.page.wrap_element(element.parent)
        if name == "getAttribute":
            return NativeFunction("getAttribute", self._js_get_attribute)
        if name == "setAttribute":
            return NativeFunction("setAttribute", self._js_set_attribute)
        if name == "appendChild":
            return NativeFunction("appendChild", self._js_append_child)
        if name == "getElementsByTagName":
            return NativeFunction("getElementsByTagName", self._js_by_tag)
        if name == "style":
            # Accept style reads/writes without modelling CSS.
            return _StyleHost(self)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        element = self.element
        if name == "innerHTML":
            markup = to_string(value)
            nodes = self.page.fragment(markup)
            self.page.write(element, Element.replace_children, nodes, parse_bytes=len(markup))
            return
        if name == "textContent":
            self.page.write(element, Element.replace_children, [Text(to_string(value))])
            return
        if name == "id":
            self.page.write(element, Element.set_attribute, "id", to_string(value))
            return
        if name == "value":
            self.page.write(element, Element.set_attribute, "value", to_string(value))
            return
        raise JsTypeError(f"cannot set element property {name!r}")

    def js_keys(self) -> list[str]:
        return ["innerHTML", "id", "tagName", "textContent"]

    # -- methods ---------------------------------------------------------------

    def _js_get_attribute(self, interp: Any, this: Any, args: list[Any]) -> Any:
        value = self.element.get_attribute(to_string(args[0]) if args else "")
        return value if value is not None else None

    def _js_set_attribute(self, interp: Any, this: Any, args: list[Any]) -> Any:
        if len(args) < 2:
            raise JsTypeError("setAttribute(name, value)")
        name, value = to_string(args[0]), to_string(args[1])
        self.page.write(self.element, Element.set_attribute, name, value)
        return UNDEFINED

    def _js_append_child(self, interp: Any, this: Any, args: list[Any]) -> Any:
        child = args[0] if args else None
        if not isinstance(child, ElementHost):
            raise JsTypeError("appendChild expects an element")
        self.page.write(self.element, Element.append_child, child.element)
        return child

    def _js_by_tag(self, interp: Any, this: Any, args: list[Any]) -> Any:
        from repro.js.values import JSArray

        tag = to_string(args[0]) if args else ""
        hosts = [self.page.wrap_element(e) for e in self.element.get_elements_by_tag(tag)]
        return JSArray(hosts)


class _StyleHost(HostObject):
    """Accepts arbitrary style property writes; CSS is not modelled."""

    host_class = "CSSStyleDeclaration"

    def __init__(self, owner: ElementHost) -> None:
        self.owner = owner

    def js_get(self, name: str) -> Any:
        return ""

    def js_set(self, name: str, value: Any) -> None:
        # Style changes do not affect state identity (text retrieval only).
        return


class DocumentHost(HostObject):
    """Script-side view of the page's document."""

    host_class = "HTMLDocument"

    def __init__(self, page: "Page") -> None:
        self.page = page

    def js_get(self, name: str) -> Any:
        if name == "getElementById":
            return NativeFunction("getElementById", self._js_get_element_by_id)
        if name == "createElement":
            return NativeFunction("createElement", self._js_create_element)
        if name == "getElementsByTagName":
            return NativeFunction("getElementsByTagName", self._js_by_tag)
        if name == "body":
            body = self.page.document.body
            return self.page.wrap_element(body) if body is not None else None
        if name == "title":
            titles = self.page.document.root.get_elements_by_tag("title")
            return titles[0].text_content if titles else ""
        if name == "URL" or name == "location":
            return self.page.url
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        raise JsTypeError(f"cannot set document property {name!r}")

    def js_keys(self) -> list[str]:
        return ["getElementById", "createElement", "body", "title", "URL"]

    def _js_get_element_by_id(self, interp: Any, this: Any, args: list[Any]) -> Any:
        element_id = to_string(args[0]) if args else ""
        element = self.page.document.get_element_by_id(element_id)
        if element is None:
            return None
        return self.page.wrap_element(element)

    def _js_create_element(self, interp: Any, this: Any, args: list[Any]) -> Any:
        tag = to_string(args[0]) if args else "div"
        return self.page.wrap_element(self.page.document.create_element(tag))

    def _js_by_tag(self, interp: Any, this: Any, args: list[Any]) -> Any:
        from repro.js.values import JSArray

        tag = to_string(args[0]) if args else ""
        elements = self.page.document.get_elements_by_tag(tag)
        return JSArray([self.page.wrap_element(e) for e in elements])


class WindowHost(HostObject):
    """A minimal ``window``: enough surface for realistic page scripts."""

    host_class = "Window"

    def __init__(self, page: "Page") -> None:
        self.page = page

    def js_get(self, name: str) -> Any:
        if name == "document":
            return self.page.document_host
        if name == "location":
            return self.page.url
        if name == "setTimeout":
            # Timers run "immediately": crawling observes settled states.
            return NativeFunction("setTimeout", self._js_set_timeout)
        if name == "alert":
            return NativeFunction("alert", lambda interp, this, args: UNDEFINED)
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        raise JsTypeError(f"cannot set window property {name!r}")

    def js_keys(self) -> list[str]:
        return ["document", "location", "setTimeout", "alert"]

    def _js_set_timeout(self, interp: Any, this: Any, args: list[Any]) -> Any:
        from repro.js.values import is_callable

        if args and is_callable(args[0]):
            interp.call_function(args[0], [])
        return 0.0
