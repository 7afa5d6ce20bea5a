"""Unit tests for event enumeration and element locators."""

from repro.browser import enumerate_events, locate, onload_handler
from repro.browser.events import ElementLocator
from repro.dom import parse_document, serialize


PAGE = """
<html>
<body onload="init()">
  <div id="top" onclick="a()">A</div>
  <div>
    <span onclick="b()">B</span>
    <span onmouseover="c()">C</span>
    <span ondblclick="d()">D</span>
    <span onmousedown="e()">E</span>
    <span onkeypress="ignored()">F</span>
  </div>
</body>
</html>
"""


class TestEnumerateEvents:
    def test_finds_default_event_types(self):
        doc = parse_document(PAGE)
        handlers = {binding.handler for binding in enumerate_events(doc)}
        assert handlers == {"a()", "b()", "c()", "d()", "e()"}

    def test_onload_is_not_enumerated(self):
        doc = parse_document(PAGE)
        assert all(b.event_type != "onload" for b in enumerate_events(doc))

    def test_unsupported_event_types_skipped(self):
        doc = parse_document(PAGE)
        assert "ignored()" not in {b.handler for b in enumerate_events(doc)}

    def test_custom_event_type_selection(self):
        doc = parse_document(PAGE)
        only_clicks = enumerate_events(doc, event_types=("onclick",))
        assert {b.handler for b in only_clicks} == {"a()", "b()"}

    def test_document_order(self):
        doc = parse_document(PAGE)
        handlers = [b.handler for b in enumerate_events(doc, event_types=("onclick",))]
        assert handlers == ["a()", "b()"]

    def test_empty_handler_ignored(self):
        doc = parse_document('<html><body><a onclick="">x</a></body></html>')
        assert enumerate_events(doc) == []

    def test_onload_handler_extraction(self):
        assert onload_handler(parse_document(PAGE)) == "init()"
        assert onload_handler(parse_document("<html><body></body></html>")) is None


class TestElementLocator:
    def test_locator_prefers_id(self):
        doc = parse_document(PAGE)
        element = doc.get_element_by_id("top")
        locator = locate(element, doc)
        assert locator.element_id == "top"
        assert locator.resolve(doc) is element

    def test_path_locator_without_id(self):
        doc = parse_document(PAGE)
        span = doc.root.get_elements_by_tag("span")[1]
        locator = locate(span, doc)
        assert locator.element_id is None
        assert locator.resolve(doc) is span

    def test_locator_survives_reparse(self):
        doc = parse_document(PAGE)
        span = doc.root.get_elements_by_tag("span")[2]
        locator = locate(span, doc)
        reparsed = parse_document(serialize(doc))
        resolved = locator.resolve(reparsed)
        assert resolved is not None
        assert resolved.get_attribute("ondblclick") == "d()"

    def test_stale_path_returns_none(self):
        doc = parse_document("<html><body><div><p>x</p></div></body></html>")
        p = doc.root.get_elements_by_tag("p")[0]
        locator = locate(p, doc)
        smaller = parse_document("<html><body></body></html>")
        assert locator.resolve(smaller) is None

    def test_missing_id_falls_back_to_path(self):
        doc = parse_document(PAGE)
        element = doc.get_element_by_id("top")
        locator = locate(element, doc)
        # Remove the id: resolution falls back to the structural path.
        element.remove_attribute("id")
        assert locator.resolve(doc) is element

    def test_describe(self):
        assert ElementLocator("x", ()).describe() == "#x"
        assert ElementLocator(None, (0, 2)).describe() == "/0/2"

    def test_event_key_identity(self):
        doc = parse_document(PAGE)
        one = enumerate_events(doc)
        two = enumerate_events(parse_document(PAGE))
        assert one == two
