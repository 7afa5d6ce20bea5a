"""A page derives each tree once: a snapshot master is copied once and
rolled back to by undoing journaled writes, the ``innerHTML`` fragment
memo and the program memo must never alias what they hand out, and
nothing may outlive what ``restore`` undoes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.browser.events import EventBinding, locate
from repro.dom import (
    Element,
    Text,
    parse_document,
    reference_region_hashes,
    reference_state_hash,
    serialize,
)
from repro.errors import JavascriptError, JsSyntaxError
from repro.net import StaticServer

URL = "http://memo.test/"

HTML = """<html><head><title>t</title></head>
<body>
  <div id="a"><p id="a1">one</p><p id="a2">two &amp; <b>bold</b></p></div>
  <div id="b"><ul id="list"><li id="x">x</li><li id="y">y</li></ul></div>
  <span id="c">tail</span>
  <input id="q" type="text" onkeyup="bump()">
  <script>var counter = 0; function bump() { counter = counter + 1; }</script>
</body></html>"""

IDS = ["a", "a1", "a2", "b", "list", "x", "y", "c", "fresh", "missing"]

MARKUPS = [
    "",
    "plain text",
    "<p id='fresh'>new <i>node</i></p>",
    "<p id='x'>an id that exists elsewhere</p><p>sibling</p>",
    "a &lt; b &amp;&amp; c &#65; <br> <img src='i.png'>",
    "<div id='a1'><div id='deep'><span>deeper</span></div></div>",
    "<p>unclosed <b>markup",
    "stray < and </nothing> close",
    "<!-- comment only -->",
]

SET = {
    "html": "if (e) { e.innerHTML = value; }",
    "text": "if (e) { e.textContent = value; }",
    "attr": "if (e) { e.setAttribute(name, value); }",
    "append": "if (e) { e.appendChild(document.createElement(name)); }",
    # The cases an undo journal can get wrong.  ``name`` is a second id.
    "move": "var c = document.getElementById(name);"
    " if (e && c && target != name) { e.appendChild(c); }",
    "held": "var c = document.getElementById(name);"
    " if (e) { e.innerHTML = ''; if (c) { c.setAttribute('title', value); c.innerHTML = value; } }",
    "throw": "if (e) { e.innerHTML = value; noSuchFunction(); e.innerHTML = ''; }",
    "twice": "if (e) { e.innerHTML = value; e.id = 'fresh'; e.innerHTML = value + value; }",
}

mutations = st.one_of(
    st.tuples(st.just("html"), st.sampled_from(IDS), st.just(""), st.sampled_from(MARKUPS)),
    st.tuples(
        st.just("text"),
        st.sampled_from(IDS),
        st.just(""),
        st.text(alphabet="ab <>&\"'é", max_size=6),
    ),
    st.tuples(
        st.just("attr"),
        st.sampled_from(IDS),
        st.sampled_from(["id", "class", "title", "onclick"]),
        st.text(alphabet="ab <>&\"'é", max_size=6),
    ),
    st.tuples(
        st.just("append"), st.sampled_from(IDS), st.sampled_from(["div", "em", "li"]), st.just("")
    ),
    st.tuples(
        st.sampled_from(["move", "held"]),
        st.sampled_from(IDS),
        st.sampled_from(IDS),
        st.sampled_from(MARKUPS),
    ),
    st.tuples(
        st.sampled_from(["throw", "twice"]),
        st.sampled_from(IDS),
        st.just(""),
        st.sampled_from(MARKUPS),
    ),
    st.tuples(st.just("type"), st.just("q"), st.just(""), st.text(alphabet="ab <\"", max_size=4)),
    # Not a write: the crawler hashes between a dispatch and the rollback.
    st.tuples(st.just("hash"), st.just(""), st.just(""), st.just("")),
)


def load():
    return Browser(StaticServer({URL: HTML})).load(URL)


def mutate(page, mutation):
    kind, target, name, value = mutation
    if kind == "hash":
        page.hash_state()
        return
    if kind == "type":
        # The forms extension: dispatch writes the value, then runs the handler.
        element = page.document.get_element_by_id(target)
        if element is not None and element.get_attribute("onkeyup"):
            locator = locate(element, page.document)
            page.dispatch(EventBinding(locator, "onkeyup", "bump()", input_value=value))
        return
    for variable, bound in (("target", target), ("name", name), ("value", value)):
        page.interpreter.define_global(variable, bound)
    try:
        page.execute_js("var e = document.getElementById(target); " + SET[kind])
    except JavascriptError:
        assert kind == "throw"


CACHE_FIELDS = ("_canon_bytes", "_canon_digest", "_region_items", "_node_count", "_open_bytes")


def assert_same_tree(actual, expected, parent=None):
    """``actual`` is field for field the tree ``expected`` is."""
    assert type(actual) is type(expected)
    assert actual.parent is parent
    if isinstance(expected, Text):
        assert (actual.data, actual._hash_bytes) == (expected.data, expected._hash_bytes)
        return
    assert (actual.tag, actual.attrs) == (expected.tag, expected.attrs)
    for field in CACHE_FIELDS:
        assert getattr(actual, field) == getattr(expected, field), (field, actual)
    assert len(actual.children) == len(expected.children)
    for actual_child, expected_child in zip(actual.children, expected.children):
        assert_same_tree(actual_child, expected_child, actual)


class Oracle:
    """A snapshot next to a copy the *test* took of the tree at that
    moment, which ``restore`` must reproduce field for field."""

    def __init__(self, page):
        self.snapshot = page.snapshot()
        self.tree = page.document.clone()
        assert self.tree.root._canon_bytes is not None  # snapshot() hashed first
        self.reparsed = parse_document(self.snapshot.html, url=URL)

    def check_restored(self, page):
        assert page.document is self.snapshot.master
        assert_same_tree(page.document.root, self.tree.root)
        assert serialize(page.document) == self.snapshot.html
        hashes = page.hash_state()
        assert (hashes.nodes_hashed, hashes.incremental) == (0, True)
        assert hashes.state == self.snapshot.hash == reference_state_hash(self.reparsed)
        assert hashes.regions == reference_region_hashes(self.reparsed)

    def check_pristine(self, page):
        """A master that is not live is exactly as it was copied."""
        assert page.document is not self.snapshot.master
        assert serialize(self.snapshot.master) == self.snapshot.html
        assert_same_tree(self.snapshot.master.root, self.tree.root)


@given(
    st.lists(mutations, max_size=6),
    st.lists(mutations, min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 1), st.lists(mutations, max_size=4)), min_size=2, max_size=5
    ),
)
@settings(max_examples=80, deadline=None)
def test_restore_contract(before, between, rounds):
    page = load()
    for mutation in before:
        mutate(page, mutation)
    oracles = [Oracle(page)]
    for mutation in between:
        mutate(page, mutation)
    oracles.append(Oracle(page))
    for mutation in between:
        mutate(page, mutation)
    for index, after_restore in rounds:
        page.restore(oracles[index].snapshot)
        assert page._element_hosts == {}
        oracles[index].check_restored(page)
        oracles[1 - index].check_pristine(page)
        # Whatever happens to the live tree now must be undone by the next restore.
        for mutation in after_restore:
            mutate(page, mutation)


class TestUndoJournal:
    """The writes a journal can miss, one at a time (the property above
    mixes them): each leaves the live tree what the test's copy is."""

    def roundtrip(self, script, *more_scripts):
        page = load()
        first = Oracle(page)
        page.restore(first.snapshot)
        page.execute_js("document.getElementById('c').innerHTML = '<i id=\"n\">second</i>';")
        second = Oracle(page)
        for oracle in (first, second, first):
            page.restore(oracle.snapshot)
            oracle.check_restored(page)
            for source in (script, *more_scripts):
                try:
                    page.execute_js(source)
                except JavascriptError:
                    pass
            assert page.hash_state().state != oracle.snapshot.hash
        page.restore(second.snapshot)
        second.check_restored(page)
        first.check_pristine(page)
        return page

    def test_interleaved_snapshots_each_get_their_own_tree_back(self):
        self.roundtrip("document.getElementById('a1').innerHTML = 'x';")

    def test_append_child_moves_an_attached_node_between_parents(self):
        page = self.roundtrip(
            "document.getElementById('list').appendChild(document.getElementById('a2'));"
        )
        assert page.document.get_element_by_id("a2").parent.id == "a"

    def test_a_held_child_is_written_after_its_parent_was_emptied(self):
        self.roundtrip(
            "var held = document.getElementById('x');"
            "document.getElementById('list').innerHTML = '';"
            "held.setAttribute('class', 'orphan'); held.innerHTML = '<b>gone</b>';"
        )

    def test_a_handler_that_throws_after_its_first_write(self):
        self.roundtrip("document.getElementById('a').innerHTML = 'half'; boom(); bump();")

    def test_two_writes_to_one_element_in_one_handler(self):
        self.roundtrip(
            "var e = document.getElementById('b'); e.innerHTML = '<p>1</p>';"
            "e.setAttribute('title', 't'); e.innerHTML = '<p>2</p>'; e.id = 'renamed';"
        )

    def test_writes_across_two_handlers_and_a_hash_pass(self):
        self.roundtrip(
            "document.getElementById('a1').textContent = 'first';",
            "document.getElementById('a2').textContent = 'second';",
        )

    def test_the_forms_value_write(self):
        page = load()
        oracle = Oracle(page)
        page.restore(oracle.snapshot)
        field = page.document.get_element_by_id("q")
        binding = EventBinding(locate(field, page.document), "onkeyup", "bump()", "typed")
        assert page.dispatch(binding) is False  # the typed value alone is not a change
        assert field.get_attribute("value") == "typed"
        assert page.hash_state().state != oracle.snapshot.hash
        page.restore(oracle.snapshot)
        assert field.get_attribute("value") is None
        oracle.check_restored(page)

    def test_a_node_an_undone_write_inserted_ends_up_detached(self):
        page = load()
        snapshot = page.snapshot()
        page.restore(snapshot)
        page.execute_js("document.getElementById('a').innerHTML = '<b id=\"n\">new</b>';")
        inserted = page.document.get_element_by_id("n")
        page.restore(snapshot)
        assert inserted.parent is None
        # ... so a script that still holds it can attach it again.
        page.interpreter.define_global("held", page.wrap_element(inserted))
        page.execute_js("document.getElementById('b').appendChild(held);")
        assert inserted.parent.id == "b"

    def test_writes_before_the_first_restore_are_not_journaled(self):
        page = load()
        page.execute_js("document.getElementById('a').innerHTML = 'loaded';")
        assert page._journal == []
        snapshot = page.snapshot()
        page.restore(snapshot)
        page.execute_js("document.getElementById('a').innerHTML = 'event';")
        assert len(page._journal) == 1
        page.restore(snapshot)
        assert page._journal == []


def test_snapshot_master_is_warm_and_restore_rehashes_nothing():
    page = load()
    page.hash_state()
    snapshot = page.snapshot()
    assert snapshot.master.root._canon_bytes is not None
    full_passes = page.hash_stats.full_passes
    page.restore(snapshot)
    hashes = page.hash_state()
    assert (hashes.nodes_hashed, hashes.incremental) == (0, True)
    assert page.hash_stats.full_passes == full_passes


class TestFragmentMemo:
    MARKUP = "<p id='m'>memo <b>ised</b></p>tail"

    def fill(self, page, element_id):
        page.interpreter.define_global("markup", self.MARKUP)
        page.execute_js(f"document.getElementById('{element_id}').innerHTML = markup;")
        return page.document.get_element_by_id(element_id)

    def test_same_markup_yields_disjoint_nodes_with_their_own_parents(self):
        page = load()
        first = self.fill(page, "a")
        second = self.fill(page, "b")
        first_nodes = [first, *first.iter_descendants()]
        second_nodes = [second, *second.iter_descendants()]
        assert not {id(node) for node in first_nodes} & {id(node) for node in second_nodes}
        for host in (first, second):
            assert [child.parent for child in host.children] == [host, host]
            paragraph = host.children[0]
            assert all(child.parent is paragraph for child in paragraph.children)
        assert serialize(first.children[0]) == serialize(second.children[0])

    def test_setting_twice_on_one_element_replaces_the_first_copy(self):
        page = load()
        first_copy = list(self.fill(page, "a").children)
        second_copy = list(self.fill(page, "a").children)
        assert all(node.parent is None for node in first_copy)
        assert not {id(node) for node in first_copy} & {id(node) for node in second_copy}

    def test_mutating_a_copy_does_not_leak_into_the_next(self):
        page = load()
        first = self.fill(page, "a")
        first.children[0].set_attribute("class", "changed")
        first.children[0].children[0].data = "edited"
        first.children[0].append_child(Element("hr"))
        second = self.fill(page, "b")
        assert serialize(second.children[0]) == '<p id="m">memo <b>ised</b></p>'

    def test_parse_time_is_charged_per_set_and_copies_arrive_unhashed(self):
        page = load()
        charged = []
        for element_id in ("a", "b", "a"):
            before = page.clock.now_ms
            host = self.fill(page, element_id)
            charged.append(page.clock.now_ms - before)
            paragraph, tail = host.children
            assert paragraph._canon_bytes is None
            # The leaf chunks alone arrive encoded, from the memoised nodes.
            assert paragraph._open_bytes == b'<p id="m">'
            assert tail._hash_bytes == b"tail"
        assert charged[0] == charged[1] == charged[2] > 0

    def test_each_page_starts_cold(self):
        page = load()
        self.fill(page, "a")
        assert self.MARKUP in page._fragments
        assert load()._fragments == {}


class TestProgramMemo:
    def test_a_source_is_parsed_once_per_interpreter(self, monkeypatch):
        import repro.js.interpreter as interpreter

        parsed = []
        parse = interpreter.parse_program
        monkeypatch.setattr(
            interpreter, "parse_program", lambda source: parsed.append(source) or parse(source)
        )
        page = load()
        del parsed[:]
        for _ in range(3):
            page.execute_js("bump()")
        assert parsed == ["bump()"]
        assert page.interpreter.global_env.get("counter") == 3.0
        load().execute_js("bump()")  # another page: its own, cold memo
        assert parsed.count("bump()") == 2

    def test_a_syntax_error_is_raised_again_on_every_dispatch(self):
        page = load()
        for _ in range(2):
            with pytest.raises(JsSyntaxError):
                page.execute_js("bump(")
        assert "bump(" not in page.interpreter._programs

    def test_restore_rolls_back_what_a_cached_program_declared(self):
        page = load()
        snapshot = page.snapshot()
        source = "var late = 41; function later() { return late + 1; } bump();"
        page.execute_js(source)
        assert page.execute_js("later()") == 42.0
        page.restore(snapshot)
        assert not page.interpreter.global_env.is_declared("late")
        assert not page.interpreter.global_env.is_declared("later")
        assert page.interpreter.global_env.get("counter") == 0.0
        # The same source, now served from the memo, declares them afresh.
        page.execute_js(source)
        assert page.execute_js("later()") == 42.0
        assert page.interpreter.global_env.get("counter") == 1.0


def test_two_elements_never_share_a_host_across_a_restore():
    page = load()
    snapshot = page.snapshot()
    hosts = []  # kept alive, so neither a host nor its element frees its id()
    for _ in range(20):
        for element in [page.document.root, *page.document.root.iter_elements()]:
            host = page.wrap_element(element)
            assert host.element is element
            assert page.wrap_element(element) is host
            hosts.append(host)
        page.restore(snapshot)
        # Hosts never outlive a restore, although elements now do.
        assert page._element_hosts == {}
    assert len({id(host) for host in hosts}) == len(hosts)
