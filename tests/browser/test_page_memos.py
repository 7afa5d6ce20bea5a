"""A page derives each tree once: a snapshot master is copied once and
rolled back to by undoing journaled writes, the ``innerHTML`` fragment
memo lends the nodes it parsed at most once between two restores and
gets them back detached and exactly as parsed, the program memo must
never alias what it hands out, and nothing may outlive what ``restore``
undoes."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.browser import Browser
from repro.browser.events import EventBinding, locate
from repro.dom import (
    Element,
    Text,
    hash_tree,
    parse_document,
    parse_fragment,
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
    "<div id='a1'><div id='deep'><p>deeper</p><p id='y'>deepest <i>leaf</i></p></div></div>",
    "<p>unclosed <b>markup",
    "stray < and </nothing> close",
    "<!-- comment only -->",
]

#: ``first``/``n``: the first and the last <p>, else <div>, that ``e`` now holds.
INSIDE = (
    " var inside = e.getElementsByTagName('p');"
    " if (inside.length == 0) { inside = e.getElementsByTagName('div'); }"
    " var first = inside.length ? inside[0] : null;"
    " var n = inside.length ? inside[inside.length - 1] : null; "
)

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
    # The cases lending the memoised fragment nodes can get wrong.
    "relend": "var c = document.getElementById(name); if (e) { e.innerHTML = value; }"
    " if (c) { c.innerHTML = value; } if (e) { e.innerHTML = value; }",
    "edit-lent": "var got = null; if (e) { e.innerHTML = value;" + INSIDE + "if (n) {"
    " first.setAttribute('title', name); n.innerHTML = 'edited <u id=\"a2\">' + name + '</u>';"
    " first.textContent = 'gone'; }"
    " var c = document.getElementById(name);"
    " if (c) { e.innerHTML = ''; c.innerHTML = value; got = c.innerHTML; } }",
    "move-out": "if (e) { e.innerHTML = value;" + INSIDE + "var c = document.getElementById(name);"
    " if (n && c && c != n) { c.appendChild(n); } }",
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
    st.tuples(
        st.sampled_from(["relend", "edit-lent", "move-out"]),
        st.sampled_from(IDS),
        st.sampled_from(IDS),
        st.sampled_from([markup for markup in MARKUPS if "<p" in markup]),
    ),
    st.tuples(st.just("type"), st.just("q"), st.just(""), st.text(alphabet="ab <\"", max_size=4)),
    # Not a write: the crawler hashes between a dispatch and the rollback.
    st.tuples(st.just("hash"), st.just(""), st.just(""), st.just("")),
)


HASH = ("hash", "", "", "")
NESTED = MARKUPS[5]
SET_AGAIN = ("html", "c", "", NESTED)


def load():
    return Browser(StaticServer({URL: HTML})).load(URL)


def mutate(page, mutation):
    kind, target, name, value = mutation
    if kind == "hash":
        assert page.hash_state().state == reference_state_hash(page.document)
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
    if kind == "edit-lent":
        got = page.interpreter.global_env.get("got")
        # The second request of a window gets the markup as served, not as edited.
        assert got is None or got == "".join(serialize(node) for node in parse_fragment(value))


CACHE_FIELDS = ("_canon_bytes", "_canon_digest", "_region_items", "_node_count", "_open_bytes")


def assert_same_tree(actual, expected, parent=None, may_be_cold=False):
    """``actual`` is field for field the tree ``expected`` is; with
    ``may_be_cold`` a derived field may also be unset."""
    assert type(actual) is type(expected)
    assert actual.parent is parent
    if isinstance(expected, Text):
        assert actual.data == expected.data
        derived = [(actual._hash_bytes, expected._hash_bytes, "_hash_bytes")]
    else:
        assert (actual.tag, actual.attrs) == (expected.tag, expected.attrs)
        derived = [(getattr(actual, f), getattr(expected, f), f) for f in CACHE_FIELDS]
        assert len(actual.children) == len(expected.children)
        for actual_child, expected_child in zip(actual.children, expected.children):
            assert_same_tree(actual_child, expected_child, actual, may_be_cold)
    for got, want, field in derived:
        assert got == want or (may_be_cold and got is None), (field, actual)


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


def check_fragment_memo(page, oracles):
    """Nothing is out: every memo tree is detached and what a fresh
    parse of its markup is, any digest it keeps is the true one, and no
    master was copied *to* a memo node."""
    assert page._lent == set()
    memo_nodes = set()
    for markup, nodes in page._fragments.items():
        fresh = Element("div")
        fresh.replace_children(parse_fragment(markup))
        hash_tree(fresh)
        assert len(nodes) == len(fresh.children)
        for node, expected in zip(nodes, fresh.children):
            assert_same_tree(node, expected, parent=None, may_be_cold=True)
            memo_nodes.add(id(node))
            if isinstance(node, Element):
                memo_nodes.update(id(inner) for inner in node.iter_descendants())
    for oracle in oracles:
        root = oracle.snapshot.master.root
        assert not memo_nodes & {id(node) for node in (root, *root.iter_descendants())}


@given(
    st.lists(mutations, max_size=6),
    st.lists(mutations, min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 2), st.lists(mutations, max_size=4)), min_size=2, max_size=5
    ),
)
@settings(max_examples=80, deadline=None)
# Each lending trap once for certain; the search above rarely nests deep enough.
@example([], [HASH], [(0, [("move-out", "a", "b", NESTED)]), (0, [SET_AGAIN, HASH])])
@example([], [HASH], [(0, [("edit-lent", "a", "missing", NESTED)]), (1, [SET_AGAIN, HASH])])
@example([], [HASH], [(0, [("edit-lent", "a", "b", NESTED), HASH]), (2, [SET_AGAIN, HASH])])
@example([], [HASH], [(1, [("relend", "a", "b", NESTED), HASH]), (0, [SET_AGAIN, HASH])])
@example([], [HASH], [(0, [("throw", "b", "", NESTED), HASH]), (2, [SET_AGAIN, HASH])])
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
    assert page._fragments == {}  # nothing is lent before the first restore
    for index, after_restore in rounds:
        live = oracles[min(index, len(oracles) - 1)]
        page.restore(live.snapshot)
        assert page._element_hosts == {}
        live.check_restored(page)
        for oracle in oracles:
            if oracle is not live:
                oracle.check_pristine(page)
        check_fragment_memo(page, oracles)
        # Whatever happens to the live tree now must be undone by the next restore.
        for mutation in after_restore:
            mutate(page, mutation)
        if len(oracles) == 2:
            # A state discovered while lent nodes hang in the live tree.
            oracles.append(Oracle(page))


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
    """Before the first restore every set parses afresh; after it the
    nodes parsed for a markup are lent themselves, once per window."""

    MARKUP = "<p id='m'>memo <b>ised</b></p>tail"

    def restored(self):
        page = load()
        snapshot = page.snapshot()
        page.restore(snapshot)
        return page, snapshot

    def fill(self, page, element_id, markup=MARKUP):
        page.interpreter.define_global("markup", markup)
        page.execute_js(f"document.getElementById('{element_id}').innerHTML = markup;")
        return page.document.get_element_by_id(element_id)

    def test_same_markup_yields_disjoint_nodes_with_their_own_parents(self):
        page, _ = self.restored()
        first = self.fill(page, "a")
        second = self.fill(page, "b")  # the same window: parsed again, not lent twice
        assert all(a is b for a, b in zip(first.children, page._fragments[self.MARKUP]))
        first_nodes = [first, *first.iter_descendants()]
        second_nodes = [second, *second.iter_descendants()]
        assert not {id(node) for node in first_nodes} & {id(node) for node in second_nodes}
        for host in (first, second):
            assert [child.parent for child in host.children] == [host, host]
            paragraph = host.children[0]
            assert all(child.parent is paragraph for child in paragraph.children)
        assert serialize(first.children[0]) == serialize(second.children[0])

    def test_setting_twice_on_one_element_replaces_the_first_copy(self):
        page, snapshot = self.restored()
        first_copy = list(self.fill(page, "a").children)
        second_copy = list(self.fill(page, "a").children)
        assert all(node.parent is None for node in first_copy)
        assert not {id(node) for node in first_copy} & {id(node) for node in second_copy}
        page.restore(snapshot)
        assert all(node.parent is None for node in first_copy + second_copy)
        check_fragment_memo(page, [])

    def test_mutating_a_copy_does_not_leak_into_the_next(self):
        page, snapshot = self.restored()
        page.interpreter.define_global("markup", self.MARKUP)
        page.execute_js(
            "var a = document.getElementById('a'); a.innerHTML = markup;"
            "var m = document.getElementById('m'); m.setAttribute('class', 'changed');"
            "m.innerHTML = 'edited<hr>'; a.innerHTML = '';"
            "document.getElementById('b').innerHTML = markup;"
        )
        # The lent tree is detached again, but not as parsed: b gets a fresh parse.
        served = '<p id="m">memo <b>ised</b></p>'
        assert serialize(page.document.get_element_by_id("b").children[0]) == served
        edited = '<p class="changed" id="m">edited<hr/></p>'
        assert serialize(page._fragments[self.MARKUP][0]) == edited
        page.restore(snapshot)
        assert serialize(page._fragments[self.MARKUP][0]) == served
        host = self.fill(page, "c")
        assert host.children[0] is page._fragments[self.MARKUP][0]
        assert serialize(host.children[0]) == served
        assert page.hash_state().state == reference_state_hash(page.document)

    def test_a_write_inside_a_tree_lent_cold_leaves_no_digest_behind(self):
        # The first pass over a lent tree fills digests no journal record
        # holds; those above a node written before that pass describe the
        # edited content and must be gone once the write is undone.
        for write in (
            "document.getElementById('leaf').innerHTML = 'edited';",
            "document.getElementById('b').appendChild(document.getElementById('leaf'));",
        ):
            page, snapshot = self.restored()
            markup = "<div id='outer'><div><p id='leaf'>served</p></div></div>"
            self.fill(page, "a", markup)
            page.execute_js(write)
            assert page.hash_state().state == reference_state_hash(page.document)
            page.restore(snapshot)
            check_fragment_memo(page, [])
            self.fill(page, "c", markup)
            assert page.hash_state().state == reference_state_hash(page.document)

    def test_parse_time_is_charged_per_set_and_copies_arrive_unhashed(self):
        # "Unhashed" holds for the first event alone: the pass after it
        # warms the memo nodes themselves, so later events find them hashed.
        page, snapshot = self.restored()
        charged, lent, passes = [], [], []
        for _ in range(3):
            before = page.clock.now_ms
            host = self.fill(page, "a")
            charged.append(page.clock.now_ms - before)
            lent.append(list(host.children))
            if not passes:
                assert host.children[0]._canon_bytes is None
            passes.append(page.hash_state())
            page.restore(snapshot)
        assert charged[0] == charged[1] == charged[2] > 0
        assert all(a is b is c for a, b, c in zip(*lent))
        inside = sum(node._node_count for node in lent[0] if isinstance(node, Element))
        assert inside == 4  # <p>, "memo ", <b>, "ised"; "tail" is a text child of the host
        first, second, third = passes
        for later in (second, third):
            assert (later.state, later.regions) == (first.state, first.regions)
            # The host, its ancestors and their text children are still rebuilt.
            assert later.nodes_hashed == first.nodes_hashed - inside > 0
            assert later.nodes_skipped == first.nodes_skipped + inside

    def test_what_is_out_is_forgotten_only_once_the_journal_is_drained(self, monkeypatch):
        # Were the drain to raise half way, a tree still partly attached
        # or edited must not count as available.
        page, snapshot = self.restored()
        self.fill(page, "a")
        out_while_draining = []
        reinstate = Element._reinstate

        def watched(saved):
            out_while_draining.append(set(page._lent))
            reinstate(saved)

        monkeypatch.setattr(Element, "_reinstate", staticmethod(watched))
        page.restore(snapshot)
        assert out_while_draining == [{self.MARKUP}] and page._lent == set()

    def test_each_page_starts_cold(self):
        page = load()
        loaded = [list(self.fill(page, element_id).children) for element_id in ("a", "b", "a")]
        # Nothing is journaled yet, so nothing may be lent: three parses, no memo.
        assert len({id(node) for nodes in loaded for node in nodes}) == 6
        assert page._fragments == {} and page._lent == set()
        page.restore(page.snapshot())
        self.fill(page, "a")
        assert list(page._fragments) == [self.MARKUP] and page._lent == {self.MARKUP}
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


@pytest.mark.xfail(
    strict=True,
    reason="PageSnapshot.globals_snapshot is a shallow dict(bindings): restore puts back which"
    " object a global names, not what a handler pushed into that object, so an array or object"
    " mutated in place leaks across rollbacks and the crawler would record states that are"
    " unreachable from the base state, in an order-dependent way (no site in repro.sites or"
    " testgen mutates a script object across events; DESIGN.md section 6)",
)
def test_restore_rolls_back_a_global_array_a_handler_mutated_in_place():
    html = (
        "<html><body><div id='d'></div><script>var seen = []; function go() { seen.push(1);"
        " document.getElementById('d').innerHTML = 'seen ' + seen.length; }</script></body></html>"
    )
    page = Browser(StaticServer({URL: html})).load(URL)
    snapshot = page.snapshot()
    rendered = []
    for _ in range(3):
        page.restore(snapshot)
        page.execute_js("go()")
        rendered.append(page.text.strip())
    assert rendered == ["seen 1", "seen 1", "seen 1"]  # today: seen 1, seen 2, seen 3


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
