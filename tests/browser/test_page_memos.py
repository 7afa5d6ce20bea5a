"""A page derives each tree once and hands out copies: the snapshot
master, the ``innerHTML`` fragment memo and the program memo must never
alias what they hand out, and must not outlive what ``restore`` undoes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.dom import (
    Element,
    parse_document,
    reference_region_hashes,
    reference_state_hash,
    serialize,
)
from repro.errors import JsSyntaxError
from repro.net import StaticServer

URL = "http://memo.test/"

HTML = """<html><head><title>t</title></head>
<body>
  <div id="a"><p id="a1">one</p><p id="a2">two &amp; <b>bold</b></p></div>
  <div id="b"><ul id="list"><li id="x">x</li><li id="y">y</li></ul></div>
  <span id="c">tail</span>
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
)


def load():
    return Browser(StaticServer({URL: HTML})).load(URL)


def mutate(page, mutation):
    kind, target, name, value = mutation
    for variable, bound in (("target", target), ("name", name), ("value", value)):
        page.interpreter.define_global(variable, bound)
    page.execute_js("var e = document.getElementById(target); " + SET[kind])


@given(
    st.lists(mutations, max_size=6),
    st.lists(mutations, min_size=1, max_size=4),
    st.lists(mutations, min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_restore_contract(before, after, after_restore):
    page = load()
    for mutation in before:
        mutate(page, mutation)
    snapshot = page.snapshot()
    reparsed = parse_document(snapshot.html, url=URL)
    for mutation in after:
        mutate(page, mutation)
    for _ in range(2):
        page.restore(snapshot)
        assert page.document is not snapshot.master
        assert serialize(page.document) == snapshot.html
        hashes = page.hash_state()
        assert hashes.state == snapshot.hash == reference_state_hash(reparsed)
        assert hashes.regions == reference_region_hashes(reparsed)
        # Whatever happens to this restored tree must not reach the master.
        for mutation in after_restore:
            mutate(page, mutation)
    assert serialize(snapshot.master) == snapshot.html


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
            assert host.children[0]._canon_bytes is None
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
        assert page._element_hosts == {}
    assert len({id(host) for host in hosts}) == len(hosts)
    assert len({id(host.element) for host in hosts}) == len(hosts)
