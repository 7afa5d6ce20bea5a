"""A page's input never ends a crawl.

Each row is a page that once ended the whole crawl with a raw
``RecursionError``: nesting the parser recursed through, a cycle or a
depth a native recursed through, markup the DOM passes recurse through.
Crawled before a benign page, each now costs at most itself: a script
error the page survives (the script is skipped, or the handler's own
``catch`` sees a JavaScript error), node's answer, or one
``PageFailure`` that names the exception and where it arose.  The
benign page's model comes out as it does alone.

``s = s + s`` forty times is the table's last script row; it raises
node's RangeError before the string is built, which
``tests/js/test_values.py`` shows with ``MAX_STRING_LENGTH`` patched
small rather than by allocating hundreds of MB here.
"""

import pytest

from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.errors import JsSyntaxError
from repro.js import Interpreter
from repro.js.parser import MAX_NESTING, parse_program
from repro.net import Response, RoutedServer
from repro.obs import PAGE_INTERNAL_ERROR, Recorder

BENIGN = """<html><body>
<a id="t1" onclick="show()">one</a><div id="content">start</div>
<script>
function show() { document.getElementById("content").innerHTML = "<p>shown</p>"; }
</script>
</body></html>"""


def script_page(source):
    """A page whose first script is ``source``; the second script runs
    whatever happened to the first."""
    return f"""<html><body>
<a id="go" onclick="go()">go</a><div id="out">start</div><div id="flag">-</div>
<script>{source}
document.getElementById("flag").innerHTML = "first script ran";</script>
<script>document.getElementById("out").innerHTML = "second script ran";</script>
</body></html>"""


def handler_page(body, prelude=""):
    """A page whose ``go`` handler runs ``body`` in a function of its own
    (after the top-level ``prelude``) and shows its value or the error
    its ``catch`` saw."""
    return script_page(prelude + f"""function go() {{
    var out = document.getElementById("out");
    try {{ out.innerHTML = "<p>value " + (function () {{ {body} }})() + "</p>"; }}
    catch (e) {{ out.innerHTML = "<p>caught " + e + "</p>"; }}
}}""")


NESTED = 1_500

#: Pages whose first script does not parse (node's does).
SCRIPT_ROWS = {
    "parentheses": script_page("var x = " + "(" * NESTED + "1" + ")" * NESTED + ";"),
    "array literal": script_page("var x = " + "[" * NESTED + "1" + "]" * NESTED + ";"),
    "prefix operators": script_page("var x = " + "!" * NESTED + "1;"),
    "blocks": script_page("{" * NESTED + "var x = 1;" + "}" * NESTED),
}

#: ``row -> (page, what the clicked state shows)``.
HANDLER_ROWS = {
    "join of a cyclic array": (
        handler_page("var a = [1]; a.push(a); return String(a);"),
        "value 1,",
    ),
    "String of a 3 000-deep array": (
        handler_page("var a = []; for (var i = 0; i < 3000; i++) { a = [a]; } return String(a);"),
        "caught RangeError: Maximum call stack size exceeded",
    ),
    "JSON.stringify of a cyclic object": (
        handler_page("var o = {}; o.self = o; return JSON.stringify(o);"),
        "caught Converting circular structure to JSON",
    ),
    "JSON.parse of 5 000 nested arrays": (
        handler_page('return JSON.parse("[".repeat(5000) + "]".repeat(5000)).length;'),
        "caught RangeError: Maximum call stack size exceeded",
    ),
}

#: Pages the crawl cannot take yet: the DOM passes recurse once per level.
FAILING_ROWS = {
    "markup 1 200 divs deep": script_page("var x = 1;").replace(
        '<div id="flag">', "<div>" * 1_200 + "deep" + "</div>" * 1_200 + '<div id="flag">'
    ),
    "innerHTML set 3 000 tags deep": handler_page(
        'var t = "<div>".repeat(3000); document.getElementById("flag").innerHTML = t; return 1;'
    ),
}


def crawl_with_benign(hostile, fail_fast=False):
    server = RoutedServer()
    server.route(r"/hostile")(lambda request, match: Response(body=hostile))
    server.route(r"/benign")(lambda request, match: Response(body=BENIGN))
    recorder = Recorder()
    crawler = AjaxCrawler(
        server,
        CrawlerConfig(use_hot_node=False),
        cost_model=CostModel(network_jitter=0.0),
        recorder=recorder,
    )
    result = crawler.crawl(["http://h.test/hostile", "http://h.test/benign"], fail_fast=fail_fast)
    return result, recorder


def states_of(model):
    return sorted(state.text for state in model.states())


@pytest.fixture(scope="module")
def benign_alone():
    server = RoutedServer()
    server.route(r"/benign")(lambda request, match: Response(body=BENIGN))
    crawler = AjaxCrawler(server, CrawlerConfig(use_hot_node=False), cost_model=CostModel(network_jitter=0.0))
    (model,) = crawler.crawl(["http://h.test/benign"]).models
    return states_of(model)


@pytest.mark.parametrize("row", list(SCRIPT_ROWS))
def test_a_script_nested_past_the_bound_is_a_syntax_error(row, benign_alone):
    result, recorder = crawl_with_benign(SCRIPT_ROWS[row])
    assert result.failures == []
    hostile, benign = result.models
    # ``go`` was never defined: its click is a ReferenceError too.
    (text,) = states_of(hostile)
    assert "second script ran" in text and "first script ran" not in text
    assert states_of(benign) == benign_alone
    assert not [e for e in recorder.events if e.kind == PAGE_INTERNAL_ERROR]


@pytest.mark.parametrize("row", list(HANDLER_ROWS))
def test_a_native_on_a_cycle_or_past_the_depth_answers_in_javascript(row, benign_alone):
    page, shown = HANDLER_ROWS[row]
    result, recorder = crawl_with_benign(page)
    assert result.failures == []
    hostile, benign = result.models
    assert hostile.num_states == 2
    assert any(shown in text for text in states_of(hostile)), states_of(hostile)
    assert states_of(benign) == benign_alone
    assert not [e for e in recorder.events if e.kind == PAGE_INTERNAL_ERROR]


@pytest.mark.parametrize("row", list(FAILING_ROWS))
def test_deep_markup_costs_one_page(row, benign_alone):
    result, recorder = crawl_with_benign(FAILING_ROWS[row])
    (failure,) = result.failures
    assert failure.url == "http://h.test/hostile"
    assert failure.error == "RecursionError in dom/hashing.py:_build"
    (benign,) = result.models
    assert states_of(benign) == benign_alone
    (event,) = [e for e in recorder.events if e.kind == PAGE_INTERNAL_ERROR]
    assert event.fields == {"url": "http://h.test/hostile", "error": failure.error}


def test_fail_fast_still_raises():
    with pytest.raises(RecursionError):
        crawl_with_benign(FAILING_ROWS["markup 1 200 divs deep"], fail_fast=True)


#: ``shape -> (opening, closing, value)`` of a nested expression: the
#: costliest ones in Python frames per level of nesting.
SHAPES = {
    "sum": ("1+(", ")", lambda depth: str(depth + 1)),
    "array": ("[", "]", lambda depth: "1"),
    "object": ("{a:", "}", lambda depth: "[object Object]"),
}


def nested(shape, depth):
    """A function body returning ``depth`` levels of ``shape``."""
    opening, closing, _ = SHAPES[shape]
    return "return " + opening * depth + "1" + closing * depth + ";"


def deepest_accepted(shape):
    depth = 1
    while True:
        try:
            parse_program("function f() { " + nested(shape, depth + 1) + " }")
        except JsSyntaxError:
            return depth
        depth += 1


@pytest.mark.parametrize("shape", list(SHAPES))
def test_the_bound_is_fixed_and_named(shape):
    depth = deepest_accepted(shape)
    assert MAX_NESTING - 4 < depth < MAX_NESTING
    with pytest.raises(JsSyntaxError, match="^nesting too deep"):
        parse_program("function f() { " + nested(shape, depth + 1) + " }")


@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_program_at_the_bound_runs_at_the_deepest_call(shape):
    """The deepest program the parser takes, compiled and run on its
    first call, made with MAX_CALL_DEPTH - 1 frames on the call stack
    (the deepest call there is), inside a crawled page's handler."""
    depth = deepest_accepted(shape)
    prelude = (
        "function deepest() { " + nested(shape, depth) + " }\n"
        "function down(n) { return n > 1 ? down(n - 1) : deepest(); }\n"
    )

    def clicked(downs):
        # go, its inner function and ``downs`` frames of down below deepest.
        result, _ = crawl_with_benign(handler_page(f"return down({downs});", prelude))
        assert result.failures == []
        hostile, _ = result.models
        (text,) = [t for t in states_of(hostile) if "second script ran" not in t]
        return text

    downs = Interpreter.MAX_CALL_DEPTH - 3
    assert f"value {SHAPES[shape][2](depth)}" in clicked(downs)
    assert "caught maximum call stack size exceeded" in clicked(downs + 1)
