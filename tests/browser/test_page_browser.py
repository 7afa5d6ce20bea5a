"""Integration tests: browser + page + JS + XHR against a mini AJAX site."""

import pytest

from repro.browser import Browser, JS_ACCOUNT, PARSE_ACCOUNT
from repro.clock import CostModel, SimClock
from repro.dom import parse_document, reference_state_hash, serialize
from repro.errors import BrowserError
from repro.net import NETWORK_ACCOUNT, Request, Response, RoutedServer

PAGE_URL = "http://yt.test/watch?v=vid1"

PAGE_HTML = """<html>
<head><title>Video vid1</title></head>
<body onload="init()">
  <h1 id="title">Enjoy the Ride</h1>
  <div id="recent_comments">loading...</div>
  <div id="nav">
    <a id="next" onclick="nextPage()">next</a>
    <a id="prev" onclick="prevPage()">prev</a>
    <a id="jump2" onclick="jumpToPage(2)">2</a>
  </div>
  <script>
  var currentPage = 0;
  function getUrl(url, async) {
      var req = new XMLHttpRequest();
      req.open("GET", url, async);
      req.send(null);
      return req.responseText;
  }
  function getUrlXMLResponseAndFillDiv(url, div_id) {
      var response = getUrl(url, true);
      document.getElementById(div_id).innerHTML = response;
  }
  function showPage(p) {
      if (p < 1) { p = 1; }
      if (p > 3) { p = 3; }
      currentPage = p;
      getUrlXMLResponseAndFillDiv('/comments?v=vid1&p=' + p, 'recent_comments');
  }
  function init() { showPage(1); }
  function nextPage() { showPage(currentPage + 1); }
  function prevPage() { showPage(currentPage - 1); }
  function jumpToPage(p) { showPage(p); }
  </script>
</body>
</html>"""


def make_server():
    server = RoutedServer()

    @server.route(r"/watch")
    def watch(request, match):
        return Response(body=PAGE_HTML)

    @server.route(r"/comments")
    def comments(request, match):
        page = request.query.get("p", "1")
        return Response(body=f"<p>comment page {page}</p>")

    return server


@pytest.fixture
def browser():
    return Browser(make_server(), cost_model=CostModel(network_jitter=0.0))


class TestPageLoad:
    def test_onload_populates_comments(self, browser):
        page = browser.load(PAGE_URL)
        assert "comment page 1" in page.text

    def test_scripts_define_functions(self, browser):
        page = browser.load(PAGE_URL, run_onload=False)
        assert page.interpreter.global_env.is_declared("nextPage")

    def test_onload_suppressible(self, browser):
        page = browser.load(PAGE_URL, run_onload=False)
        assert "loading..." in page.text

    def test_javascript_disabled_browser(self):
        browser = Browser(make_server(), javascript_enabled=False)
        page = browser.load(PAGE_URL)
        assert "loading..." in page.text  # onload never ran
        assert browser.stats.ajax_calls == 0

    def test_load_404_raises(self, browser):
        with pytest.raises(BrowserError):
            browser.load("http://yt.test/missing")

    def test_clock_accounts_for_load(self, browser):
        page = browser.load(PAGE_URL)
        clock = page.clock
        assert clock.spent_on(NETWORK_ACCOUNT) > 0
        assert clock.spent_on(PARSE_ACCOUNT) > 0
        assert clock.spent_on(JS_ACCOUNT) > 0


class TestEventDispatch:
    def test_next_changes_dom(self, browser):
        page = browser.load(PAGE_URL)
        (next_event,) = [b for b in page.events() if b.handler == "nextPage()"]
        changed = page.dispatch(next_event)
        assert changed is True
        assert "comment page 2" in page.text

    def test_noop_event_reports_unchanged(self, browser):
        page = browser.load(PAGE_URL)
        (prev_event,) = [b for b in page.events() if b.handler == "prevPage()"]
        # On page 1, prev clamps to page 1: same content re-filled.
        changed = page.dispatch(prev_event)
        # innerHTML was assigned (mutation happened), so DOM counts as touched;
        # identity must be judged by content hash instead.
        assert "comment page 1" in page.text

    def test_hash_identity_across_duplicate_states(self, browser):
        page = browser.load(PAGE_URL)
        initial_hash = page.content_hash()
        events = {b.handler: b for b in page.events()}
        page.dispatch(events["nextPage()"])
        hash_page2 = page.content_hash()
        page.dispatch(events["prevPage()"])
        assert page.content_hash() == initial_hash
        page.dispatch(events["jumpToPage(2)"])
        assert page.content_hash() == hash_page2

    def test_dispatch_unknown_element_raises(self, browser):
        page = browser.load(PAGE_URL)
        (next_event,) = [b for b in page.events() if b.handler == "nextPage()"]
        page.document.get_element_by_id("next").detach()
        stale = next_event
        with pytest.raises(BrowserError):
            page.dispatch(stale)

    def test_failing_handler_does_not_crash(self, browser):
        page = browser.load(PAGE_URL)
        page.document.get_element_by_id("next").set_attribute(
            "onclick", "totallyMissing()"
        )
        (bad_event,) = [b for b in page.events() if b.handler == "totallyMissing()"]
        assert page.dispatch(bad_event) is False


class TestSnapshotRestore:
    def test_restore_brings_back_dom(self, browser):
        page = browser.load(PAGE_URL)
        snapshot = page.snapshot()
        events = {b.handler: b for b in page.events()}
        page.dispatch(events["nextPage()"])
        assert "comment page 2" in page.text
        page.restore(snapshot)
        assert "comment page 1" in page.text
        assert page.content_hash() == snapshot.hash

    def test_restore_brings_back_js_variables(self, browser):
        page = browser.load(PAGE_URL)
        snapshot = page.snapshot()
        events = {b.handler: b for b in page.events()}
        page.dispatch(events["nextPage()"])
        assert page.interpreter.global_env.get("currentPage") == 2.0
        page.restore(snapshot)
        assert page.interpreter.global_env.get("currentPage") == 1.0
        # After restore the page behaves as if the event never happened.
        page.dispatch(events["nextPage()"])
        assert "comment page 2" in page.text

    def test_restore_charges_parse_time(self, browser):
        page = browser.load(PAGE_URL)
        snapshot = page.snapshot()
        before = page.clock.spent_on(PARSE_ACCOUNT)
        page.restore(snapshot)
        assert page.clock.spent_on(PARSE_ACCOUNT) > before

    def test_restored_clone_indistinguishable_from_reparse(self, browser):
        page = browser.load(PAGE_URL)
        events = {b.handler: b for b in page.events()}
        page.dispatch(events["nextPage()"])
        snapshot = page.snapshot()
        reparsed = parse_document(snapshot.html, url=PAGE_URL)
        # Every restore undoes what was written since the last one;
        # nothing a handler did may leak into the next round.
        for _ in range(3):
            page.restore(snapshot)
            assert serialize(page.document) == serialize(reparsed) == snapshot.html
            assert reference_state_hash(page.document) == reference_state_hash(reparsed)
            assert page.content_hash() == snapshot.hash
            page.dispatch(events["prevPage()"])
            assert page.content_hash() != snapshot.hash


class TestXhrIntegration:
    def test_each_new_page_costs_a_network_call(self, browser):
        page = browser.load(PAGE_URL)
        events = {b.handler: b for b in page.events()}
        calls_before = browser.stats.ajax_calls
        page.dispatch(events["nextPage()"])  # p=2
        page.dispatch(events["nextPage()"])  # p=3
        assert browser.stats.ajax_calls == calls_before + 2

    def test_without_policy_duplicates_also_hit_network(self, browser):
        page = browser.load(PAGE_URL)
        events = {b.handler: b for b in page.events()}
        page.dispatch(events["nextPage()"])  # p=2 (fetch)
        page.dispatch(events["prevPage()"])  # p=1 (fetch again!)
        page.dispatch(events["jumpToPage(2)"])  # p=2 (fetch again!)
        assert browser.stats.cached_hits == 0
        assert browser.stats.ajax_calls >= 4
