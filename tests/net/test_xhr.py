"""Tests for the XMLHttpRequest host object and its hot-call hooks."""

from urllib.parse import urljoin

import pytest

from repro.clock import CostModel, SimClock
from repro.errors import NetworkError
from repro.js import Interpreter
from repro.net import NetworkGateway, StaticServer, make_xhr_constructor
from repro.net.xhr import HotCallPolicy
from repro.obs import NULL_RECORDER, Recorder


def make_interp(pages, policy=None, base_url="http://s/", recorder=NULL_RECORDER):
    clock = SimClock()
    gateway = NetworkGateway(
        StaticServer(pages), clock, CostModel(network_jitter=0.0), recorder=recorder
    )
    interp = Interpreter()
    interp.define_global(
        "XMLHttpRequest", make_xhr_constructor(gateway, base_url=base_url, policy=policy)
    )
    return interp, gateway


FETCH_SCRIPT = """
function getUrl(url, async) {
    var req = new XMLHttpRequest();
    req.open("GET", url, async);
    req.send(null);
    return req.responseText;
}
"""


class DictPolicy(HotCallPolicy):
    def __init__(self):
        self.cache = {}
        self.stored = []

    def lookup(self, signature):
        return self.cache.get(signature)

    def store(self, signature, response_body):
        self.cache[signature] = response_body
        self.stored.append(signature)


class TestBasicXhr:
    def test_fetch_returns_response_text(self):
        interp, _ = make_interp({"http://s/data": "payload"})
        interp.run(FETCH_SCRIPT)
        assert interp.eval_expression("getUrl('http://s/data', true)") == "payload"

    def test_relative_url_resolved_against_base(self):
        interp, _ = make_interp({"http://s/comments?p=2": "page2"}, base_url="http://s/watch")
        interp.run(FETCH_SCRIPT)
        assert interp.eval_expression("getUrl('/comments?p=2', true)") == "page2"

    @pytest.mark.parametrize(
        "url",
        [
            "http://other.test/a?b=1",
            "/comments?p=2",
            "../up/./x/../y",
            "?p=3",
            "more/data",
            "",
        ],
    )
    def test_the_url_memo_answers_what_urljoin_does(self, url):
        base = "http://s/dir/watch?v=1"
        interp, _ = make_interp({}, base_url=base)
        opened = interp.run(
            "var urls = []; for (var i = 0; i < 2; i++) {"
            " var r = new XMLHttpRequest(); r.open('GET', %r); urls.push(r); } urls" % url
        )
        assert [request.url for request in opened.elements] == [urljoin(base, url)] * 2

    def test_status_and_ready_state(self):
        interp, _ = make_interp({"http://s/x": "ok"})
        result = interp.run(
            FETCH_SCRIPT
            + """
            var r = new XMLHttpRequest();
            r.open('GET', 'http://s/x', true);
            r.send(null);
            [r.status, r.readyState];
            """
        )
        assert result.elements == [200.0, 4.0]

    def test_send_before_open_raises(self):
        interp, _ = make_interp({})
        with pytest.raises(NetworkError):
            interp.run("var r = new XMLHttpRequest(); r.send(null);")

    def test_each_call_counts_in_stats(self):
        interp, gateway = make_interp({"http://s/a": "x"})
        interp.run(FETCH_SCRIPT)
        interp.eval_expression("getUrl('http://s/a', true)")
        interp.eval_expression("getUrl('http://s/a', true)")
        assert gateway.stats.ajax_calls == 2


class TestHotCallPolicy:
    def test_miss_then_hit(self):
        policy = DictPolicy()
        interp, gateway = make_interp({"http://s/c?p=2": "page two"}, policy=policy)
        interp.run(FETCH_SCRIPT)
        first = interp.eval_expression("getUrl('http://s/c?p=2', true)")
        second = interp.eval_expression("getUrl('http://s/c?p=2', true)")
        assert first == second == "page two"
        assert gateway.stats.ajax_calls == 1
        assert gateway.stats.cached_hits == 1

    def test_signature_is_hot_function_with_args(self):
        policy = DictPolicy()
        interp, _ = make_interp({"http://s/c?p=2": "x"}, policy=policy)
        interp.run(FETCH_SCRIPT)
        interp.eval_expression("getUrl('http://s/c?p=2', true)")
        assert policy.stored == ["getUrl(http://s/c?p=2, true)"]

    def test_different_arguments_are_different_hot_calls(self):
        policy = DictPolicy()
        interp, gateway = make_interp(
            {"http://s/c?p=2": "two", "http://s/c?p=3": "three"}, policy=policy
        )
        interp.run(FETCH_SCRIPT)
        interp.eval_expression("getUrl('http://s/c?p=2', true)")
        interp.eval_expression("getUrl('http://s/c?p=3', true)")
        assert gateway.stats.ajax_calls == 2
        assert gateway.stats.cached_hits == 0

    def test_cached_call_does_not_touch_network(self):
        policy = DictPolicy()
        policy.cache["getUrl(http://s/never, true)"] = "from cache"
        interp, gateway = make_interp({}, policy=policy)
        interp.run(FETCH_SCRIPT)
        assert interp.eval_expression("getUrl('http://s/never', true)") == "from cache"
        assert gateway.stats.ajax_calls == 0

    def test_error_responses_not_cached(self):
        policy = DictPolicy()
        interp, gateway = make_interp({}, policy=policy)  # everything 404s
        interp.run(FETCH_SCRIPT)
        interp.eval_expression("getUrl('http://s/missing', true)")
        assert policy.cache == {}

    def test_toplevel_send_uses_fallback_signature(self):
        policy = DictPolicy()
        interp, _ = make_interp({"http://s/x": "ok"}, policy=policy)
        interp.run(
            "var r = new XMLHttpRequest(); r.open('GET', 'http://s/x', true); r.send(null);"
        )
        (signature,) = policy.stored
        assert signature.startswith("<toplevel>(")


class TestObserver:
    def test_observer_sees_cache_flag(self):
        """The trace is what observes hot calls: one lookup event per
        send, with its signature, and one ``xhr_call`` per call."""
        recorder = Recorder()
        interp, _ = make_interp({"http://s/c?p=2": "x"}, policy=DictPolicy(), recorder=recorder)
        interp.run(FETCH_SCRIPT)
        interp.eval_expression("getUrl('http://s/c?p=2', true)")
        interp.eval_expression("getUrl('http://s/c?p=2', true)")
        lookups = [
            (event.kind, event.fields["signature"], event.fields["url"])
            for event in recorder.events
            if event.kind.startswith("hotnode_cache_")
        ]
        assert lookups == [
            ("hotnode_cache_miss", "getUrl(http://s/c?p=2, true)", "http://s/c?p=2"),
            ("hotnode_cache_hit", "getUrl(http://s/c?p=2, true)", "http://s/c?p=2"),
        ]
        calls = [event.fields for event in recorder.events if event.kind == "xhr_call"]
        assert [bool(call.get("from_cache")) for call in calls] == [False, True]
