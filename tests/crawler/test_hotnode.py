"""Unit tests for the hot-node cache and the StackInfo key it is looked up by."""

from repro.crawler.hotnode import HotNodeCache
from repro.js.callstack import CallStack, StackFrame


class TestStackInfo:
    """The thesis' StackInfo is the top script frame's signature."""

    def test_from_frame(self):
        frame = StackFrame("getUrl", ["/comments?p=2", True])
        assert frame.function_name == "getUrl"
        assert frame.render_arguments() == "/comments?p=2, true"
        assert frame.signature() == "getUrl(/comments?p=2, true)"

    def test_from_call_stack_skips_native_frames(self):
        stack = CallStack()
        stack.push(StackFrame("showPage", [2.0]))
        stack.push(StackFrame("getUrl", ["/c?p=2", True]))
        stack.push(StackFrame("send", [], native=True))
        # What the XHR keys the cache by: the topmost script frame.
        assert stack.top_script_frame().signature() == "getUrl(/c?p=2, true)"

    def test_from_call_stack_empty(self):
        assert CallStack().top_script_frame() is None

    def test_from_signature_round_trip(self):
        # The hot node's name is what precedes the first parenthesis,
        # even when an argument itself holds parentheses.
        cache = HotNodeCache()
        cache.store(StackFrame("getUrl", ["/c?p=(2)", True]).signature(), "x")
        assert cache.hot_nodes == {"getUrl"}


class TestHotNodeCache:
    def test_miss_then_hit(self):
        cache = HotNodeCache()
        assert cache.lookup("getUrl(/c?p=2, true)") is None
        cache.store("getUrl(/c?p=2, true)", "<p>two</p>")
        assert cache.lookup("getUrl(/c?p=2, true)") == "<p>two</p>"
        assert cache.lookup("getUrl(/c?p=3, true)") is None

    def test_hot_node_names_tracked(self):
        cache = HotNodeCache()
        cache.store("getUrl(/a, true)", "x")
        cache.store("fetchThing(/b)", "y")
        assert cache.hot_nodes == {"getUrl", "fetchThing"}
