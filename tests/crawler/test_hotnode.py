"""Unit tests for the hot-node cache, StackInfo and the interceptor."""

from repro.crawler.hotnode import HotNodeCache, HotNodeInterceptor, StackInfo
from repro.js import Interpreter, NativeFunction
from repro.js.debugger import CallStack, StackFrame


class TestStackInfo:
    def test_from_frame(self):
        frame = StackFrame("getUrl", ["/comments?p=2", True])
        info = StackInfo.from_frame(frame)
        assert info.function_name == "getUrl"
        assert info.arguments == "/comments?p=2, true"
        assert info.key == "getUrl(/comments?p=2, true)"

    def test_from_call_stack_skips_native_frames(self):
        stack = CallStack()
        stack.push(StackFrame("showPage", [2.0]))
        stack.push(StackFrame("getUrl", ["/c?p=2", True]))
        stack.push(StackFrame("send", [], native=True))
        # What the XHR keys the cache by: the topmost script frame.
        info = StackInfo.from_frame(stack.top_script_frame())
        assert info.function_name == "getUrl"

    def test_from_call_stack_empty(self):
        assert CallStack().top_script_frame() is None

    def test_from_signature_round_trip(self):
        info = StackInfo("getUrl", "/c?p=2, true")
        assert StackInfo.from_signature(info.key) == info


class TestHotNodeCache:
    def test_miss_then_hit(self):
        cache = HotNodeCache()
        assert cache.lookup("getUrl(/c?p=2, true)") is None
        cache.store("getUrl(/c?p=2, true)", "<p>two</p>")
        assert cache.lookup("getUrl(/c?p=2, true)") == "<p>two</p>"
        assert cache.lookups == 2
        assert cache.hits == 1
        assert cache.stores == 1

    def test_hot_node_names_tracked(self):
        cache = HotNodeCache()
        cache.store("getUrl(/a, true)", "x")
        cache.store("fetchThing(/b)", "y")
        assert cache.hot_nodes == {"getUrl", "fetchThing"}

    def test_disabled_cache_never_hits(self):
        cache = HotNodeCache(enabled=False)
        cache.store("k", "v")
        assert cache.lookup("k") is None
        assert cache.size == 0

    def test_clear(self):
        cache = HotNodeCache()
        cache.store("k", "v")
        cache.clear()
        assert cache.lookup("k") is None
        assert not cache.contains("k")

    def test_entries_copy(self):
        cache = HotNodeCache()
        cache.store("k", "v")
        entries = cache.entries()
        entries["k"] = "tampered"
        assert cache.lookup("k") == "v"


class TestHotNodeInterceptor:
    """The debugger-level variant: skip whole function bodies (§4.4.2)."""

    def test_records_then_intercepts(self):
        interp = Interpreter()
        network_calls = []

        def fake_fetch(interpreter, this, args):
            network_calls.append(args[0])
            # Mark the enclosing script function as a pending hot call,
            # the way the XHR observer does.
            frame = interpreter.call_stack.top_script_frame()
            interceptor.mark_pending(StackInfo.from_frame(frame).key)
            return "content-" + str(int(args[0]))

        interceptor = HotNodeInterceptor()
        interp.define_global("fetch", NativeFunction("fetch", fake_fetch))
        interp.attach_debugger(interceptor)
        interp.run("function getPage(p) { return fetch(p); }")
        get_page = interp.global_env.get("getPage")

        first = interp.call_function(get_page, [2.0])
        second = interp.call_function(get_page, [2.0])  # intercepted
        third = interp.call_function(get_page, [3.0])  # different args
        assert first == second == "content-2"
        assert third == "content-3"
        assert network_calls == [2.0, 3.0]
        assert interceptor.intercepted == 1
        assert interceptor.recorded == 2
