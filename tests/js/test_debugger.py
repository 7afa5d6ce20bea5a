"""Tests for the interpreter's call stack, which hot-node detection reads (§4.4)."""

import pytest

from repro.errors import JsTypeError
from repro.js import Interpreter, NativeFunction, StackFrame


@pytest.fixture
def interp():
    return Interpreter()


class TestCallStack:
    def test_stack_grows_and_shrinks(self, interp):
        depths = []

        def probe(interpreter, this, args):
            depths.append(len(interpreter.call_stack))
            return None

        interp.define_global("probe", NativeFunction("probe", probe))
        interp.run(
            """
            function inner() { probe(); }
            function outer() { inner(); }
            outer();
            """
        )
        # probe itself is on the stack: outer > inner > probe.
        assert depths == [3]
        assert len(interp.call_stack) == 0

    def test_top_frame_has_name_and_arguments(self, interp):
        captured = {}

        def probe(interpreter, this, args):
            frame = interpreter.call_stack.top_script_frame()
            captured["name"] = frame.function_name
            captured["args"] = frame.arguments
            return None

        interp.define_global("probe", NativeFunction("probe", probe))
        interp.run(
            """
            function getUrl(url, async) { probe(); }
            getUrl('/comments?p=2', true);
            """
        )
        assert captured["name"] == "getUrl"
        assert captured["args"] == ["/comments?p=2", True]

    def test_stack_frame_signature_format(self):
        frame = StackFrame("getUrl", ["/comments?p=2", True])
        assert frame.signature() == "getUrl(/comments?p=2, true)"

    def test_stack_empty_after_error(self, interp):
        with pytest.raises(JsTypeError):
            interp.run("function f() { var u; u.x; } f();")
        assert len(interp.call_stack) == 0
