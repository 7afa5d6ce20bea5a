"""Tests of the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            errors.DomError,
            errors.JavascriptError,
            errors.NetworkError,
            errors.BrowserError,
            errors.CrawlerError,
            errors.SearchError,
            errors.PartitionError,
        ],
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, errors.ReproError)

    def test_js_errors_nest(self):
        assert issubclass(errors.JsSyntaxError, errors.JavascriptError)
        assert issubclass(errors.JsRuntimeError, errors.JavascriptError)
        assert issubclass(errors.JsReferenceError, errors.JsRuntimeError)
        assert issubclass(errors.JsTypeError, errors.JsRuntimeError)

    def test_step_limit_and_thrown_are_runtime_errors(self):
        from repro.js import JsStepLimitError, JsThrownValue

        assert issubclass(JsStepLimitError, errors.JsRuntimeError)
        assert issubclass(JsThrownValue, errors.JsRuntimeError)

    def test_syntax_error_carries_position(self):
        error = errors.JsSyntaxError("bad token", line=3, column=7)
        assert error.line == 3
        assert error.column == 7
        assert "line 3" in str(error)

    def test_one_catch_all_for_crawl_loops(self):
        """The fault-tolerant crawl loop relies on ReproError covering
        every failure the library can raise."""
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError
