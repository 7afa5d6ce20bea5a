"""Exception hierarchy shared by every subsystem of the reproduction.

Each substrate raises its own subclass so that callers can catch failures
at the granularity they care about (e.g. a crawler may tolerate a
``JavascriptError`` in one page but must not swallow a ``CrawlerError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DomError(ReproError):
    """Malformed markup or an illegal DOM operation."""


class JavascriptError(ReproError):
    """Base class for errors raised by the JavaScript substrate."""


class JsSyntaxError(JavascriptError):
    """The script could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class JsRuntimeError(JavascriptError):
    """The script failed while executing (bad reference, bad call, ...)."""


class JsReferenceError(JsRuntimeError):
    """An identifier was read before any binding for it existed."""


class JsTypeError(JsRuntimeError):
    """A value was used in a way its type does not support."""


class NetworkError(ReproError):
    """A simulated network request could not be served."""


class RetriesExhausted(NetworkError):
    """Every allowed attempt of a request failed.

    Carries the last observed status and the attempt count so callers
    (XHR surfacing, per-page failure reports) can degrade gracefully.
    """

    def __init__(self, url: str, status: int, attempts: int):
        super().__init__(
            f"request for {url} failed with status {status} "
            f"after {attempts} attempt(s)"
        )
        self.url = url
        self.status = status
        self.attempts = attempts


class BrowserError(ReproError):
    """The browser substrate failed to load or operate on a page."""


class CrawlerError(ReproError):
    """The crawler hit an unrecoverable condition."""


class SearchError(ReproError):
    """Indexing or query processing failed."""


class PartitionError(ReproError):
    """URL partitioning was given inconsistent inputs."""
