"""The ``XMLHttpRequest`` host object.

This is the Python equivalent of the thesis' Java ``XMLHttpRequest``
class (section 4.4.1): page scripts construct it with ``new``, call
``open``/``send`` and read ``responseText``.  ``send`` is the single
point where AJAX traffic happens, and therefore the single point where
the hot-node policy can step in:

* it asks the interpreter's call stack for the topmost *script* function
  and its actual arguments (the ``StackInfo`` of section 4.4.1), and
* consults an attached :class:`HotCallPolicy` — a cache hit serves the
  stored response without touching the network; a miss performs the
  request and stores the result.

The observer wiring of the thesis (AJAXDocument observing
``HTMLDocumentImpl``) collapses here into the trace: ``send`` is a
trace-bus anchor, where every cache consultation emits a
``hotnode_cache_hit``/``hotnode_cache_miss`` event, and a cache-served
call emits its own ``xhr_call`` (``from_cache=true``) so that, together
with the gateway's network-side ``xhr_call`` events, every AJAX call a
script makes shows up exactly once in the trace.
"""

from __future__ import annotations

from typing import Any, Callable, Optional
from urllib.parse import urljoin

from repro.errors import JsTypeError, NetworkError, RetriesExhausted
from repro.js.callstack import StackFrame
from repro.js.interpreter import Interpreter
from repro.js.values import HostConstructor, HostObject, NativeFunction, UNDEFINED, to_string
from repro.net.gateway import NetworkGateway
from repro.obs import HOTNODE_CACHE_HIT, HOTNODE_CACHE_MISS, XHR_CALL


class HotCallPolicy:
    """Interface of the hot-node cache as seen by ``XMLHttpRequest``.

    The real implementation lives in :mod:`repro.crawler.hotnode`; a
    ``None`` policy means every AJAX call goes over the network.
    """

    def lookup(self, signature: str) -> Optional[str]:
        """Cached response body for ``signature``, or ``None``."""
        raise NotImplementedError

    def store(self, signature: str, response_body: str) -> None:
        """Record the response of a freshly performed hot call."""
        raise NotImplementedError


class XMLHttpRequest(HostObject):
    """A synchronous-completion XMLHttpRequest bound to one page."""

    host_class = "XMLHttpRequest"

    def __init__(
        self,
        gateway: NetworkGateway,
        resolve: Callable[[str], str],
        policy: Optional[HotCallPolicy] = None,
    ) -> None:
        self.gateway = gateway
        self.resolve = resolve
        self.policy = policy
        self.method = "GET"
        self.url = ""
        self.ready_state = 0.0
        self.status = 0.0
        self.response_text = ""
        self._opened = False

    # -- host protocol ---------------------------------------------------------

    def js_get(self, name: str) -> Any:
        if name == "open":
            return NativeFunction("open", self._js_open)
        if name == "send":
            return NativeFunction("send", self._js_send)
        if name == "responseText":
            return self.response_text
        if name == "status":
            return self.status
        if name == "readyState":
            return self.ready_state
        return UNDEFINED

    def js_set(self, name: str, value: Any) -> None:
        if name == "onreadystatechange":
            # Accepted but unused: completion is synchronous here.
            return
        raise JsTypeError(f"cannot set XMLHttpRequest property {name!r}")

    def js_keys(self) -> list[str]:
        return ["open", "send", "responseText", "status", "readyState"]

    # -- methods -----------------------------------------------------------------

    def _js_open(self, interp: Interpreter, this: Any, args: list[Any]) -> Any:
        if len(args) < 2:
            raise JsTypeError("XMLHttpRequest.open(method, url[, async])")
        self.method = to_string(args[0])
        self.url = self.resolve(to_string(args[1]))
        self.ready_state = 1.0
        self._opened = True
        return UNDEFINED

    def _js_send(self, interp: Interpreter, this: Any, args: list[Any]) -> Any:
        if not self._opened:
            raise NetworkError("XMLHttpRequest.send() before open()")
        body = "" if not args or args[0] in (None, UNDEFINED) else to_string(args[0])
        signature = self._stack_signature(interp)
        recorder = self.gateway.recorder
        cached = self.policy.lookup(signature) if self.policy is not None else None
        if cached is not None:
            with recorder.span("xhr", url=self.url, from_cache=True):
                self.response_text = cached
                self.status = 200.0
                self.gateway.stats.record_cache_hit()
                if recorder.enabled:
                    recorder.emit(
                        HOTNODE_CACHE_HIT, url=self.url, signature=signature
                    )
                    recorder.emit(
                        XHR_CALL,
                        url=self.url,
                        status=200,
                        bytes=len(cached),
                        from_cache=True,
                    )
        else:
            if self.policy is not None and recorder.enabled:
                recorder.emit(
                    HOTNODE_CACHE_MISS, url=self.url, signature=signature
                )
            try:
                response = self.gateway.ajax_request(self.method, self.url, body)
            except RetriesExhausted as failure:
                # Graceful degradation: a dead endpoint must not crash
                # the interpreter.  Scripts see the failure the way real
                # pages do — an error status and an empty body.
                self.response_text = ""
                self.status = float(failure.status)
                self.ready_state = 4.0
                return UNDEFINED
            self.response_text = response.body
            self.status = float(response.status)
            if self.policy is not None and response.ok:
                self.policy.store(signature, response.body)
        self.ready_state = 4.0
        return UNDEFINED

    def _stack_signature(self, interp: Interpreter) -> str:
        """The hot-node key: topmost script function + actual arguments.

        When ``send`` runs, the stack looks like
        ``... > getUrl(url, async) > send(...)`` — the topmost non-native
        frame is the function whose execution reaches the network, i.e.
        the hot node.  Falls back to the raw request when no script frame
        exists (direct invocation from Python).
        """
        frame: Optional[StackFrame] = interp.call_stack.top_script_frame()
        if frame is None:
            return f"<toplevel>({self.method} {self.url})"
        return frame.signature()


def make_xhr_constructor(
    gateway: NetworkGateway,
    base_url: str = "",
    policy: Optional[HotCallPolicy] = None,
) -> HostConstructor:
    """Build the ``XMLHttpRequest`` constructor to install as a global; its
    requests share one ``url -> urljoin(base_url, url)`` memo, which dies
    with the page and so needs no bound."""
    absolute: dict[str, str] = {}

    def resolve(url: str) -> str:
        resolved = absolute.get(url)
        if resolved is None:
            resolved = absolute[url] = urljoin(base_url, url)
        return resolved

    def construct(interp: Interpreter, args: list[Any]) -> XMLHttpRequest:
        return XMLHttpRequest(gateway, resolve, policy=policy)

    return HostConstructor("XMLHttpRequest", construct)
