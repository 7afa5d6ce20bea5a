"""The hot-node heuristic (chapter 4).

A **hot node** is a script function whose execution reaches the network
— on the YouTube page, ``getUrl`` (reached from
``getUrlXMLResponseAndFillDiv``).  A **hot call** is a concrete
invocation with actual parameters.  The optimization: remember the
server content per hot call and never fetch it twice.

Two cooperating pieces implement this:

* :class:`HotNodeCache` — the policy object plugged into
  :class:`~repro.net.xhr.XMLHttpRequest`.  At ``send()`` time the XHR
  computes the :class:`StackInfo` (topmost script frame + actual args,
  section 4.4.1) and asks the cache; a hit delivers the stored response
  without any network traffic (section 4.4.2's "instead of the following
  XMLHttpRequest.open() and send() we deliver the cached result").

* :class:`HotNodeInterceptor` — an optional, more aggressive variant
  built on the Rhino-style debugger: when a *whole function call*
  matches a cached hot call, ``on_enter`` skips the body entirely and
  returns the recorded result.  Safe only for pure fetch functions; kept
  as an ablation mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.js.debugger import Debugger, Intercept, StackFrame
from repro.net.xhr import HotCallPolicy


@dataclass(frozen=True)
class StackInfo:
    """The thesis' ``StackInfo``: hot-node name plus rendered arguments."""

    function_name: str
    arguments: str

    @property
    def key(self) -> str:
        return f"{self.function_name}({self.arguments})"

    @classmethod
    def from_frame(cls, frame: StackFrame) -> "StackInfo":
        return cls(function_name=frame.function_name, arguments=frame.render_arguments())

    @classmethod
    def from_signature(cls, signature: str) -> "StackInfo":
        """Parse a rendered ``name(args)`` signature back into parts."""
        name, _, rest = signature.partition("(")
        return cls(function_name=name, arguments=rest.rstrip(")"))


@dataclass
class HotNodeCache(HotCallPolicy):
    """The Hot Node Cache (Table 4.4): hot call signature → server content."""

    enabled: bool = True
    _cache: dict[str, str] = field(default_factory=dict)
    #: Names of functions observed to be hot nodes (Step 1 of §4.2).
    hot_nodes: set[str] = field(default_factory=set)
    #: Counters.
    lookups: int = 0
    hits: int = 0
    stores: int = 0

    # -- HotCallPolicy interface ---------------------------------------------------

    def lookup(self, signature: str) -> Optional[str]:
        if not self.enabled:
            return None
        self.lookups += 1
        cached = self._cache.get(signature)
        if cached is not None:
            self.hits += 1
        return cached

    def store(self, signature: str, response_body: str) -> None:
        if not self.enabled:
            return
        self._cache[signature] = response_body
        self.hot_nodes.add(StackInfo.from_signature(signature).function_name)
        self.stores += 1

    # -- management ------------------------------------------------------------------

    def contains(self, signature: str) -> bool:
        return signature in self._cache

    def clear(self) -> None:
        """Drop cached content (e.g. between crawl sessions)."""
        self._cache.clear()

    @property
    def size(self) -> int:
        return len(self._cache)

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> dict[str, float]:
        """Counters in one dict (what ``trace doctor`` / --profile print)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "entries": self.size,
            "hot_nodes": len(self.hot_nodes),
        }

    def entries(self) -> dict[str, str]:
        """A copy of the cache contents (Table 4.4 rows)."""
        return dict(self._cache)


class HotNodeInterceptor(Debugger):
    """Debugger-level interception of whole hot-node calls (§4.4.2).

    Watches ``on_enter``: when the entered function+arguments matches a
    recorded hot call, the call is skipped and the recorded *return
    value* delivered.  Results are recorded on ``on_exit`` of calls that
    performed a real fetch (marked by the caller via :meth:`mark_pending`).
    """

    def __init__(self) -> None:
        self._results: dict[str, Any] = {}
        self._pending: set[str] = set()
        self.intercepted = 0

    def mark_pending(self, signature: str) -> None:
        """Note that the currently executing hot call should be recorded."""
        self._pending.add(signature)

    def on_enter(self, frame: StackFrame) -> Optional[Intercept]:
        key = StackInfo.from_frame(frame).key
        if key in self._results:
            self.intercepted += 1
            return Intercept(self._results[key])
        return None

    def on_exit(self, frame: StackFrame, result: Any) -> None:
        key = StackInfo.from_frame(frame).key
        if key in self._pending:
            self._pending.discard(key)
            self._results[key] = result

    @property
    def recorded(self) -> int:
        return len(self._results)
