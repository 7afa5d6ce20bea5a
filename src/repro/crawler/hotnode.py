"""The hot-node heuristic (chapter 4).

A **hot node** is a script function whose execution reaches the network
— on the YouTube page, ``getUrl`` (reached from
``getUrlXMLResponseAndFillDiv``).  A **hot call** is a concrete
invocation with actual parameters.  The optimization: remember the
server content per hot call and never fetch it twice.

:class:`HotNodeCache` is the policy object plugged into
:class:`~repro.net.xhr.XMLHttpRequest`.  At ``send()`` time the XHR
renders the topmost script frame with its actual arguments (the thesis'
``StackInfo``, section 4.4.1) and asks the cache; a hit delivers the
stored response without any network traffic (section 4.4.2's "instead
of the following XMLHttpRequest.open() and send() we deliver the cached
result").  Hits and misses are counted by ``NetworkStats.cached_hits``
and the ``hotnode_cache_*`` trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.xhr import HotCallPolicy


@dataclass
class HotNodeCache(HotCallPolicy):
    """The Hot Node Cache (Table 4.4): hot call signature → server content."""

    _cache: dict[str, str] = field(default_factory=dict)
    #: Names of functions observed to be hot nodes (Step 1 of §4.2).
    hot_nodes: set[str] = field(default_factory=set)

    def lookup(self, signature: str) -> Optional[str]:
        return self._cache.get(signature)

    def store(self, signature: str, response_body: str) -> None:
        self._cache[signature] = response_body
        self.hot_nodes.add(signature.partition("(")[0])
