"""Incremental (repetitive) crawling — chapter 10 future work.

"Crawling AJAX can also be seen as a repetitive process, which can
reduce the number of crawled events, by ignoring events which did not
cause large changes in previous crawling sessions."

The :class:`IncrementalAjaxCrawler` records, for every fired event, the
pair *(state content hash, event identity)* and whether the DOM changed.
On a later session, events that previously fired **from the very same
state content** without changing anything are skipped outright.  Keying
the history by the state's *content hash* makes the optimization safe
under drift: if a comment page changed since the last session, its hash
changed, nothing matches, and every event is re-fired.

History survives sessions through :meth:`CrawlHistory.save` /
:meth:`CrawlHistory.load` (JSON), mirroring how the thesis persists
application models between phases.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.browser.events import EventBinding
from repro.crawler.ajax import AjaxCrawler
from repro.crawler.config import CrawlerConfig, DEFAULT_CONFIG
from repro.clock import CostModel, SimClock
from repro.model import State
from repro.net.server import SimulatedServer

#: History key: (state content hash, event source, event type, handler).
HistoryKey = tuple[str, str, str, str]


class CrawlHistory:
    """Event outcomes observed in previous crawl sessions."""

    def __init__(self) -> None:
        self._outcomes: dict[HistoryKey, bool] = {}

    @staticmethod
    def key_for(state: State, binding: EventBinding) -> HistoryKey:
        return (
            state.content_hash,
            binding.locator.describe(),
            binding.event_type,
            binding.handler,
        )

    def record(self, state: State, binding: EventBinding, changed: bool) -> None:
        """Remember one fired event's outcome."""
        self._outcomes[self.key_for(state, binding)] = changed

    def known_noop(self, state: State, binding: EventBinding) -> bool:
        """True when this exact event, from this exact state content,
        previously changed nothing."""
        return self._outcomes.get(self.key_for(state, binding)) is False

    @property
    def size(self) -> int:
        return len(self._outcomes)

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "outcomes": [
                [list(key), changed] for key, changed in self._outcomes.items()
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrawlHistory":
        history = cls()
        for key, changed in data.get("outcomes", []):
            history._outcomes[tuple(key)] = bool(changed)
        return history

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CrawlHistory":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class IncrementalAjaxCrawler(AjaxCrawler):
    """An AJAX crawler that learns across sessions.

    Pass the :class:`CrawlHistory` of a previous session (or start
    empty); the crawler skips known no-op events and extends the history
    with everything it fires.  Use :attr:`history` after a crawl to
    persist for the next session.
    """

    def __init__(
        self,
        server: SimulatedServer,
        config: CrawlerConfig = DEFAULT_CONFIG,
        history: Optional[CrawlHistory] = None,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(server, config, clock=clock, cost_model=cost_model)
        self.history = history or CrawlHistory()

    def _should_skip_event(self, state: State, binding: EventBinding) -> bool:
        return self.history.known_noop(state, binding)

    def _record_event_outcome(self, state: State, binding: EventBinding, changed: bool) -> None:
        self.history.record(state, binding, changed)
