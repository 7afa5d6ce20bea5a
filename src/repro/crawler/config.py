"""Crawler configuration.

Mirrors the ``AJAXConfig`` knobs of chapter 8 that matter for the
algorithms: the additional-state cap (``SACR_NUM_OF_ADDITIONAL_STATES``),
the hot-node switch (``USE_DEBUGGER``), traditional-mode
(``TRADITIONAL_CRAWLING``) and the guards of section 3.2 against state
explosion and infinite event invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dom.simhash import bands_for_threshold
from repro.net.faults import RetryPolicy


@dataclass(frozen=True)
class CrawlerConfig:
    """Knobs shared by the crawling algorithms."""

    #: Maximum number of additional states per page, not counting the
    #: initial one (the thesis used 10 for YouTube10000).
    max_additional_states: int = 10
    #: Hard cap on event invocations per page: the guard against
    #: infinite event invocation (§3.2).
    max_event_invocations: int = 500
    #: Whether the hot-node policy (chapter 4) is active.
    use_hot_node: bool = True
    #: Keep the serialized DOM of every state in the model (needed for
    #: offline state reconstruction; costs memory).
    store_html: bool = False
    #: When False, hash-based duplicate elimination is disabled — every
    #: DOM change becomes a new state (ablation for DESIGN.md §5.1).
    deduplicate_states: bool = True
    #: Near-duplicate collapse (ROADMAP item 3): maximum simhash Hamming
    #: distance at which a newly observed state merges into an existing
    #: canonical state instead of becoming its own node.  ``None`` (the
    #: default) disables the layer entirely — exact-hash identity only,
    #: keeping every golden trace and parity check byte-identical.
    #: Collapse merges by content hash, so it requires
    #: ``deduplicate_states=True``; 0 merges states whose features are
    #: identical but whose markup differs.
    near_dup_threshold: Optional[int] = None
    #: Attempts per network request (1 = no retries, the legacy default,
    #: which keeps the happy-path benchmarks byte-identical).  Backoff
    #: and jitter are :class:`~repro.net.faults.RetryPolicy`'s defaults.
    retry_max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.near_dup_threshold is None:
            return
        bands_for_threshold(self.near_dup_threshold)  # range check
        if not self.deduplicate_states:
            raise ValueError(
                "near_dup_threshold requires hash-based deduplication "
                "(deduplicate_states=True): collapse merges by content hash"
            )

    @property
    def max_states(self) -> int:
        """Total state cap per page (initial + additional)."""
        return self.max_additional_states + 1

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The gateway retry policy these knobs describe (None = legacy)."""
        if self.retry_max_attempts <= 1:
            return None
        return RetryPolicy(max_attempts=self.retry_max_attempts)


#: Convenience default used across tests/benchmarks.
DEFAULT_CONFIG = CrawlerConfig()
