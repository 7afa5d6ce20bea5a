"""Typed trace events — the vocabulary of the observability layer.

Every interesting thing the pipeline does is recorded as a
:class:`TraceEvent`: a *kind* from the closed vocabulary below, a
monotonic sequence number, the virtual-clock timestamp at emission, and
a flat dict of scalar fields.  Because the clock and every RNG in the
system are deterministic, the canonical serialization of a seeded
crawl's event stream is byte-stable — which is what makes golden-trace
regression testing possible (see :mod:`repro.obs.goldens`).

To add a new event kind: add the constant here, append it to
:data:`EVENT_KINDS`, emit it through a :class:`~repro.obs.recorder.Recorder`
at the instrumentation site, and regenerate the golden traces if the
new events appear in the golden corpora (``python -m repro.obs.goldens
--regen``).  docs/API.md carries the schema table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

# -- event kinds -------------------------------------------------------------------

#: A full page load completed successfully at the gateway.
PAGE_FETCH = "page_fetch"
#: A script performed one XMLHttpRequest ``send()`` (cache or network).
XHR_CALL = "xhr_call"
#: The hot-node cache answered an XHR without network traffic.
HOTNODE_CACHE_HIT = "hotnode_cache_hit"
#: The hot-node cache was consulted and missed (the XHR went out).
HOTNODE_CACHE_MISS = "hotnode_cache_miss"
#: The gateway re-attempted a failed request after backoff.
RETRY = "retry"
#: A request exhausted every allowed attempt (terminal failure).
REQUEST_FAILED = "request_failed"
#: The crawler fired one user event on a page state.
EVENT_FIRED = "event_fired"
#: A genuinely new application state joined the model.
STATE_DISCOVERED = "state_discovered"
#: A DOM change resolved to an already-known state (hash dedup).
STATE_DUPLICATE = "state_duplicate"
#: A DOM change merged into a near-duplicate canonical state (banded
#: LSH collapse; only emitted when ``near_dup_threshold`` is set).
STATE_COLLAPSED = "state_collapsed"
#: A new state was rejected by the per-page state cap (§4.3).
STATE_CAPPED = "state_capped"
#: The inverted file sorted/flushed its posting lists.
INDEX_FLUSH = "index_flush"
#: The segmented index froze a memtable into an on-disk segment.
SEGMENT_FLUSH = "segment_flush"
#: The segmented index merged a tier of segments into one (LSM).
COMPACTION = "compaction"
#: The search engine evaluated one query.
QUERY_EVAL = "query_eval"
#: The HTTP serving layer answered one request (endpoint, status,
#: cached, client — emitted once per request by ``repro.serve``).
SERVE_REQUEST = "serve_request"
#: A causal span opened (``span`` names the span kind, ``span_id`` is
#: unique per recorder, ``parent_id`` links to the enclosing span).
SPAN_START = "span_start"
#: The matching close of a span (same ``span_id``; ``error`` marks
#: spans unwound by an exception).
SPAN_END = "span_end"

#: The closed vocabulary, in documentation order.
EVENT_KINDS = (
    PAGE_FETCH,
    XHR_CALL,
    HOTNODE_CACHE_HIT,
    HOTNODE_CACHE_MISS,
    RETRY,
    REQUEST_FAILED,
    EVENT_FIRED,
    STATE_DISCOVERED,
    STATE_DUPLICATE,
    STATE_COLLAPSED,
    STATE_CAPPED,
    INDEX_FLUSH,
    SEGMENT_FLUSH,
    COMPACTION,
    QUERY_EVAL,
    SERVE_REQUEST,
    SPAN_START,
    SPAN_END,
)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: what happened, when, and in what order."""

    #: Monotonic sequence number within one recorder (total order).
    seq: int
    #: Virtual-clock milliseconds at emission.
    t_ms: float
    #: One of :data:`EVENT_KINDS`.
    kind: str
    #: Flat scalar payload (strings, numbers, bools, None).
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """The canonical one-line serialization (sorted keys, compact)."""
        payload = {"seq": self.seq, "t_ms": self.t_ms, "kind": self.kind}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        payload = json.loads(line)
        seq = payload.pop("seq")
        t_ms = payload.pop("t_ms")
        kind = payload.pop("kind")
        return cls(seq=seq, t_ms=t_ms, kind=kind, fields=payload)


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize an event stream as canonical JSONL (one event per line)."""
    return "\n".join(event.to_json() for event in events)


def from_jsonl(text: str) -> list[TraceEvent]:
    """Parse a canonical JSONL trace back into events."""
    return [TraceEvent.from_json(line) for line in text.splitlines() if line.strip()]
