"""The query-serving core: parameter parsing, caching, error mapping.

:class:`SearchService` is the transport-agnostic half of the serving
layer (chapters 5–6 of the thesis: boolean retrieval, eq. 5.3 ranking,
and §5.4 result aggregation, exposed to searchers).  The HTTP handler
in :mod:`repro.serve.handlers` is a thin shell over it; everything
interesting — validation, the LRU+TTL query cache, token-bucket
admission, deterministic latency injection, and the mapping of every
library exception onto one HTTP status — lives here so it can be unit
tested without sockets.

Error mapping contract (the satellite bugfixes exist to make it total):

===========================================  ======
condition                                    status
===========================================  ======
missing/blank ``q``, empty query after
tokenization, bad ``limit``/``offset``       400
unknown endpoint, unknown URI or state,
result rendering not configured              404
token bucket drained                         429
event-path replay failed (site drifted —
``SearchError`` from the aggregator)         502
anything else                                500
===========================================  ======
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from repro.clock import CostModel
from repro.errors import CrawlerError, ReproError, SearchError
from repro.model import ApplicationModel
from repro.net.latency import LatencyDistribution, UniformJitter
from repro.obs import (
    NULL_RECORDER,
    SERVE_REQUEST,
    MetricsRegistry,
    active_request,
    current_request_trace,
)
from repro.search import ResultAggregator, SearchEngine
from repro.serve.cache import QueryCache
from repro.serve.limiter import TokenBucketLimiter
from repro.serve.telemetry import ServingTelemetry


class ServeError(ReproError):
    """A request failed with a definite HTTP status."""

    status = 500

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class BadRequest(ServeError):
    """The client sent parameters the service cannot interpret (400)."""

    status = 400


class NotFound(ServeError):
    """No such endpoint, URI or state (404)."""

    status = 404


class RateLimited(ServeError):
    """The client's token bucket is drained (429 + Retry-After)."""

    status = 429


class UpstreamFailed(ServeError):
    """Result reconstruction failed — the site drifted since the crawl
    (502: the backend, not the client, is at fault)."""

    status = 502


#: Results per page when the client does not pass ``limit``, and the
#: largest ``limit`` served (a larger one is a 400).
DEFAULT_LIMIT = 10
MAX_LIMIT = 100


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving process."""

    #: LRU capacity of the query cache (0 disables caching).
    cache_entries: int = 256
    #: Cache TTL in seconds (None = entries never expire).
    cache_ttl_s: Optional[float] = 30.0
    #: Sustained per-client requests/second (None = unlimited).
    rate_limit_rps: Optional[float] = None
    #: Bucket capacity: short bursts above the sustained rate.
    rate_limit_burst: float = 20.0
    #: Injected base latency per request in milliseconds (0 = off).
    #: Soak tests use this to make a local loopback behave like a
    #: realistically slow backend.
    latency_ms: float = 0.0
    #: Latency shape; seeded, so injection is deterministic.
    latency_distribution: LatencyDistribution = field(
        default_factory=lambda: UniformJitter(spread=0.2, seed=0x5EED)
    )


class SearchService:
    """Query serving over one :class:`~repro.search.SearchEngine`."""

    def __init__(
        self,
        engine: SearchEngine,
        config: ServeConfig = ServeConfig(),
        models: Optional[Iterable[ApplicationModel]] = None,
        site=None,
        registry: Optional[MetricsRegistry] = None,
        recorder=NULL_RECORDER,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.engine = engine
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        self.clock = clock
        self.sleep = sleep
        self.cache = QueryCache(
            max_entries=config.cache_entries,
            ttl_s=config.cache_ttl_s,
            clock=clock,
            registry=self.registry,
        )
        self.limiter = (
            TokenBucketLimiter(
                rate=config.rate_limit_rps,
                burst=config.rate_limit_burst,
                clock=clock,
                registry=self.registry,
            )
            if config.rate_limit_rps is not None
            else None
        )
        #: URI -> application model, for §5.4 result reconstruction.
        self.models: dict[str, ApplicationModel] = {
            model.url: model for model in models or ()
        }
        #: The simulated site the models were crawled from (replay needs
        #: a live backend to re-fetch pages and AJAX fragments).
        self.site = site
        # Replays share the site's server-side state; serialize them.
        self._replay_lock = threading.Lock()
        self._latency_lock = threading.Lock()
        #: Live telemetry: rolling windows, sampled traces, SLO burn
        #: rates, the /debug/* endpoints.
        self.telemetry = ServingTelemetry(clock)

    # -- admission / latency --------------------------------------------------------

    def admit(self, client: str) -> None:
        """Charge one request to ``client``'s token bucket.

        Raises :class:`RateLimited` when the bucket is drained.
        """
        if self.limiter is None:
            return
        decision = self.limiter.check(client)
        if not decision.allowed:
            raise RateLimited(
                f"rate limit exceeded for client {client!r}",
                retry_after_s=decision.retry_after_s,
            )

    def inject_latency(self) -> float:
        """Sleep the configured injected latency; returns slept ms."""
        if self.config.latency_ms <= 0:
            return 0.0
        with self._latency_lock:
            factor = self.config.latency_distribution.sample()
        delay_ms = self.config.latency_ms * factor
        self.sleep(delay_ms / 1000.0)
        self.registry.inc("serve.latency_injected_ms", delay_ms)
        return delay_ms

    # -- endpoints -------------------------------------------------------------------

    def search(
        self,
        params: Mapping[str, str],
        client: str = "-",
        request_id: Optional[str] = None,
    ) -> dict:
        """Answer ``/search``: a JSON-able result page.

        ``params`` are the decoded query-string parameters (``q``,
        optional ``limit`` and ``offset``).
        """
        return self._observed(
            "search", client, lambda: self._search(params), request_id
        )

    def _search(self, params: Mapping[str, str]) -> dict:
        query = (params.get("q") or "").strip()
        if not query:
            raise BadRequest("missing or blank query parameter 'q'")
        limit = self._int_param(params, "limit", DEFAULT_LIMIT, 1)
        if limit > MAX_LIMIT:
            raise BadRequest(f"limit {limit} exceeds the maximum of {MAX_LIMIT}")
        offset = self._int_param(params, "offset", 0, 0)
        key = (query, limit, offset)
        trace = current_request_trace()
        trace.annotate(query=query, limit=limit, offset=offset)
        cached = self.cache.get(key)
        if cached is not None:
            trace.annotate(cached=True)
            return dict(cached, cached=True)
        trace.annotate(cached=False)
        self.inject_latency()
        try:
            total, results = self.engine.top(query, offset + limit)
        except SearchError as exc:
            # "empty query": every token was punctuation — a client
            # error, not a server fault.
            raise BadRequest(str(exc)) from exc
        page = {
            "query": query,
            "total": total,
            "offset": offset,
            "limit": limit,
            "results": [
                {
                    "uri": result.uri,
                    "state": result.state_id,
                    "score": result.score,
                    "components": result.components,
                }
                for result in results[offset:]
            ],
        }
        self.cache.put(key, page)
        return dict(page, cached=False)

    def result(
        self,
        params: Mapping[str, str],
        client: str = "-",
        request_id: Optional[str] = None,
    ) -> dict:
        """Answer ``/result``: materialize one hit state by event replay."""
        return self._observed(
            "result", client, lambda: self._result(params), request_id
        )

    def _result(self, params: Mapping[str, str]) -> dict:
        uri = (params.get("uri") or "").strip()
        state_id = (params.get("state") or "").strip()
        if not uri or not state_id:
            raise BadRequest("parameters 'uri' and 'state' are both required")
        if self.site is None or not self.models:
            raise NotFound("result rendering is not configured on this server")
        model = self.models.get(uri)
        if model is None:
            raise NotFound(f"no crawled model for {uri!r}")
        try:
            state = model.get_state(state_id)
        except CrawlerError as exc:
            raise NotFound(str(exc)) from exc
        self.inject_latency()
        from repro.browser import Browser
        from repro.dom import serialize

        with self._replay_lock:
            aggregator = ResultAggregator(
                Browser(self.site, cost_model=CostModel(network_jitter=0.0))
            )
            try:
                page = aggregator.reconstruct(model, state_id)
            except SearchError as exc:
                raise UpstreamFailed(str(exc)) from exc
            with page:
                html = serialize(page.document)
        return {"uri": uri, "state": state_id, "depth": state.depth, "html": html}

    def metrics_text(self) -> str:
        """The ``/metrics`` payload: Prometheus text exposition."""
        return self.registry.to_prometheus()

    # -- live telemetry views ---------------------------------------------------------

    def note_rate_limited(self) -> None:
        """Book one 429 into the telemetry windows (the handler rejects
        rate-limited requests before any endpoint body runs, so they
        never pass through :meth:`_observed`)."""
        self.telemetry.record_rejection()

    def debug_vars(self) -> dict:
        """The ``/debug/vars`` payload: windowed rates and quantiles."""
        return self.telemetry.vars()

    def debug_slo(self) -> dict:
        """The ``/debug/slo`` payload: budgets, burn rates, live findings."""
        return self.telemetry.slo_status()

    def debug_slow(self) -> dict:
        """The ``/debug/slow`` payload: the recent slow-query log."""
        return {"slow": self.telemetry.slow_queries()}

    def debug_trace(self, request_id: str) -> dict:
        """The ``/debug/trace?id=`` payload: one retained request trace."""
        if not request_id:
            raise BadRequest("parameter 'id' is required")
        found = self.telemetry.trace(request_id)
        if found is None:
            raise NotFound(
                f"no retained trace for {request_id!r} (not sampled, "
                f"or already evicted from the ring)"
            )
        return found

    def health(self) -> dict:
        """The ``/healthz`` payload."""
        return {
            "status": "ok",
            "states": self.engine.index.num_states,
            "vocabulary": self.engine.index.vocabulary_size,
            "models": len(self.models),
        }

    # -- plumbing ---------------------------------------------------------------------

    def _observed(
        self,
        endpoint: str,
        client: str,
        fn: Callable[[], dict],
        request_id: Optional[str] = None,
    ) -> dict:
        """Run one endpoint body under a span, booking counters/latency."""
        start = self.clock()
        status = 200
        trace = self.telemetry.begin(endpoint, client, request_id)
        try:
            with self.recorder.span("serve_request", endpoint=endpoint):
                with active_request(trace):
                    response = fn()
        except ServeError as exc:
            status = exc.status
            raise
        except Exception:
            status = 500
            raise
        finally:
            elapsed_ms = (self.clock() - start) * 1000.0
            self.registry.inc("serve.requests", endpoint=endpoint, status=status)
            self.registry.observe("serve.request_ms", elapsed_ms, endpoint=endpoint)
            self.telemetry.finish(trace, status, elapsed_ms)
            if self.recorder.enabled:
                self.recorder.emit(
                    SERVE_REQUEST,
                    endpoint=endpoint,
                    status=status,
                    client=client,
                )
        return response

    @staticmethod
    def _int_param(
        params: Mapping[str, str], name: str, default: int, minimum: int
    ) -> int:
        raw = params.get(name)
        if raw is None or raw == "":
            return default
        try:
            value = int(raw)
        except ValueError:
            raise BadRequest(f"parameter {name!r} must be an integer, got {raw!r}")
        if value < minimum:
            raise BadRequest(f"parameter {name!r} must be >= {minimum}, got {value}")
        return value
