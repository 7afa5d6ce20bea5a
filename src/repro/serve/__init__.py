"""The HTTP query-serving layer (chapters 5–6, served to searchers).

Stdlib-only: an HTTP/1.1 connection loop on :mod:`socketserver` in front
of the :class:`~repro.search.SearchEngine`, with an LRU+TTL query cache,
per-client token-bucket rate limiting, deterministic latency injection
for soak realism, Prometheus metrics at ``/metrics``, and §5.4 result
reconstruction at ``/result``.  ``repro.serve.loadtest`` is the paired
closed-loop load generator; ``tests/serve/test_http.py`` drives the
tier end to end over real sockets.
"""

from repro.serve.cache import QueryCache
from repro.serve.handlers import (
    CLIENT_HEADER,
    REQUEST_ID_HEADER,
    SearchRequestHandler,
)
from repro.serve.limiter import RateDecision, TokenBucketLimiter
from repro.serve.loadtest import (
    LoadTestConfig,
    LoadTestReport,
    run_loadtest,
)
from repro.serve.server import SearchServer
from repro.serve.telemetry import (
    DEFAULT_SLOS,
    ServingTelemetry,
    format_top,
    sample_request,
)
from repro.serve.service import (
    BadRequest,
    NotFound,
    RateLimited,
    SearchService,
    ServeConfig,
    ServeError,
    UpstreamFailed,
)

__all__ = [
    "QueryCache",
    "TokenBucketLimiter",
    "RateDecision",
    "SearchService",
    "ServeConfig",
    "ServeError",
    "BadRequest",
    "NotFound",
    "RateLimited",
    "UpstreamFailed",
    "SearchServer",
    "SearchRequestHandler",
    "CLIENT_HEADER",
    "REQUEST_ID_HEADER",
    "ServingTelemetry",
    "DEFAULT_SLOS",
    "sample_request",
    "format_top",
    "LoadTestConfig",
    "LoadTestReport",
    "run_loadtest",
]
