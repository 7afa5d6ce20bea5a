"""The HTTP shell: request parsing, JSON rendering, status mapping.

One :class:`http.server.BaseHTTPRequestHandler` subclass per server,
bound to its :class:`~repro.serve.service.SearchService` by
:func:`make_handler`.  The handler does transport only — URL decoding,
content negotiation, the ``Retry-After`` header — and delegates every
decision to the service, whose :class:`~repro.serve.service.ServeError`
subclasses carry the status code.

Endpoints::

    GET /search?q=<query>[&limit=N][&offset=N]   JSON result page
    GET /result?uri=<uri>&state=<sN>             JSON replayed state
    GET /metrics                                 Prometheus text
    GET /healthz                                 JSON liveness probe
    GET /debug/vars                              live windowed telemetry
    GET /debug/slo                               SLO budgets + findings
    GET /debug/slow                              recent slow-query log
    GET /debug/trace?id=<req-id>                 one retained deep trace

Every ``/search`` and ``/result`` response echoes ``X-Request-Id`` —
the client's own id when it sent one, a server-assigned one otherwise —
so a slow request spotted client-side can be looked up in
``/debug/trace`` afterwards.

Responses are HTTP/1.1 with exact ``Content-Length`` so keep-alive
connections (the load-test workers) can pipeline requests.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler
from typing import Type
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import NotFound, RateLimited, SearchService, ServeError

#: Header that names the rate-limiting principal (falls back to the
#: peer address, which on loopback lumps all clients together).
CLIENT_HEADER = "X-Client-Id"

#: Request-id header, propagated inbound (client-assigned ids survive
#: into the trace rings) and echoed on every search/result response.
REQUEST_ID_HEADER = "X-Request-Id"


class SearchRequestHandler(BaseHTTPRequestHandler):
    """Routes GETs to the bound service and renders JSON."""

    #: Bound by :func:`make_handler`.
    service: SearchService

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body land in separate small writes; without
    # TCP_NODELAY, Nagle + delayed ACK stalls every keep-alive response
    # ~40 ms on loopback, swamping the sub-ms serving path.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        params = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        client = self.headers.get(CLIENT_HEADER) or self.client_address[0]
        # Every /search and /result answer, errors included, names the
        # request, so the client can look its trace up afterwards.
        id_header = None
        if split.path in ("/search", "/result"):
            request_id = (
                self.headers.get(REQUEST_ID_HEADER)
                or self.service.telemetry.next_request_id()
            )
            id_header = {REQUEST_ID_HEADER: request_id}
        try:
            if split.path == "/search":
                self.service.admit(client)
                self._send_json(
                    200,
                    self.service.search(params, client=client, request_id=request_id),
                    extra_headers=id_header,
                )
            elif split.path == "/result":
                self.service.admit(client)
                self._send_json(
                    200,
                    self.service.result(params, client=client, request_id=request_id),
                    extra_headers=id_header,
                )
            elif split.path == "/metrics":
                self._send_text(200, self.service.metrics_text())
            elif split.path == "/healthz":
                self._send_json(200, self.service.health())
            elif split.path == "/debug/vars":
                self._send_json(200, self.service.debug_vars())
            elif split.path == "/debug/slo":
                self._send_json(200, self.service.debug_slo())
            elif split.path == "/debug/slow":
                self._send_json(200, self.service.debug_slow())
            elif split.path == "/debug/trace":
                self._send_json(
                    200, self.service.debug_trace(params.get("id", ""))
                )
            else:
                raise NotFound(f"no such endpoint {split.path!r}")
        except RateLimited as exc:
            self.service.note_rate_limited()
            retry_after = max(1, math.ceil(exc.retry_after_s))
            headers = {"Retry-After": str(retry_after)}
            headers.update(id_header or {})
            self._send_json(
                exc.status,
                {"error": str(exc), "status": exc.status, "retry_after_s": exc.retry_after_s},
                extra_headers=headers,
            )
        except ServeError as exc:
            self._send_json(
                exc.status,
                {"error": str(exc), "status": exc.status},
                extra_headers=id_header,
            )
        except Exception:  # never leak a traceback
            self._send_json(
                500,
                {"error": "internal server error", "status": 500},
                extra_headers=id_header,
            )

    # -- rendering -------------------------------------------------------------------

    def _send_json(
        self, status: int, payload: dict, extra_headers: dict | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json", extra_headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; version=0.0.4")

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter; the metrics
        registry is the request log."""


def make_handler(service: SearchService) -> Type[SearchRequestHandler]:
    """A handler class bound to ``service`` (one per server instance)."""
    return type(
        "BoundSearchRequestHandler", (SearchRequestHandler,), {"service": service}
    )
