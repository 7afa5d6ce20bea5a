"""The HTTP shell: one HTTP/1.1 connection loop over the service.

:class:`SearchRequestHandler` serves one connection until either side
closes it.  It reads each request head once (the request line, then the
header lines into a dict keyed by lower-cased name), looks the path up
in :data:`ROUTES`, calls the server's
:class:`~repro.serve.service.SearchService` and writes status line,
headers and body in one ``sendall``.  It does transport only: once a
head is read, the service's :class:`~repro.serve.service.ServeError`
subclasses carry every status.  Every ``/search`` and ``/result`` response echoes
``X-Request-Id`` (the client's own, or one the server assigns), so a
slow request can be looked up in ``/debug/trace`` afterwards.

Keep-alive is HTTP/1.1's: a connection closes after ``Connection:
close``, or on HTTP/1.0 without ``Connection: keep-alive``.  A head the
loop cannot read is answered with the JSON ``{"error", "status"}`` body
of every failure, then the connection closes: a malformed request line
(400), one over :data:`MAX_LINE` bytes (414), more than
:data:`MAX_HEADERS` header lines or one over :data:`MAX_LINE` (431), a
method other than GET (501).
"""

from __future__ import annotations

import functools
import json
import math
import socket
import socketserver
import time
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import NotFound, RateLimited, ServeError

#: Header that names the rate-limiting principal (falls back to the
#: peer address, which on loopback lumps all clients together).
CLIENT_HEADER = "X-Client-Id"

#: Request-id header, propagated inbound (client-assigned ids survive
#: into the trace rings) and echoed on every search/result response.
REQUEST_ID_HEADER = "X-Request-Id"

#: The longest request line or header line, in bytes, the most header
#: lines one request may carry, and how long (s) the client of an error
#: answer has to close the connection first.
MAX_LINE = 65_536
MAX_HEADERS = 100
LINGER_S = 1.0

#: path -> ``(answer(service, params, client, request_id), admitted)``.
#: An admitted route is charged to the client's token bucket before it
#: runs and names its request with ``X-Request-Id``, errors included.
#: A ``str`` answer is served as Prometheus text, anything else as JSON.
ROUTES = {
    "/search": (lambda service, params, client, rid: service.search(params, client, rid), True),
    "/result": (lambda service, params, client, rid: service.result(params, client, rid), True),
    "/metrics": (lambda service, *_: service.metrics_text(), False),
    "/healthz": (lambda service, *_: service.health(), False),
    "/debug/vars": (lambda service, *_: service.debug_vars(), False),
    "/debug/slo": (lambda service, *_: service.debug_slo(), False),
    "/debug/slow": (lambda service, *_: service.debug_slow(), False),
    "/debug/trace": (lambda service, params, *_: service.debug_trace(params.get("id", "")), False),
}


@functools.lru_cache(maxsize=1)
def http_date(second: int) -> str:
    """The ``Date`` header value of ``second``, formatted once."""
    return formatdate(second, usegmt=True)


class HeadError(Exception):
    """``(status, message)``: a request head the loop cannot read."""


class SearchRequestHandler(socketserver.StreamRequestHandler):
    """Serves one connection's requests in order until it closes."""

    # One write per response, so no Nagle stall can hold the last
    # segment of an answer back behind a delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while line := self.rfile.readline(MAX_LINE + 1):
                try:
                    target, headers, keep_alive = self._read_head(line)
                except HeadError as exc:
                    status, error = exc.args
                    self._send(status, {"error": error, "status": status}, close=True)
                    return self._linger()
                self._answer(target, headers, not keep_alive)
                # A stop() begun meanwhile ends the connection here.
                if not keep_alive or self.server.draining:
                    return
        except OSError:
            return  # the peer went away: nothing left to answer

    def _read_head(self, line: bytes) -> tuple[str, dict[str, str], bool]:
        """``(target, headers, keep_alive)``, reading the header lines."""
        if len(line) > MAX_LINE:
            raise HeadError(414, f"request line longer than {MAX_LINE} bytes")
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise HeadError(400, f"malformed request line {line[:100]!r}")
        method, target, version = words
        headers = {}
        for _ in range(MAX_HEADERS + 1):
            raw = self.rfile.readline(MAX_LINE + 1)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > MAX_LINE:
                raise HeadError(431, f"header line longer than {MAX_LINE} bytes")
            name, colon, value = raw.decode("latin-1").partition(":")
            if not colon:
                raise HeadError(400, f"malformed header line {raw[:100]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise HeadError(431, f"more than {MAX_HEADERS} header lines")
        if method != "GET":
            raise HeadError(501, f"method {method!r} is not supported")
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            return target, headers, "close" not in connection
        return target, headers, "keep-alive" in connection

    def _answer(self, target: str, headers: dict[str, str], close: bool) -> None:
        service = self.server.service
        split = urlsplit(target)
        params = {key: values[-1] for key, values in parse_qs(split.query).items()}
        client = headers.get(CLIENT_HEADER.lower()) or self.client_address[0]
        answer, admitted = ROUTES.get(split.path, (None, False))
        request_id, extra = None, ()
        if admitted:
            request_id = headers.get(REQUEST_ID_HEADER.lower()) or service.telemetry.next_request_id()
            extra = ((REQUEST_ID_HEADER, request_id),)
        try:
            if answer is None:
                raise NotFound(f"no such endpoint {split.path!r}")
            if admitted:
                service.admit(client)
            status, payload = 200, answer(service, params, client, request_id)
        except RateLimited as exc:
            service.note_rate_limited()
            status = exc.status
            payload = {"error": str(exc), "status": status, "retry_after_s": exc.retry_after_s}
            extra += (("Retry-After", str(max(1, math.ceil(exc.retry_after_s)))),)
        except ServeError as exc:
            status, payload = exc.status, {"error": str(exc), "status": exc.status}
        except Exception:  # never leak a traceback
            status, payload = 500, {"error": "internal server error", "status": 500}
        self._send(status, payload, extra, close or self.server.draining)

    def _send(self, status: int, payload, extra=(), close: bool = False) -> None:
        """Status line, headers and body in one write."""
        if isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), "text/plain; version=0.0.4"
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nServer: repro-serve/1.0\r\n"
            f"Date: {http_date(int(time.time()))}\r\nContent-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in extra)
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        self.connection.sendall(head.encode("latin-1") + body)

    def _linger(self) -> None:
        """Read what the client sent until it closes: a close with input
        unread resets the connection, which can destroy the answer."""
        self.connection.shutdown(socket.SHUT_WR)
        self.connection.settimeout(LINGER_S)
        while self.connection.recv(MAX_LINE):
            pass
