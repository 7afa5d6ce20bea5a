"""The threaded HTTP server: lifecycle, ephemeral ports, drain.

:class:`SearchServer` owns a :class:`socketserver.ThreadingTCPServer`
(a thread per connection running :mod:`repro.serve.handlers`' loop) on
a daemon background thread; ``port=0`` binds an ephemeral port.
:meth:`~SearchServer.stop` drains: it stops accepting and shuts the read
side of every connection, so an idle one ends at once (its client reads
EOF) and a request in flight is answered first, then joins the threads
within :data:`STOP_TIMEOUT_S`.  It is also a context manager::

    with SearchServer(service) as server:
        urllib.request.urlopen(server.url + "/healthz")
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Optional

from repro.serve.handlers import SearchRequestHandler
from repro.serve.service import SearchService

#: How long :meth:`SearchServer.stop` waits for its threads, in seconds.
STOP_TIMEOUT_S = 5.0


class _TCPServer(socketserver.ThreadingTCPServer):
    """The listening socket, its service and the connections it accepted."""

    allow_reuse_address = True
    draining = False

    def __init__(self, address: tuple[str, int], service: SearchService) -> None:
        super().__init__(address, SearchRequestHandler)
        self.service = service
        #: Each open connection and its handler thread.
        self.connections: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        self.connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        self.connections.pop(request, None)
        super().shutdown_request(request)


class SearchServer:
    """A background-threaded HTTP search service."""

    def __init__(self, service: SearchService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._httpd = _TCPServer((host, port), service)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SearchServer":
        """Start serving on a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(0.05,), name=f"repro-serve:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout_s: float = STOP_TIMEOUT_S) -> bool:
        """Drain and shut down; True when every thread joined in time."""
        httpd = self._httpd
        if self._thread is not None:
            httpd.shutdown()
        httpd.server_close()
        httpd.draining = True
        connections = httpd.connections.copy()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # closed meanwhile
        threads = [thread for thread in (self._thread, *connections.values()) if thread]
        deadline = time.monotonic() + timeout_s
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._thread = None
        return not any(thread.is_alive() for thread in threads)

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self._httpd.server_close()

    def __enter__(self) -> "SearchServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
