"""The serving wire over raw sockets: framing, keep-alive, one write per
response, JSON for every failure, and the drain on ``stop()``."""

import ast
import email.parser
import http.client
import json
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

import pytest

import repro.serve
from repro.serve import SearchServer, SearchService, ServeConfig

SERVE_SOURCES = sorted(Path(repro.serve.__file__).parent.glob("*.py"))


@pytest.fixture
def service(engine):
    return SearchService(engine, ServeConfig(cache_entries=0))


@pytest.fixture
def server(service):
    with SearchServer(service) as running:
        yield running


def connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=10)
    return sock, sock.makefile("rb")


def read_response(stream):
    """``(status, headers by lower-cased name, body)`` of one response."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, stream.read(int(headers["content-length"]))


def wait_until(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def get(path, *headers, version="HTTP/1.1"):
    return "\r\n".join([f"GET {path} {version}", "Host: test", *headers, "", ""]).encode()


class TestFraming:
    def test_two_pipelined_requests_are_answered_in_order(self, server):
        sock, stream = connect(server)
        with sock:
            sock.sendall(get("/search?q=morcheeba") + get("/healthz"))
            first, second = read_response(stream), read_response(stream)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["total"] == 3
        assert json.loads(second[2])["status"] == "ok"

    def test_content_length_date_and_server_headers(self, server):
        sock, stream = connect(server)
        with sock:
            sock.sendall(get("/search?q=morcheeba") + get("/metrics") + get("/bogus"))
            for _ in range(3):
                status, headers, body = read_response(stream)
                assert int(headers["content-length"]) == len(body) > 0
                assert headers["date"].endswith(" GMT")
                assert headers["server"] == "repro-serve/1.0"
            sock.sendall(get("/healthz"))
            assert read_response(stream)[0] == 200  # still open after a 404

    def test_search_bodies_are_the_service_answer_as_sorted_json(self, server, service):
        sock, stream = connect(server)
        with sock:
            for params in ({"q": "morcheeba"}, {"q": "morcheeba singer", "limit": 1},
                           {"q": "morcheeba", "offset": 2}):
                sock.sendall(get("/search?" + urlencode(params)))
                status, headers, body = read_response(stream)
                expected = service.search({key: str(value) for key, value in params.items()})
                assert status == 200 and headers["content-type"] == "application/json"
                assert body == json.dumps(expected, sort_keys=True).encode("utf-8")

    def test_each_response_is_one_sendall(self, server, monkeypatch):
        writes = []
        sendall = socket.socket.sendall

        def counted(sock, data, *args):
            if sock.getsockname()[1] == server.port:
                writes.append(data)
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        sock, stream = connect(server)
        with sock:
            paths = ["/search?q=morcheeba", "/search?q=", "/healthz", "/metrics", "/nowhere"]
            for path in paths:
                sock.sendall(get(path))
                read_response(stream)
        assert len(writes) == len(paths)
        assert all(data.startswith(b"HTTP/1.1 ") for data in writes)

    def test_no_request_head_goes_through_the_email_package(self, server, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a request head went through a stdlib header parser")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        monkeypatch.setattr(email.parser.Parser, "parse", refuse)
        monkeypatch.setattr(email.parser.Parser, "parsestr", refuse)
        monkeypatch.setattr(email.parser.BytesParser, "parse", refuse)
        monkeypatch.setattr(email.parser.BytesParser, "parsebytes", refuse)
        sock, stream = connect(server)
        with sock:
            sock.sendall(get("/search?q=morcheeba", "X-Client-Id: c", "X-Request-Id: wire-1"))
            status, headers, _ = read_response(stream)
        assert status == 200 and headers["x-request-id"] == "wire-1"

    def test_no_serving_module_imports_http_server(self):
        for path in SERVE_SOURCES:
            imported = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
            assert "http.server" not in imported, path


class TestKeepAlive:
    def read_to_eof(self, stream):
        response = read_response(stream)
        assert stream.read() == b""
        return response

    def test_connection_close_closes(self, server):
        sock, stream = connect(server)
        with sock:
            sock.sendall(get("/healthz", "Connection: close"))
            status, headers, _ = self.read_to_eof(stream)
        assert status == 200 and headers["connection"] == "close"

    def test_http_1_0_closes_unless_keep_alive(self, server):
        sock, stream = connect(server)
        with sock:
            sock.sendall(get("/healthz", version="HTTP/1.0"))
            assert self.read_to_eof(stream)[0] == 200
        sock, stream = connect(server)
        with sock:
            for _ in range(2):
                sock.sendall(get("/healthz", "Connection: keep-alive", version="HTTP/1.0"))
                status, headers, _ = read_response(stream)
                assert status == 200 and "connection" not in headers


class TestMalformedRequests:
    """Every failure is an HTTP/1.1 JSON ``{"error", "status"}`` answer,
    after which the server closes the connection."""

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"POST /search?q=morcheeba HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody", 501),
        ],
        ids=["one-word", "four-words", "long-line", "many-headers", "long-header", "post"],
    )
    def test_answered_as_json_then_closed(self, server, raw, status):
        sock, stream = connect(server)
        with sock:
            sock.sendall(raw)
            answer = stream.read()  # everything up to the server's close
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["status"] == status
        assert set(json.loads(body)) == {"error", "status"}

    def test_exactly_one_hundred_headers_are_read(self, server):
        sock, stream = connect(server)
        with sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 100 + b"\r\n")
            assert read_response(stream)[0] == 200


class TestDrain:
    def test_an_idle_connection_reads_eof_after_stop(self, service):
        server = SearchServer(service).start()
        sock, stream = connect(server)
        with sock:
            sock.sendall(get("/healthz"))
            assert read_response(stream)[0] == 200
            assert server.stop() is True
            assert sock.recv(1) == b""

    def test_a_request_in_flight_gets_its_whole_answer(self, service, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        search = service.search

        def blocked(*args, **kwargs):
            entered.set()
            assert release.wait(10)
            return search(*args, **kwargs)

        monkeypatch.setattr(service, "search", blocked)
        server = SearchServer(service).start()
        sock, stream = connect(server)
        stopped = []
        with sock:
            sock.sendall(get("/search?q=morcheeba"))
            assert entered.wait(10)
            stopper = threading.Thread(target=lambda: stopped.append(server.stop()))
            stopper.start()
            wait_until(lambda: server._httpd.draining)
            release.set()
            status, headers, body = read_response(stream)
            assert status == 200 and json.loads(body)["total"] == 3
            assert headers["connection"] == "close"
            assert stream.read() == b""
            stopper.join(10)
        assert stopped == [True]

    def test_no_handler_thread_outlives_stop(self, service):
        before = set(threading.enumerate())
        server = SearchServer(service).start()
        clients = [connect(server) for _ in range(3)]
        for sock, stream in clients[:2]:
            sock.sendall(get("/healthz"))
            assert read_response(stream)[0] == 200
        # The accept loop and three handlers, one per connection.
        wait_until(lambda: len(set(threading.enumerate()) - before) >= 4)
        started = set(threading.enumerate()) - before
        # The third never sends a byte; the first closes its end.
        clients[0][0].close()
        assert server.stop() is True
        assert [thread for thread in started if thread.is_alive()] == []
        for sock, _ in clients[1:]:
            sock.close()
