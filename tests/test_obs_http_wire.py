"""Wire-level tests for the telemetry HTTP server.

Every reply leaves in one write with ``TCP_NODELAY`` set, so a
keep-alive client never waits on the Nagle / delayed-ACK interaction;
malformed or oversized POST bodies are refused before they are read.
"""

import http.client
import io
import logging
import socket
import statistics
import time
from types import SimpleNamespace

import pytest

from repro.obs.http import (MAX_POST_BYTES, HttpReply, TelemetryHTTPServer,
                            _TelemetryRequestHandler)
from repro.obs.metrics import MetricsRegistry

_JSONL = (b'{"hour": 1, "serial": "D1", "stage": 0.5}\n'
          b'{"hour": 1, "serial": "D2", "stage": 0.0}\n')


def _routes():
    return {
        "/ingest": lambda body, query: (
            HttpReply(200, _JSONL,
                      content_type="application/jsonl; charset=utf-8")
            if query.get("verdicts") == "all"
            else HttpReply.json(200, {"accepted": len(body)})),
        "/busy": lambda body, query: HttpReply.json(
            429, {"error": "shard saturated"},
            headers=(("Retry-After", "0.5"),)),
    }


# -- one write per reply ----------------------------------------------------

class _RecordingWriter:
    """A ``wfile`` that keeps every write as its own chunk."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


class _TwoWriteHandler(_TelemetryRequestHandler):
    """The reply path as it was: headers flushed, then the body."""

    def _reply(self, code, content_type, body, extra=()):
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


def _drive(handler_cls, raw_request):
    """Run one request through a socket-less handler; return its writes."""
    registry = MetricsRegistry()
    registry.counter("samples_scored").inc(3)
    server = SimpleNamespace(
        registry=registry, health=lambda: {"status": "ok"}, status=dict,
        recorder=None, post_routes=_routes(),
        logger=logging.getLogger("repro.obs.http.test"))
    handler = handler_cls.__new__(handler_cls)
    handler.server = server
    handler.client_address = ("127.0.0.1", 40000)
    handler.rfile = io.BytesIO(raw_request)
    handler.wfile = _RecordingWriter()
    handler.close_connection = True
    handler.date_time_string = lambda timestamp=None: "Thu, 01 Jan 2026"
    handler.handle_one_request()
    return handler.wfile.writes


def _post_request(target, body, extra=""):
    return (f"POST {target} HTTP/1.1\r\nHost: x\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


_REQUESTS = {
    "json-post": _post_request("/ingest", b'{"samples": []}'),
    "jsonl-verdicts": _post_request("/ingest?verdicts=all", b"x"),
    "post-404": _post_request("/nowhere", b""),
    "429-retry-after": _post_request("/busy", b"x"),
    "get-metrics": b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    "get-health": b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
    "get-404": b"GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n",
    "400-bad-length": b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    "413-too-large": (b"POST /ingest HTTP/1.1\r\nContent-Length: "
                      b"99999999999\r\n\r\n"),
}


@pytest.mark.parametrize("kind", sorted(_REQUESTS))
def test_every_reply_leaves_in_one_write(kind):
    writes = _drive(_TelemetryRequestHandler, _REQUESTS[kind])
    assert len(writes) == 1
    old_writes = _drive(_TwoWriteHandler, _REQUESTS[kind])
    assert len(old_writes) == 2
    # Same bytes as the two-write path (the Date header is pinned).
    assert writes[0] == b"".join(old_writes)


# -- live loopback ----------------------------------------------------------

@pytest.fixture()
def route_server():
    server = TelemetryHTTPServer(MetricsRegistry(), post_routes=_routes())
    with server:
        yield server


def test_keep_alive_replies_do_not_stall(route_server):
    """A second write would wait ~40 ms on the client's delayed ACK."""
    connection = http.client.HTTPConnection(route_server.host,
                                            route_server.port, timeout=5)
    elapsed = []
    try:
        for _ in range(50):
            start = time.perf_counter()
            connection.request("POST", "/ingest", body=b'{"samples": []}')
            response = connection.getresponse()
            response.read()
            elapsed.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(elapsed) < 0.020


def test_accepted_connections_set_tcp_nodelay(route_server, monkeypatch):
    seen = []
    original_setup = _TelemetryRequestHandler.setup

    def recording_setup(self):
        original_setup(self)
        seen.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                               socket.TCP_NODELAY))

    monkeypatch.setattr(_TelemetryRequestHandler, "setup", recording_setup)
    connection = http.client.HTTPConnection(route_server.host,
                                            route_server.port, timeout=5)
    try:
        connection.request("GET", "/health")
        assert connection.getresponse().status == 200
    finally:
        connection.close()
    assert seen and all(seen)


# -- POST body intake -------------------------------------------------------

def _raw_exchange(server, raw):
    """Send raw bytes; return everything read until the server closes."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _headers_only(length):
    return (f"POST /ingest HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()


@pytest.mark.parametrize("length", ["abc", "-5", "1e3", "12 34"])
def test_malformed_content_length_is_400_and_closes(route_server, length):
    reply = _raw_exchange(route_server, _headers_only(length) + b"x")
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close\r\n" in reply
    assert b"invalid Content-Length" in reply


@pytest.mark.parametrize("length", [MAX_POST_BYTES + 1, 99999999999])
def test_oversized_body_is_413_without_reading_it(route_server, length):
    # No body follows the headers: the reply can only arrive (before the
    # socket timeout) if the server never tries to read one.
    reply = _raw_exchange(route_server, _headers_only(length))
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert b"\r\nConnection: close\r\n" in reply
    assert f'"max_bytes": {MAX_POST_BYTES}'.encode() in reply


def test_server_keeps_serving_after_refusals(route_server):
    _raw_exchange(route_server, _headers_only("abc"))
    _raw_exchange(route_server, _headers_only(99999999999))
    reply = _raw_exchange(route_server, _post_request(
        "/ingest", b"y" * 1024, extra="Connection: close\r\n"))
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert reply.endswith(b'{"accepted": 1024}\n')


def test_unknown_post_path_is_404_and_closes(route_server):
    # The unread body is a well-formed request of its own: on a kept-alive
    # connection it would be answered as a second request.
    smuggled = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
    reply = _raw_exchange(route_server,
                          _post_request("/nowhere", smuggled))
    assert reply.startswith(b"HTTP/1.1 404 ")
    assert b"\r\nConnection: close\r\n" in reply
    assert reply.count(b"HTTP/1.1 ") == 1
