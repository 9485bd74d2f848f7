"""Open-loop latency runs from the due time, against a stalled server."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import closed_loop, open_loop, outstanding_max
from streams import Request

STALL_S = 0.3
RATE = 20.0


class _StallOnce(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stalled = False

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        if not type(self).stalled:
            type(self).stalled = True
            time.sleep(STALL_S)
        body = b'{"accepted": 1, "alerts": 0}\n'
        # One write for head and body, so the fake adds no stall of its own.
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    _StallOnce.stalled = False
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    thread.join(5.0)
    httpd.server_close()


def _requests(n):
    return [Request(f"c0-{i}", b"{}", range(i, i + 1), 0) for i in range(n)]


def test_stall_charges_the_requests_queued_behind_it(server):
    replies = open_loop(server, [_requests(10)], path="/ingest",
                        content_type="application/json", rate=RATE,
                        count=10)
    assert [reply.status for reply in replies] == [200] * 10
    first, second = replies[0], replies[1]
    assert first.latency_s >= STALL_S
    # Due 50 ms after the first, sent only when the stall ended: its
    # latency counts the wait from its due time.
    assert second.due == pytest.approx(first.due + 1.0 / RATE)
    assert second.sent >= first.done
    assert second.latency_s >= STALL_S - 1.0 / RATE
    assert second.latency_s == pytest.approx(second.done - second.due)
    # The generator itself was not late: it sent as soon as it could.
    assert max(reply.late_s for reply in replies) < 0.02
    # Every request due during the stall was outstanding at once.
    assert outstanding_max(replies) >= int(STALL_S * RATE)
    # Late requests catch up: the last one is on schedule again.
    assert replies[-1].latency_s < 0.1


def test_closed_loop_counts_from_send(server):
    replies, wall = closed_loop(server, [_requests(5)], path="/ingest",
                                content_type="application/json",
                                seconds=30.0)
    assert len(replies) == 5
    assert all(0 <= reply.sent - reply.due < 0.01 for reply in replies)
    assert wall >= STALL_S


def test_failed_request_is_infinitely_late():
    replies = open_loop(1, [_requests(1)], path="/ingest",
                        content_type="application/json", rate=RATE, count=1)
    assert replies[0].status == 0
    assert replies[0].latency_s == float("inf")


def test_loops_in_turn_continue_one_stream_without_a_gap(server):
    source = iter(_requests(100_000))
    closed, _wall = closed_loop(server, [source], path="/ingest",
                                content_type="application/json",
                                seconds=0.4)
    opened = open_loop(server, [source], path="/ingest",
                       content_type="application/json", rate=RATE, count=5)
    closed_again, _wall = closed_loop(server, [source], path="/ingest",
                                      content_type="application/json",
                                      seconds=0.1)
    sent = [reply.request.batch for reply in closed + opened + closed_again]
    assert sent == [f"c0-{i}" for i in range(len(sent))]
    assert len(opened) == 5 and closed_again
