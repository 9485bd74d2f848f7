"""Keep-alive HTTP load generation: closed and open loops.

One process, one thread per connection, at most ``nproc`` persistent
HTTP/1.1 connections, each built with the standard library's
``http.client`` and used as a collector would use it.  The generator
never tunes its sockets: a stall on the server side shows in the
numbers.

* Closed loop: each connection sends its next request when the
  previous reply has arrived, until the deadline or the end of its
  requests.
* Open loop: request ``j`` is due at ``start + j / rate`` and goes to
  connection ``j % n``.  Its latency runs from its *due* time, so a
  stall also charges the requests queued behind it.  How late the
  generator itself ran is kept apart: a request could be sent once it
  was due and its connection was free, and lateness is how long after
  that it actually went out.
"""

from __future__ import annotations

import gc
import http.client
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from streams import Request

#: How long a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Reply:
    """The outcome of one request, with its timeline."""

    request: Request
    connection: int
    due: float
    ready: float
    sent: float
    done: float
    status: int
    body: bytes
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        """From due time to reply; infinite when the request failed."""
        return self.done - self.due if self.ok else math.inf

    @property
    def late_s(self) -> float:
        """How long after it could have gone out the request was sent."""
        return self.sent - self.ready


class Connection:
    """One persistent HTTP/1.1 connection that reconnects after errors."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._host = host
        self._port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict[str, str] | None = None
                ) -> tuple[int, bytes]:
        """Send one request and read the whole reply."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=REQUEST_TIMEOUT_S)
        try:
            self._conn.request(method, path, body=body,
                               headers=headers or {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(connection: Connection, index: int, request: Request, path: str,
          content_type: str, due: float, ready: float) -> Reply:
    sent = time.perf_counter()
    try:
        status, body = connection.request(
            "POST", f"{path}&batch={request.batch}" if "?" in path
            else f"{path}?batch={request.batch}",
            body=request.body, headers={"Content-Type": content_type})
        error = ""
    except (OSError, http.client.HTTPException) as failure:
        status, body, error = 0, b"", f"{type(failure).__name__}: {failure}"
    return Reply(request, index, due, ready, sent, time.perf_counter(),
                 status, body, error)


def closed_loop(port: int, sources: Sequence[Iterable[Request]], *,
                path: str, content_type: str, seconds: float
                ) -> tuple[list[Reply], float]:
    """Drive one closed-loop connection per source until the deadline.

    Returns the replies in send order per connection, and the wall
    time from the first send to the last reply.
    """
    results: list[list[Reply]] = [[] for _ in sources]
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds

    def drive(index: int, source: Iterable[Request]) -> None:
        # A request is taken from ``source`` only when it will be sent,
        # so a later loop over the same iterator continues without a gap.
        connection = Connection(port)
        pending = iter(source)
        try:
            while time.perf_counter() < deadline:
                request = next(pending, None)
                if request is None:
                    break
                now = time.perf_counter()
                results[index].append(_send(connection, index, request,
                                            path, content_type, now, now))
        finally:
            connection.close()

    _run_threads(drive, sources)
    replies = [reply for per_connection in results for reply in per_connection]
    end = max((reply.done for reply in replies), default=start)
    return replies, end - start


def open_loop(port: int, sources: Sequence[Iterable[Request]], *,
              path: str, content_type: str, rate: float, count: int
              ) -> list[Reply]:
    """Send ``count`` requests at ``rate`` per second across the sources."""
    n = len(sources)
    results: list[list[Reply]] = [[] for _ in sources]

    # Encode every body before the schedule starts.
    planned = [list(zip(range(index, count, n), source))
               for index, source in enumerate(sources)]
    gc.collect()
    start = time.perf_counter() + 0.05

    def drive(index: int, batch: list[tuple[int, Request]]) -> None:
        connection = Connection(port)
        free_at = start
        try:
            for j, request in batch:
                due = start + j / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                reply = _send(connection, index, request, path, content_type,
                              due, max(due, free_at))
                free_at = reply.done
                results[index].append(reply)
        finally:
            connection.close()

    _run_threads(drive, planned)
    return sorted((reply for per_connection in results
                   for reply in per_connection), key=lambda r: r.due)


def _run_threads(target: Callable[[int, Any], None],
                 sources: Sequence[Any]) -> None:
    """Run one thread per source, with the cyclic collector paused.

    A collection of the benchmark's own large structures can take tens
    of milliseconds; callers collect before they start the clock, and
    none runs while requests are timed.
    """
    threads = [threading.Thread(target=target, args=(index, source),
                                name=f"loadgen-{index}", daemon=True)
               for index, source in enumerate(sources)]
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()


def outstanding_max(replies: Sequence[Reply]) -> int:
    """Most requests that were due but not yet answered at one time."""
    events = sorted([(reply.due, 1) for reply in replies]
                    + [(reply.done, -1) for reply in replies])
    current = peak = 0
    for _time, step in events:
        current += step
        peak = max(peak, current)
    return peak
