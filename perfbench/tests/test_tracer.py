"""Self time excludes wrapped children; worker spans follow their task."""

import time

from tracer import SpanLog, _StampedQueue, wrap


class _Layers:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_self_time_subtracts_children():
    log = SpanLog()
    wrap(log, _Layers, "outer", "outer")
    wrap(log, _Layers, "inner", "inner")
    log.set_tag("c0-1")
    _Layers().outer()
    totals = log.document()["totals"]
    calls, total, own = totals["outer"]
    assert calls == 1
    assert total >= 0.05
    assert 0.02 <= own < 0.03
    assert totals["inner"][2] >= 0.03
    assert set(log.document()["by_tag"]["c0-1"]) == {"outer", "inner"}


def test_queue_wait_is_charged_to_the_dequeued_task():
    log = SpanLog()
    tasks = _StampedQueue()
    tasks.log = log
    tasks.put((7, "c1-4/0", ["s"], [1], None))
    time.sleep(0.02)
    task = tasks.get()
    assert task[1] == "c1-4/0"
    assert log.tag() == "w:c1-4/0"
    assert log.document()["queue_wait"]["w:c1-4/0"] >= 0.02
    tasks.put(None)
    assert tasks.get() is None
    assert log.tag() is None
