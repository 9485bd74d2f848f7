"""In-memory span recorder wrapped around the public calls of each layer.

The benchmark traces the program from its own files:
:func:`install_serving` and :func:`install_offline` replace a fixed
list of functions and methods of the ``repro`` package with timing
wrappers, in the process that runs them (the traced launcher,
``launcher.py``).  Nothing in ``src/`` changes; a few wrappers read a
private attribute (the WAL segment size, the shard queues) because
no public call exposes it.

Every wrapped call is a span with a name, a start and an end.  Spans
nest per thread, so a span's *self* time is its duration minus the
time its wrapped children took.  Spans carry a *tag* naming the HTTP
request they serve: the ingest handler takes it from the request's
``?batch=`` id, and a shard worker takes it from the block id of the
task it dequeued, so worker time is charged to the request that
caused it.

The recorder keeps totals in memory and writes one JSON document when
the traced process exits (or on ``SIGUSR1``, before a benchmark
SIGKILLs it).
"""

from __future__ import annotations

import functools
import json
import os
import queue
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class SpanLog:
    """Span totals, per-request self times and counters of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # name -> [calls, total_s, self_s]
        self.totals: dict[str, list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        # tag -> name -> self_s
        self.by_tag: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.queue_wait: dict[str, float] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.stores: dict[int, int] = {}
        self.pipelines: list[Any] = []

    # -- thread-local state ------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_tag(self, tag: str | None) -> None:
        """Charge this thread's following spans to request ``tag``."""
        self._local.tag = tag

    def tag(self) -> str | None:
        """The request this thread is currently working for."""
        return getattr(self._local, "tag", None)

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list[Any]:
        """Open a span; returns the frame :meth:`leave` closes."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list[Any]) -> float:
        """Close ``frame``; returns its duration in seconds."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if stack:
            stack[-1][2] += duration
        tag = self.tag()
        with self._lock:
            entry = self.totals[frame[0]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if tag is not None:
                self.by_tag[tag][frame[0]] += own
        return duration

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name``."""
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen for ``name``."""
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    # -- output ------------------------------------------------------------

    def document(self) -> dict[str, Any]:
        """Everything recorded so far, as plain JSON types."""
        with self._lock:
            counters = dict(self.counters)
            for pipeline in self.pipelines:
                counters["sinks.delivered"] = (
                    counters.get("sinks.delivered", 0) + pipeline.delivered)
                counters["sinks.failed"] = (
                    counters.get("sinks.failed", 0) + pipeline.failed)
            maxima = dict(self.maxima)
            maxima["columnar.drives_tracked"] = float(sum(self.stores.values()))
            return {
                "totals": {name: list(entry)
                           for name, entry in self.totals.items()},
                "by_tag": {tag: dict(names)
                           for tag, names in self.by_tag.items()},
                "queue_wait": dict(self.queue_wait),
                "counters": counters,
                "maxima": maxima,
            }

    def dump(self, path: str | Path) -> None:
        """Write :meth:`document` to ``path`` atomically."""
        path = Path(path)
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_text(json.dumps(self.document()))
        os.replace(scratch, path)


def _timed(log: SpanLog, name: str, function: Callable[..., Any],
           after: Callable[..., None] | None = None) -> Callable[..., Any]:
    """Wrap ``function`` in a span; ``after(args, kwargs, result)`` runs next."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = log.enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            log.leave(frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _timed_generator(log: SpanLog, name: str,
                     function: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a generator function: each ``next`` is one span."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        iterator = function(*args, **kwargs)
        while True:
            frame = log.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                log.leave(frame)
            yield item

    return wrapper


def _patch(owner: Any, attribute: str, replacement: Any) -> None:
    """Set ``owner.attribute``, keeping static/class method kinds."""
    raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        replacement = classmethod(replacement)
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(replacement)
    setattr(owner, attribute, replacement)


def _underlying(owner: Any, attribute: str) -> Callable[..., Any]:
    raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    return getattr(owner, attribute)


def wrap(log: SpanLog, owner: Any, attribute: str, name: str,
         after: Callable[..., None] | None = None) -> None:
    """Replace ``owner.attribute`` with a span named ``name``."""
    _patch(owner, attribute,
           _timed(log, name, _underlying(owner, attribute), after))


class _StampedQueue(queue.Queue):
    """A shard-plane queue that follows tasks from enqueue to reply.

    Every item is stored with its enqueue time.  When a worker dequeues
    a scoring task, the wait is recorded under the tag ``w:<block id>``
    and the worker thread's tag becomes that tag; any other item (a
    stop or promote message, or a reply reaching the collector) clears
    the consumer's tag.  When the worker puts its reply, its tag gains
    the suffix ``~after``: work it does after answering (a snapshot)
    no longer holds the request up.
    """

    log: SpanLog

    def _put(self, item: Any) -> None:
        if (isinstance(item, tuple) and len(item) == 4
                and item[0] in ("verdicts", "error")):
            tag = self.log.tag()
            if tag is not None and not tag.endswith("~after"):
                self.log.set_tag(tag + "~after")
        super()._put((time.perf_counter(), item))

    def _get(self) -> Any:
        stamped, item = super()._get()
        tag = None
        if isinstance(item, tuple) and len(item) == 5:
            tag = f"w:{item[1]}"
            waited = time.perf_counter() - stamped
            with self.log._lock:
                self.log.queue_wait[tag] = waited
        self.log.set_tag(tag)
        return item


def install_serving(log: SpanLog) -> None:
    """Wrap the serving layers: HTTP handler down to the tree."""
    from repro.core.columnar import ColumnStateStore
    from repro.core.monitor import DegradationMonitor
    from repro.ml.tree import RegressionTree
    from repro.serve import bundle as bundle_module
    from repro.serve import cli as serve_cli
    from repro.serve import shard as shard_module
    from repro.serve.daemon import ServingDaemon
    from repro.serve.scorer import StreamScorer, VerdictBlock
    from repro.serve.sinks import (DeliveryPipeline, JsonlAlertSink,
                                   WebhookAlertSink)
    from repro.serve.wal import ShardWal
    from repro.errors import BackpressureError

    handle_ingest = ServingDaemon._handle_ingest

    @functools.wraps(handle_ingest)
    def traced_handler(self: Any, body: bytes, query: dict[str, str]) -> Any:
        log.set_tag(query.get("batch"))
        frame = log.enter("daemon.handler")
        try:
            return handle_ingest(self, body, query)
        finally:
            log.leave(frame)
            log.set_tag(None)

    ServingDaemon._handle_ingest = traced_handler
    wrap(log, ServingDaemon, "ingest_block", "daemon.ingest_block",
         after=lambda args, kwargs, block: log.count(
             "daemon.alerts_materialized", block.n_alerting))

    submit_block = shard_module.ShardSet.submit_block

    @functools.wraps(submit_block)
    def traced_submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        log.peak("shard.inflight_max", float(sum(self.inflight())) + 1.0)
        frame = log.enter("shard.submit_block")
        try:
            return submit_block(self, *args, **kwargs)
        except BackpressureError:
            log.count("shard.backpressure_rejects")
            raise
        finally:
            log.leave(frame)

    shard_module.ShardSet.submit_block = traced_submit

    # The thread backend builds its task and reply queues from the
    # ``queue`` module it imported; hand it stamped ones.
    stamped = type("_LoggedQueue", (_StampedQueue,), {"log": log})
    shard_module.queue = types.SimpleNamespace(**{**vars(queue),
                                                  "Queue": stamped})

    pending_init = shard_module._PendingRequest.__init__

    class _TimedEvent(threading.Event):
        def wait(self, timeout: float | None = None) -> bool:
            frame = log.enter("shard.wait")
            try:
                return super().wait(timeout)
            finally:
                log.leave(frame)

    def traced_pending_init(self: Any, shards: Any) -> None:
        pending_init(self, shards)
        self.done = _TimedEvent()

    shard_module._PendingRequest.__init__ = traced_pending_init
    wrap(log, VerdictBlock, "gather", "shard.gather")

    append = ShardWal.append

    @functools.wraps(append)
    def traced_append(self: Any, payload: dict[str, Any]) -> int:
        before = self._segment_bytes
        frame = log.enter("wal.append")
        try:
            return append(self, payload)
        finally:
            log.leave(frame)
            after = self._segment_bytes
            log.count("wal.appends")
            log.count("wal.bytes", after - before if after >= before
                      else after)

    ShardWal.append = traced_append
    wrap(log, ShardWal, "sync", "wal.sync")

    def after_snapshot(args: Any, kwargs: Any, path: Path) -> None:
        log.count("wal.snapshots")
        try:
            log.count("wal.snapshot_bytes", Path(path).stat().st_size)
        except OSError:
            pass

    wrap(log, ShardWal, "write_snapshot", "wal.snapshot",
         after=after_snapshot)
    wrap(log, ShardWal, "open", "wal.open",
         after=lambda args, kwargs, recovery: log.count(
             "wal.replayed_blocks", recovery.replayed_blocks))

    wrap(log, StreamScorer, "score_block", "scorer.score_block")
    wrap(log, StreamScorer, "dump_state", "scorer.dump_state")
    wrap(log, StreamScorer, "restore_state", "scorer.restore_state")
    wrap(log, StreamScorer, "push_many", "scorer.push_many")
    wrap(log, VerdictBlock, "to_json_lines", "scorer.encode")
    wrap(log, DegradationMonitor, "observe_columns",
         "monitor.observe_columns")

    def after_record(args: Any, kwargs: Any, result: Any) -> None:
        store = args[0]
        with log._lock:
            log.stores[id(store)] = store.n_tracked

    wrap(log, ColumnStateStore, "record_block", "columnar.record_block",
         after=after_record)
    wrap(log, RegressionTree, "predict", "tree.predict")
    wrap(log, JsonlAlertSink, "emit", "sinks.emit")
    wrap(log, WebhookAlertSink, "emit", "sinks.emit")

    pipeline_init = DeliveryPipeline.__init__

    @functools.wraps(pipeline_init)
    def traced_pipeline_init(self: Any, *args: Any, **kwargs: Any) -> None:
        pipeline_init(self, *args, **kwargs)
        with log._lock:
            log.pipelines.append(self)

    DeliveryPipeline.__init__ = traced_pipeline_init

    load = _timed(log, "bundle.load", bundle_module.load_bundle)
    bundle_module.load_bundle = load
    serve_cli.load_bundle = load
    serve_cli._write_verdicts = _timed(log, "scorer.encode",
                                       serve_cli._write_verdicts)
    serve_cli.read_sample_stream = _timed_generator(
        log, "score.read", serve_cli.read_sample_stream)


def install_offline(log: SpanLog) -> None:
    """Wrap the characterization CLI's stages (simulate to bundle save)."""
    from repro import cli as characterize_cli
    from repro.core import pipeline as pipeline_module
    from repro.core.categorize import FailureCategorizer
    from repro.core.prediction import DegradationPredictor
    from repro.data.dataset import DiskDataset

    characterize_cli.simulate_fleet = _timed(
        log, "sim.simulate_fleet", characterize_cli.simulate_fleet)
    characterize_cli.build_bundle = _timed(
        log, "bundle.build", characterize_cli.build_bundle)
    characterize_cli.save_bundle = _timed(
        log, "bundle.save", characterize_cli.save_bundle)
    wrap(log, DiskDataset, "normalize", "pipeline.normalize")
    pipeline_module.build_failure_records = _timed(
        log, "pipeline.failure_records",
        pipeline_module.build_failure_records)
    wrap(log, FailureCategorizer, "categorize", "pipeline.categorize")
    pipeline_module.map_drives = _timed(
        log, "pipeline.signatures", pipeline_module.map_drives)
    wrap(log, pipeline_module.CharacterizationPipeline, "_summarize_groups",
         "pipeline.influence")
    wrap(log, DegradationPredictor, "evaluate_all", "pipeline.predict")
