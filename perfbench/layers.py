"""Per-layer metrics from the span documents of a traced run.

Serving layers are normalized per HTTP request of the traced closed
loop: each ``*_ms`` value is the mean self time one request spent in
that layer.  Layers that run on the request's own thread (handler,
ingest, submit, gather, encode) are charged by the request's
``?batch=`` tag; shard-worker layers by the block id of the task the
worker dequeued, summed over the request's shards, including work the
worker does after it has replied (a WAL snapshot).  The request's wall
time then splits exactly into::

    transport + handler thread self times + shard wait
    shard wait = slowest shard (queue wait + worker self times up to
                 its reply) + unattributed

Offline layers are per CLI run (``*_s`` for the characterization
stages, ``*_ms`` for the score run).  Counts are totals over the traced
daemon's life; ``*_bytes_per_sample`` divide by the samples acknowledged
and ``wal.snapshot_bytes`` is the mean snapshot size.
``recovery.restart_s`` is the traced restart's SIGKILL-to-``/health``-200
time.  Layers a workload does not reach read 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Sequence

from loadgen import Reply
from procs import import_seconds

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("http.transport_ms", "ms"),
    ("http.requests", "count"),
    ("http.reply_bytes_per_sample", "B/sample"),
    ("daemon.handler_ms", "ms"),
    ("daemon.parse_ms", "ms"),
    ("daemon.ingest_block_ms", "ms"),
    ("daemon.alerts_materialized", "count"),
    ("shard.submit_block_ms", "ms"),
    ("shard.queue_wait_ms", "ms"),
    ("shard.gather_ms", "ms"),
    ("shard.inflight_max", "count"),
    ("shard.backpressure_rejects", "count"),
    ("wal.append_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.bytes_per_sample", "B/sample"),
    ("wal.sync_ms", "ms"),
    ("wal.snapshot_ms", "ms"),
    ("wal.snapshot_bytes", "B"),
    ("wal.snapshots", "count"),
    ("wal.open_ms", "ms"),
    ("wal.replayed_blocks", "count"),
    ("recovery.restart_s", "s"),
    ("scorer.score_block_ms", "ms"),
    ("scorer.encode_ms", "ms"),
    ("scorer.dump_state_ms", "ms"),
    ("scorer.restore_state_ms", "ms"),
    ("scorer.push_many_ms", "ms"),
    ("monitor.observe_columns_ms", "ms"),
    ("columnar.record_block_ms", "ms"),
    ("columnar.drives_tracked", "count"),
    ("tree.predict_ms", "ms"),
    ("sinks.emit_ms", "ms"),
    ("sinks.delivered", "count"),
    ("sinks.failed", "count"),
    ("bundle.load_ms", "ms"),
    ("setup.import_s", "s"),
    ("sim.simulate_fleet_s", "s"),
    ("pipeline.normalize_s", "s"),
    ("pipeline.failure_records_s", "s"),
    ("pipeline.categorize_s", "s"),
    ("pipeline.signatures_s", "s"),
    ("pipeline.influence_s", "s"),
    ("pipeline.predict_s", "s"),
    ("bundle.build_s", "s"),
    ("bundle.save_s", "s"),
    ("score.read_s", "s"),
    ("gen.late_ms_p99", "ms"),
    ("gen.outstanding_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
)

#: Worker-side span names and the metric each feeds.
_WORKER_LAYERS = {
    "wal.append": "wal.append_ms",
    "wal.sync": "wal.sync_ms",
    "wal.snapshot": "wal.snapshot_ms",
    "scorer.score_block": "scorer.score_block_ms",
    "scorer.dump_state": "scorer.dump_state_ms",
    "monitor.observe_columns": "monitor.observe_columns_ms",
    "columnar.record_block": "columnar.record_block_ms",
    "tree.predict": "tree.predict_ms",
}

#: Request-thread span names and the metric each feeds.
_REQUEST_LAYERS = {
    "daemon.handler": "daemon.parse_ms",
    "daemon.ingest_block": "daemon.ingest_block_ms",
    "shard.submit_block": "shard.submit_block_ms",
    "shard.gather": "shard.gather_ms",
    "scorer.encode": "scorer.encode_ms",
}

#: Offline span names (seconds per characterization run).
_OFFLINE_STAGES = {
    "sim.simulate_fleet": "sim.simulate_fleet_s",
    "pipeline.normalize": "pipeline.normalize_s",
    "pipeline.failure_records": "pipeline.failure_records_s",
    "pipeline.categorize": "pipeline.categorize_s",
    "pipeline.signatures": "pipeline.signatures_s",
    "pipeline.influence": "pipeline.influence_s",
    "pipeline.predict": "pipeline.predict_s",
    "bundle.build": "bundle.build_s",
    "bundle.save": "bundle.save_s",
}


def load(path: Path) -> dict[str, Any]:
    """Read one span document."""
    return json.loads(path.read_text())


def _zeros() -> dict[str, float]:
    return {name: 0.0 for name, _unit in PER_LAYER}


def _self_s(doc: dict[str, Any], name: str) -> float:
    return doc["totals"].get(name, [0, 0.0, 0.0])[2]


def _mean_call_ms(doc: dict[str, Any], name: str) -> float:
    calls, total, _own = doc["totals"].get(name, [0, 0.0, 0.0])
    return 1000.0 * total / calls if calls else 0.0


def serving(replies: Sequence[Reply], wall: float, *,
            closed: dict[str, Any], restart: dict[str, Any],
            recovery_s: float, baseline_throughput: float, gen_late_ms_p99: float,
            gen_outstanding_max: int) -> dict[str, float]:
    """Layer split of the traced closed loop of a serving workload."""
    metrics = _zeros()
    answered = [reply for reply in replies if reply.ok]
    n = max(1, len(answered))
    samples = max(1, sum(reply.request.n_samples for reply in answered))
    by_tag = closed["by_tag"]
    queue_wait = closed["queue_wait"]
    counters = closed["counters"]
    maxima = closed["maxima"]

    # Worker tags are ``w:<batch>[/<shard>]`` up to the reply and
    # ``...~after`` for work done after it.
    shards_of: dict[str, set[str]] = defaultdict(set)
    for tag in by_tag.keys() | queue_wait.keys():
        if tag.startswith("w:"):
            before = tag.removesuffix("~after")
            shards_of[before[2:].split("/")[0]].add(before)

    sums: dict[str, float] = defaultdict(float)
    for reply in answered:
        spans = by_tag.get(reply.request.batch, {})
        handler = sum(spans.values())
        sums["daemon.handler_ms"] += handler
        sums["http.transport_ms"] += (reply.done - reply.sent) - handler
        for name, metric in _REQUEST_LAYERS.items():
            sums[metric] += spans.get(name, 0.0)
        slowest = longest_queue = 0.0
        for tag in shards_of.get(reply.request.batch, ()):
            worker = by_tag.get(tag, {})
            after = by_tag.get(tag + "~after", {})
            waited = queue_wait.get(tag, 0.0)
            for name, metric in _WORKER_LAYERS.items():
                sums[metric] += worker.get(name, 0.0) + after.get(name, 0.0)
            slowest = max(slowest, waited + sum(worker.values()))
            longest_queue = max(longest_queue, waited)
        sums["shard.queue_wait_ms"] += longest_queue
        sums["trace.unattributed_ms"] += spans.get("shard.wait", 0.0) - slowest
    for metric, seconds in sums.items():
        metrics[metric] = 1000.0 * seconds / n

    metrics.update({
        "http.requests": float(len(answered)),
        "http.reply_bytes_per_sample":
            sum(len(reply.body) for reply in answered) / samples,
        "daemon.alerts_materialized":
            counters.get("daemon.alerts_materialized", 0.0),
        "shard.inflight_max": maxima.get("shard.inflight_max", 0.0),
        "shard.backpressure_rejects":
            counters.get("shard.backpressure_rejects", 0.0),
        "wal.appends": counters.get("wal.appends", 0.0),
        "wal.bytes_per_sample": counters.get("wal.bytes", 0.0) / samples,
        "wal.snapshot_bytes": (counters.get("wal.snapshot_bytes", 0.0)
                               / max(1.0, counters.get("wal.snapshots", 0.0))),
        "wal.snapshots": counters.get("wal.snapshots", 0.0),
        "wal.open_ms": _mean_call_ms(restart, "wal.open"),
        "wal.replayed_blocks":
            restart["counters"].get("wal.replayed_blocks", 0.0),
        "scorer.restore_state_ms":
            _mean_call_ms(restart, "scorer.restore_state"),
        "recovery.restart_s": recovery_s,
        "columnar.drives_tracked": maxima.get("columnar.drives_tracked", 0.0),
        "sinks.emit_ms": 1000.0 * _self_s(closed, "sinks.emit") / n,
        "sinks.delivered": counters.get("sinks.delivered", 0.0),
        "sinks.failed": counters.get("sinks.failed", 0.0),
        "bundle.load_ms": _mean_call_ms(closed, "bundle.load"),
        "setup.import_s": import_seconds("repro.serve.cli"),
        "gen.late_ms_p99": gen_late_ms_p99,
        "gen.outstanding_max": float(gen_outstanding_max),
        "trace.overhead_ratio": (samples / wall) / baseline_throughput,
    })
    return metrics


def offline(*, characterize: dict[str, Any], score: dict[str, Any],
            score_wall: float, overhead_ratio: float) -> dict[str, float]:
    """Layer split of one traced characterization and one traced score."""
    metrics = _zeros()
    for name, metric in _OFFLINE_STAGES.items():
        metrics[metric] = _self_s(characterize, name)
    attributed = sum(entry[2] for entry in score["totals"].values())
    metrics.update({
        "score.read_s": _self_s(score, "score.read"),
        "scorer.push_many_ms": 1000.0 * _self_s(score, "scorer.push_many"),
        "scorer.encode_ms": 1000.0 * _self_s(score, "scorer.encode"),
        "monitor.observe_columns_ms":
            1000.0 * _self_s(score, "monitor.observe_columns"),
        "columnar.record_block_ms":
            1000.0 * _self_s(score, "columnar.record_block"),
        "columnar.drives_tracked":
            score["maxima"].get("columnar.drives_tracked", 0.0),
        "tree.predict_ms": 1000.0 * _self_s(score, "tree.predict"),
        "bundle.load_ms": _mean_call_ms(score, "bundle.load"),
        "setup.import_s": import_seconds("repro.cli"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_ms": 1000.0 * (score_wall - attributed),
    })
    return metrics
