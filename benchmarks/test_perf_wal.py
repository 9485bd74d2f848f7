"""WAL-overhead benchmarks: ingest throughput with and without the log.

Crash safety has a price — every admitted block is framed, hashed and
appended (with batched fsync) before it scores.  The pinned contract:
with the default fsync batching, WAL-on ingest stays within **2x** of
WAL-off ingest on the same blocked stream, and WAL-off *is* the PR 8
baseline (the ``--no-wal`` path adds no work at all).  Both throughputs
land in ``benchmarks/output/perf_wal.json``, where
``scripts/compare_bench.py`` pins them against the committed baseline
via its ``*samples_per_s`` rule.

The same recording measures what per-drive serving state costs at 10k
and 100k tracked drives: state bytes per drive (the store's column
arrays plus its serial → row map), the size of one WAL snapshot, the
seconds to dump and write that snapshot, and the seconds to restore a
scorer from it.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import bench_environment
from repro.core.serialize import canonical_json_dumps
from repro.serve.bundle import build_bundle, content_hash
from repro.serve.scorer import StreamScorer
from repro.serve.shard import ShardSet
from repro.serve.wal import ShardWal

#: Samples per ingest block — the daemon-typical batch size, so the WAL
#: sees one append per block, not one per stream.
BLOCK_SIZE = 256

#: Tracked-drive counts of the state-cost measurement.
STATE_DRIVES = (10_000, 100_000)

#: Samples (consecutive hours) each drive reports before measuring.
STATE_HOURS_PER_DRIVE = 2

#: Samples per block while filling the state-cost scorer.
STATE_BLOCK_SIZE = 4096


def _best_of(fn, repeat=3):
    """Min over ``repeat`` calls of a fn that returns elapsed seconds."""
    return min(fn() for _ in range(repeat))


def state_bytes(store) -> int:
    """Bytes a state store holds: every numpy array it owns plus its
    dict entries (the dict itself, each key and each value)."""
    total = 0
    for value in vars(store).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += sys.getsizeof(value) + sum(
                sys.getsizeof(key) + sys.getsizeof(item)
                for key, item in value.items())
    return total


def measure_state_cost(bundle, records: np.ndarray, n_drives: int,
                       directory: Path) -> dict:
    """Fill a scorer with ``n_drives`` drives, then time one WAL
    snapshot of its state and one restore from that snapshot."""
    scorer = StreamScorer(bundle)
    serials = [f"drive-{index:07d}" for index in range(n_drives)]
    for hour in range(STATE_HOURS_PER_DRIVE):
        for start in range(0, n_drives, STATE_BLOCK_SIZE):
            chunk = serials[start:start + STATE_BLOCK_SIZE]
            rows = (np.arange(len(chunk)) + start + hour) % len(records)
            scorer.score_block(chunk, [hour] * len(chunk), records[rows])
    assert scorer.drives_tracked == n_drives
    wal = ShardWal(directory, bundle_sha256=content_hash(
        bundle.to_payload()))
    wal.open()
    try:
        start = time.perf_counter()
        path = wal.write_snapshot(scorer.dump_state())
        snapshot_s = time.perf_counter() - start
    finally:
        wal.close()
    state = json.loads(path.read_text(encoding="utf-8"))["state"]
    twin = StreamScorer(bundle)
    start = time.perf_counter()
    twin.restore_state(state)
    restore_s = time.perf_counter() - start
    assert twin.dump_state() == scorer.dump_state()
    return {
        "n_drives": n_drives,
        "state_bytes_per_drive": state_bytes(scorer.state) / n_drives,
        "snapshot_bytes": path.stat().st_size,
        "dump_and_write_snapshot_s": snapshot_s,
        "restore_state_s": restore_s,
    }


@pytest.fixture(scope="module")
def wal_bundle(bench_report):
    return build_bundle(bench_report)


@pytest.fixture(scope="module")
def blocked_stream(bench_fleet):
    """~200 drives of hourly samples cut into daemon-sized blocks."""
    dataset = bench_fleet.dataset
    profiles = dataset.failed_profiles[:40] + dataset.good_profiles[:160]
    serials, hours, rows = [], [], []
    for profile in profiles:
        for hour, row in zip(profile.hours, profile.matrix):
            serials.append(profile.serial)
            hours.append(int(hour))
            rows.append(np.asarray(row, dtype=np.float64))
    matrix = np.vstack(rows)
    return [(serials[i:i + BLOCK_SIZE], hours[i:i + BLOCK_SIZE],
             matrix[i:i + BLOCK_SIZE])
            for i in range(0, len(serials), BLOCK_SIZE)]


def test_wal_stream_is_byte_identical_to_raw(wal_bundle, blocked_stream,
                                             tmp_path):
    """Cheap tier: the WAL path changes durability, never bytes."""
    subset = blocked_stream[:8]
    scorer = StreamScorer(wal_bundle)
    expected = []
    for serials, hours, matrix in subset:
        expected.extend(scorer.score_block(serials, hours,
                                           matrix).to_json_lines())
    actual = []
    with ShardSet(wal_bundle, n_shards=2, wal_dir=tmp_path / "wal") as shards:
        for index, (serials, hours, matrix) in enumerate(subset):
            actual.extend(shards.submit_block(
                serials, hours, matrix,
                block_id=f"perf-{index}").to_json_lines())
    assert actual == expected


@pytest.mark.tier2
def test_perf_wal_recorded(wal_bundle, blocked_stream, artifact_dir):
    """Record WAL-on vs WAL-off blocked ingest throughput.

    Identity between the timed paths is pinned by the cheap tier above
    and the recovery suite; the timings compare the same verdict stream
    with and without the durability tax.
    """
    n_samples = sum(len(serials) for serials, _hours, _matrix
                    in blocked_stream)

    def run(wal_dir):
        """Time the ingest loop only — spawn and drain are not ingest."""
        with ShardSet(wal_bundle, n_shards=2, wal_dir=wal_dir) as shards:
            start = time.perf_counter()
            for serials, hours, matrix in blocked_stream:
                shards.submit_block(serials, hours, matrix)
            return time.perf_counter() - start

    def wal_off():
        return run(None)

    def wal_on():
        with tempfile.TemporaryDirectory() as scratch:
            return run(Path(scratch) / "wal")

    off_s = _best_of(wal_off, repeat=3)
    on_s = _best_of(wal_on, repeat=3)

    overhead = on_s / off_s
    assert overhead <= 2.0, (
        f"WAL-on ingest is {overhead:.2f}x WAL-off — fsync batching is "
        f"not absorbing the durability tax")

    records = np.vstack([matrix for _serials, _hours, matrix
                         in blocked_stream])
    with tempfile.TemporaryDirectory() as scratch:
        state_cost = {
            f"drives_{n_drives}": measure_state_cost(
                wal_bundle, records, n_drives,
                Path(scratch) / f"wal-{n_drives}")
            for n_drives in STATE_DRIVES
        }

    payload = {
        "recorded_by": "benchmarks/test_perf_wal.py::test_perf_wal_recorded",
        "environment": bench_environment(),
        "stream": {
            "n_samples": n_samples,
            "n_blocks": len(blocked_stream),
            "block_size": BLOCK_SIZE,
        },
        "ingest_throughput": {
            "wal_off_s": off_s,
            "wal_off_samples_per_s": n_samples / off_s,
            "wal_on_s": on_s,
            "wal_on_samples_per_s": n_samples / on_s,
            "wal_overhead_vs_off": overhead,
            "note": "2-shard blocked ingest; WAL-off is the --no-wal "
                    "daemon path (PR 8 baseline), WAL-on uses default "
                    "fsync batching",
        },
        "state_cost": {
            **state_cost,
            "hours_per_drive": STATE_HOURS_PER_DRIVE,
            "note": "one StreamScorer; bytes = column arrays + serial->row "
                    "map entries; snapshot = dump_state + "
                    "ShardWal.write_snapshot (JSON, fsync); restore = "
                    "restore_state of the decoded snapshot",
        },
    }
    path = artifact_dir / "perf_wal.json"
    path.write_text(canonical_json_dumps(payload) + "\n")
