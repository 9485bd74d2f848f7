"""Tests for the streaming scorer — the byte-identity golden contract."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import AlertBlock
from repro.core.monitor import (DEFAULT_CRITICAL_THRESHOLD,
                                DEFAULT_WATCH_THRESHOLD, AlertLevel,
                                DegradationMonitor)
from repro.core.prediction import DegradationPredictor
from repro.core.taxonomy import FailureType
from repro.errors import ServeError, SignatureError
from repro.obs.observer import TelemetryObserver
from repro.serve import scorer as scorer_module
from repro.serve.bundle import build_bundle, load_bundle, save_bundle
from repro.serve.scorer import (MonitorVerdict, StreamScorer, VerdictBlock,
                                replay_fleet)


@pytest.fixture(scope="module")
def loaded_bundle(mid_report, tmp_path_factory):
    """A bundle that went through a full disk round trip."""
    bundle = build_bundle(mid_report, seed=7)
    path = tmp_path_factory.mktemp("scorer") / "fleet.bundle.json"
    save_bundle(bundle, path)
    return load_bundle(path)


@pytest.fixture(scope="module")
def reference_monitor(mid_report):
    """The offline monitor built from never-serialized in-memory models."""
    predictor = DegradationPredictor(seed=7)
    predictor.evaluate_all(mid_report.dataset, mid_report.categorization)
    return DegradationMonitor(predictor, mid_report.dataset.normalizer)


@pytest.fixture(scope="module")
def stream_profiles(mid_fleet):
    """A mixed failed/good slice of the fleet, raw records."""
    dataset = mid_fleet.dataset
    return dataset.failed_profiles[:6] + dataset.good_profiles[:6]


def _lines(verdicts):
    return [v.to_json_line() for v in verdicts]


def test_scorer_matches_offline_replay_byte_for_byte(
        loaded_bundle, reference_monitor, stream_profiles):
    """The golden contract: saved->loaded->streamed == offline replay."""
    scorer = StreamScorer(loaded_bundle)
    for profile in stream_profiles:
        offline = [MonitorVerdict.from_alert(alert).to_json_line()
                   for alert in reference_monitor.replay(profile)]
        streamed = _lines(scorer.replay_profile(profile))
        assert streamed == offline


def test_push_many_equals_push(loaded_bundle, stream_profiles):
    samples = [
        (profile.serial, int(hour), row)
        for profile in stream_profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]
    one_by_one = StreamScorer(loaded_bundle)
    batched = StreamScorer(loaded_bundle)
    sequential = [one_by_one.push(*sample) for sample in samples]
    batch = batched.push_many(samples)
    assert _lines(batch) == _lines(sequential)
    assert one_by_one.samples_scored == batched.samples_scored
    assert one_by_one.alerts_emitted == batched.alerts_emitted


def test_push_many_empty_is_noop(loaded_bundle):
    scorer = StreamScorer(loaded_bundle)
    assert scorer.push_many([]) == []
    assert scorer.samples_scored == 0


def test_score_block_matches_push_lazily(loaded_bundle, stream_profiles):
    """The columnar surface: lazy block == per-sample push, byte for byte."""
    samples = [
        (profile.serial, int(hour), row)
        for profile in stream_profiles
        for hour, row in zip(profile.hours, profile.matrix)
    ]
    one_by_one = StreamScorer(loaded_bundle)
    columnar = StreamScorer(loaded_bundle)
    expected = [one_by_one.push(*sample).to_json_line()
                for sample in samples]
    block = columnar.score_block(
        [s for s, _, _ in samples], [h for _, h, _ in samples],
        np.vstack([np.asarray(r, dtype=np.float64).ravel()
                   for _, _, r in samples]))
    assert block.to_json_lines() == expected
    assert len(block) == len(samples)
    assert block.n_alerting == one_by_one.alerts_emitted
    assert columnar.samples_scored == one_by_one.samples_scored
    # Alerting rows materialize individually to the same verdicts.
    for row in block.alerting_rows():
        assert block.verdict_at(int(row)).to_json_line() == expected[row]
    # Per-drive state agrees with the scalar path afterwards.
    assert columnar.drives_tracked == one_by_one.drives_tracked
    for profile in stream_profiles:
        assert (columnar.level_of(profile.serial)
                is one_by_one.level_of(profile.serial))


def test_score_block_empty(loaded_bundle):
    scorer = StreamScorer(loaded_bundle)
    block = scorer.score_block(
        [], [], np.empty((0, loaded_bundle.n_attributes)))
    assert len(block) == 0
    assert block.verdicts() == []
    assert scorer.samples_scored == 0


def test_scorer_evicts_idle_drives(loaded_bundle, stream_profiles):
    observer = TelemetryObserver()
    scorer = StreamScorer(loaded_bundle, observer=observer)
    early, late = stream_profiles[0], stream_profiles[1]
    scorer.push(early.serial, 10, early.matrix[0])
    scorer.push(late.serial, 500, late.matrix[0])
    assert scorer.evict_idle(before_hour=100) == 1
    assert scorer.drives_tracked == 1
    assert scorer.level_of(early.serial) is AlertLevel.HEALTHY
    snapshot = observer.metrics.snapshot()
    assert snapshot["drives_evicted"]["value"] == 1
    assert snapshot["drives_tracked"]["value"] == 1
    # Nothing idle: no counter movement, no error.
    assert scorer.evict_idle(before_hour=100) == 0


@pytest.mark.parametrize("n_jobs,backend", [(2, "process"), (2, "thread")])
def test_parallel_replay_is_byte_identical(loaded_bundle, stream_profiles,
                                           n_jobs, backend):
    serial = replay_fleet(loaded_bundle, stream_profiles, n_jobs=1)
    parallel = replay_fleet(loaded_bundle, stream_profiles,
                            n_jobs=n_jobs, backend=backend)
    assert [_lines(v) for v in serial] == [_lines(v) for v in parallel]


@pytest.mark.parametrize("with_observer", [False, True])
def test_thread_replay_stress_is_byte_identical(loaded_bundle, mid_fleet,
                                                with_observer):
    """Many small chunks on 4 threads, repeated: no scorer is shared.

    Without an observer every chunk sees the same null observer, the
    case where worker threads once raced on one cached scorer.  A tiny
    switch interval makes the interpreter interleave threads often.
    """
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:8] + dataset.good_profiles[:24]
    serial = [_lines(v) for v in replay_fleet(loaded_bundle, profiles)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            observer = TelemetryObserver() if with_observer else None
            threaded = replay_fleet(loaded_bundle, profiles, n_jobs=4,
                                    backend="thread", observer=observer)
            assert [_lines(v) for v in threaded] == serial
    finally:
        sys.setswitchinterval(interval)


def test_replay_fleet_preserves_input_order(loaded_bundle, stream_profiles):
    results = replay_fleet(loaded_bundle, stream_profiles, n_jobs=2)
    assert len(results) == len(stream_profiles)
    for profile, verdicts in zip(stream_profiles, results):
        assert len(verdicts) == len(profile.hours)
        assert all(v.serial == profile.serial for v in verdicts)


def test_failed_drive_alerts_and_state_tracks(loaded_bundle, mid_fleet):
    scorer = StreamScorer(loaded_bundle)
    failed = mid_fleet.dataset.failed_profiles[0]
    verdicts = scorer.replay_profile(failed)
    assert verdicts[-1].level == AlertLevel.CRITICAL.name
    assert scorer.level_of(failed.serial) is AlertLevel.CRITICAL
    assert failed.serial in scorer.drives_at(AlertLevel.CRITICAL)
    assert scorer.alerts_emitted > 0
    assert scorer.drives_tracked == 1


def test_record_width_mismatch_is_typed(loaded_bundle):
    scorer = StreamScorer(loaded_bundle)
    with pytest.raises(ServeError, match="attributes"):
        scorer.push("D1", 0, np.zeros(loaded_bundle.n_attributes + 1))


def test_verdict_json_is_canonical(loaded_bundle, stream_profiles):
    scorer = StreamScorer(loaded_bundle)
    verdict = scorer.replay_profile(stream_profiles[0])[0]
    line = verdict.to_json_line()
    assert line == verdict.to_json_line()     # stable
    assert "\n" not in line
    import json
    payload = json.loads(line)
    assert list(payload) == sorted(payload)   # sorted keys
    assert payload["serial"] == stream_profiles[0].serial


def test_scorer_emits_telemetry(loaded_bundle, stream_profiles):
    observer = TelemetryObserver()
    scorer = StreamScorer(loaded_bundle, observer=observer)
    scorer.replay_profile(stream_profiles[0])
    snapshot = observer.metrics.snapshot()
    assert snapshot["samples_scored"]["value"] == scorer.samples_scored
    assert snapshot["drives_tracked"]["value"] == 1


def test_restore_state_accepts_ring_buffer_dump(loaded_bundle,
                                                stream_profiles):
    """A scorer dump from the ring-buffer store (per-drive ``window``
    history, ``n_attributes``, ``history_hours``) restores to a scorer
    that agrees with one fed the same stream directly."""
    import json

    from tests.test_core_columnar import legacy_shaped

    samples = [(profile.serial, int(hour), row)
               for profile in stream_profiles
               for hour, row in zip(profile.hours[:8], profile.matrix[:8])]
    blocks = [samples[start:start + 20]
              for start in range(0, len(samples), 20)]

    def score(scorer, block):
        return scorer.score_block(
            [s for s, _, _ in block], [h for _, h, _ in block],
            np.vstack([r for _, _, r in block])).to_json_lines()

    direct = StreamScorer(loaded_bundle)
    half = len(blocks) // 2
    for block in blocks[:half]:
        score(direct, block)
    # Evict the earliest drives so the dump carries freed rows.
    first_hours = sorted({h for _, h, _ in samples})
    assert direct.evict_idle(first_hours[len(first_hours) // 2]) > 0
    dump = direct.dump_state()
    legacy = dict(dump, state=legacy_shaped(
        dump["state"], n_attributes=loaded_bundle.n_attributes,
        history_hours=loaded_bundle.history_hours))
    restored = StreamScorer(loaded_bundle)
    restored.restore_state(json.loads(json.dumps(legacy)))

    assert restored.state.serials() == direct.state.serials()
    assert restored.samples_scored == direct.samples_scored
    for level in AlertLevel:
        assert restored.drives_at(level) == direct.drives_at(level)
    for serial in {s for s, _, _ in samples}:
        assert restored.level_of(serial) is direct.level_of(serial)
    for block in blocks[half:]:
        assert score(restored, block) == score(direct, block)
    assert restored.dump_state() == direct.dump_state()
    assert restored.evict_idle(10 ** 6) == direct.evict_idle(10 ** 6)


# -- the leaf-table verdict encoder ------------------------------------------

#: Stages the encoder must keep apart or render exactly: signed zeros,
#: the default thresholds, the failure event and values past it (the
#: clip), and tiny / subnormal magnitudes either side of zero.
EDGE_STAGES = [-0.0, 0.0, DEFAULT_WATCH_THRESHOLD, DEFAULT_CRITICAL_THRESHOLD,
               -1.0, -1.0000000000000002, -1.5, -7.25, -0.9999999999999999,
               -0.33, 0.125, 2.0, 5e-324, -5e-324, 1e-300, -1e-300]

#: Serials JSON must escape: quotes, backslashes, non-ASCII, U+2028.
NASTY_SERIALS = ['"quoted"', "back\\slash", "ünïcode-✓", "line\u2028sep",
                 "tab\tand\nnewline", "", "emoji-\U0001F4BE"]

_N_TYPES = len(FailureType)


def _hand_block(stages, codes, likely, hours, serials):
    """An AlertBlock built directly from columns (no scoring)."""
    return VerdictBlock(AlertBlock(
        list(serials), np.asarray(hours, dtype=np.int64),
        np.asarray(stages, dtype=np.float64).reshape(_N_TYPES, -1),
        np.asarray(likely, dtype=np.int64), np.asarray(codes, dtype=np.int8),
        tuple(FailureType)))


def _reference(block, rows=None):
    rows = range(len(block)) if rows is None else rows
    return [block.verdict_at(int(row)).to_json_line() for row in rows]


_stage = st.one_of(st.sampled_from(EDGE_STAGES),
                   st.floats(min_value=-3.0, max_value=3.0,
                             allow_nan=False, allow_infinity=False))
_row = st.tuples(
    st.lists(_stage, min_size=_N_TYPES, max_size=_N_TYPES),
    st.integers(0, 2), st.integers(0, _N_TYPES - 1),
    st.integers(-5, 10 ** 7),
    st.one_of(st.sampled_from(NASTY_SERIALS), st.text(max_size=6)))


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=24), data=st.data())
def test_encoder_matches_scalar_reference(rows, data):
    """Hand-built blocks of edge-case stages, codes, likely types,
    hours and serials encode to exactly the scalar reference lines,
    for all rows and for any row subset (repeats and order kept)."""
    stages = np.array([stages for stages, *_ in rows]).T
    block = _hand_block(stages, [row[1] for row in rows],
                        [row[2] for row in rows], [row[3] for row in rows],
                        [row[4] for row in rows])
    assert block.to_json_lines() == _reference(block)
    subset = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
    assert block.to_json_lines(subset) == _reference(block, subset)
    assert block.to_json_lines(np.asarray(subset, dtype=np.int64)) \
        == _reference(block, subset)


def test_encoder_keeps_signed_zero_apart():
    """``-0.0 == 0.0``, but the two render differently: the key is the
    bit pattern, so neither line is served from the other's entry."""
    block = _hand_block([[0.0, -0.0, 0.0, -0.0]] * _N_TYPES,
                        [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 2, 2],
                        ["a", "a", "b", "b"])
    lines = block.to_json_lines()
    assert lines == _reference(block)
    assert lines[0] != lines[1]
    assert '"stage":-0.0' in lines[1] and '"stage":0.0' in lines[0]


def test_encoder_argmin_ties_and_thresholds():
    """Ties between types and stages exactly on the thresholds: the
    likely-type index is part of the key, so tied rows naming
    different types encode differently, each as the reference does."""
    watch, critical = DEFAULT_WATCH_THRESHOLD, DEFAULT_CRITICAL_THRESHOLD
    stages = [[watch, watch, critical, -1.0, -2.0],
              [watch, watch, critical, -1.0, -2.0],
              [0.5, watch, critical, -1.0, -3.0]]
    block = _hand_block(stages, [1, 1, 2, 2, 2], [0, 1, 2, 1, 2],
                        [3, 3, 3, 3, 3], ["t"] * 5)
    lines = block.to_json_lines()
    assert lines == _reference(block)
    assert lines[0] != lines[1]        # same stages, other likely type


def test_encoder_refuses_nan_stage_like_reference():
    """The reference refuses to invert a NaN stage; so does the
    encoder, and it stores nothing for the key."""
    size = len(scorer_module._LEAF_TABLE)
    block = _hand_block([[np.nan], [-0.5], [0.25]], [0], [1], [7], ["n"])
    with pytest.raises(SignatureError):
        _reference(block)
    with pytest.raises(SignatureError):
        block.to_json_lines()
    assert len(scorer_module._LEAF_TABLE) <= size
    clean = _hand_block([[0.75], [-0.5], [0.25]], [1], [1], [7], ["n"])
    assert clean.to_json_lines() == _reference(clean)


def test_encoder_other_type_order_uses_reference():
    """A block whose types are not in FailureType order bypasses the
    table (its keys would mean other verdicts) and still encodes
    exactly as the reference."""
    types = tuple(reversed(FailureType))
    block = VerdictBlock(AlertBlock(
        ["x", "y"], np.array([1, 2]), np.array([[-0.7, 0.3]] * 3),
        np.array([0, 2]), np.array([2, 0], dtype=np.int8), types))
    assert block.to_json_lines() == _reference(block)
    assert block.to_json_lines([1]) == _reference(block, [1])


def test_encoder_table_stays_bounded():
    """More distinct keys than the bound: lines stay exact, the table
    never grows past ``LEAF_TABLE_SIZE``, and evicted keys re-render."""
    n = scorer_module.LEAF_TABLE_SIZE + 300
    stages = np.tile(-np.linspace(0.001, 0.999, n), (_N_TYPES, 1))
    block = _hand_block(stages, np.ones(n), np.zeros(n), np.arange(n),
                        [f"d{i}" for i in range(n)])
    expected = _reference(block)
    assert block.to_json_lines() == expected
    assert len(scorer_module._LEAF_TABLE) <= scorer_module.LEAF_TABLE_SIZE
    assert block.to_json_lines() == expected


def test_encoder_after_swap_bundle_has_no_stale_level(loaded_bundle,
                                                      stream_profiles):
    """The same leaf triples scored before and after a swap to a
    bundle with other thresholds: the level code is in the key, so the
    post-swap lines carry the new levels, exactly as the reference."""
    samples = [(profile.serial, int(hour), row)
               for profile in stream_profiles
               for hour, row in zip(profile.hours, profile.matrix)]
    serials = [s for s, _, _ in samples]
    hours = [h for _, h, _ in samples]
    matrix = np.vstack([r for _, _, r in samples])
    strict = dataclasses.replace(loaded_bundle, watch_threshold=0.5,
                                 critical_threshold=-0.05)
    scorer = StreamScorer(loaded_bundle)
    before = scorer.score_block(serials, hours, matrix)
    scorer.swap_bundle(strict)
    after = scorer.score_block(serials, hours, matrix)
    assert np.array_equal(before.block.stages, after.block.stages)
    assert before.to_json_lines() == _reference(before)
    assert after.to_json_lines() == _reference(after)
    assert after.n_alerting > before.n_alerting
    assert after.to_json_lines() != before.to_json_lines()
    rows = after.alerting_rows()
    assert after.to_json_lines(rows) == _reference(after, rows)
