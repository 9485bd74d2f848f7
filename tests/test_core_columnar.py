"""Tests for the struct-of-arrays drive state store and block scoring.

Three contracts are pinned here.  First, :class:`ColumnStateStore`
holds only serial → row, last level and last-seen hour: ``record_block``
leaves it exactly as a sequential ``record`` loop would (including
duplicate serials within one block), rows are recycled on eviction and
the columns grow by doubling.  Second, the vectorized scoring path is
*bit-identical* to the scalar one: a monitor's ``observe_columns``
emits exactly the alerts the per-sample ``observe`` loop produces — for
empty blocks, duplicate serials in one tick, out-of-order hours, and
drives reappearing after eviction — and materialized rescue estimates
go through the scalar libm inversion, never a vectorized ``pow``.
Third, state dumps round-trip exactly, and a dump written by the
earlier ring-buffer store (schema 1, with per-drive ``window`` record
history) still restores.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.columnar import AlertBlock, ColumnStateStore
from repro.core.monitor import AlertLevel, DegradationMonitor
from repro.core.prediction import DegradationPredictor
from repro.core.rescue import rescue_estimate
from repro.core.taxonomy import FailureType
from repro.errors import ReproError

#: A schema-1 dump of :func:`_legacy_stream` written by the earlier
#: ring-buffer store (``history_hours=4``, 3 attributes, 2 initial rows).
LEGACY_DUMP = Path(__file__).parent / "data" / "legacy_columnar_state.json"

#: Fields the ring-buffer store wrote that the state store now ignores.
LEGACY_TOP_FIELDS = ("history_hours", "n_attributes")


def legacy_shaped(state: dict, n_attributes: int,
                  history_hours: int = 48) -> dict:
    """``state`` (a ``dump_state`` payload) in the ring-buffer store's
    shape: top-level ``history_hours`` / ``n_attributes`` plus one
    ``window`` of records per drive, as older WAL snapshots carry."""
    shaped = json.loads(json.dumps(state))
    shaped["history_hours"] = history_hours
    shaped["n_attributes"] = n_attributes
    for index, entry in enumerate(shaped["drives"].values()):
        depth = 1 + index % history_hours
        entry["window"] = [[0.25 * (index + step)] * n_attributes
                           for step in range(depth)]
    return shaped


# -- scalar surface ----------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ReproError, match="initial_rows"):
        ColumnStateStore(initial_rows=0)


def test_record_width_mismatch_is_typed(monitor_parts):
    # The store keeps no records, so record width is checked where
    # records come in: the monitor's normalizer refuses a wrong width.
    _, columnar = _monitor_pair(monitor_parts)
    width = len(monitor_parts[1].minima)
    with pytest.raises(ReproError, match="column"):
        columnar.observe("d", 0, np.zeros(width + 1))
    with pytest.raises(ReproError, match="column"):
        columnar.observe_columns(["e"], [0], np.zeros((1, width + 1)))
    assert columnar.n_tracked == 0


# -- growth and recycling ----------------------------------------------------

def test_capacity_grows_by_doubling():
    store = ColumnStateStore(initial_rows=2)
    assert store.capacity == 0
    for drive in range(5):
        store.record(f"d{drive}", AlertLevel(drive % 3), hour=drive)
    assert store.capacity == 8
    assert store.n_tracked == 5
    for drive in range(5):
        assert store.level_of(f"d{drive}") is AlertLevel(drive % 3)


def test_evict_idle_recycles_rows():
    store = ColumnStateStore(initial_rows=2)
    for drive in range(4):
        store.record(f"d{drive}", AlertLevel.WATCH, hour=drive)
    capacity_before = store.capacity
    evicted = store.evict_idle(before_hour=2)
    assert evicted == 2
    assert store.drives_evicted == 2
    assert store.serials() == ["d2", "d3"]
    assert store.level_of("d0") is AlertLevel.HEALTHY
    assert store.drives_at(AlertLevel.WATCH) == ["d2", "d3"]
    assert store.capacity == capacity_before
    # Freed rows are handed to new drives before any growth.
    store.record("d-new", AlertLevel.HEALTHY, hour=9)
    assert store.capacity == capacity_before
    assert store.snapshot()["drives_evicted"] == 2
    # An all-idle cutoff empties the store.
    assert store.evict_idle(before_hour=100) == 3
    assert store.n_tracked == 0
    assert store.evict_idle(before_hour=100) == 0


def test_reappearing_drive_gets_fresh_history():
    store = ColumnStateStore()
    store.record("d", AlertLevel.CRITICAL, hour=0)
    store.record("d", AlertLevel.CRITICAL, hour=7)
    assert store.evict_idle(before_hour=8) == 1
    store.record("d", AlertLevel.HEALTHY, hour=3)
    assert store.level_of("d") is AlertLevel.HEALTHY
    # The eviction clock restarted too: hour 7 from before is forgotten.
    assert store.evict_idle(before_hour=4) == 1


def test_snapshot_lists_levels_only():
    store = ColumnStateStore()
    store.record("b", AlertLevel.WATCH, hour=1)
    store.record("a", AlertLevel.CRITICAL, hour=2)
    assert store.snapshot() == {
        "n_tracked": 2,
        "drives_evicted": 0,
        "drives": {"a": {"level": "CRITICAL"}, "b": {"level": "WATCH"}},
    }


# -- record_block vs sequential record ---------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_block_matches_sequential_record(seed):
    rng = np.random.default_rng(seed)
    serial_pool = [f"d{i}" for i in range(5)]
    # Duplicate-heavy block: 40 samples over 5 drives, with hours out of
    # order, so the last level and the maximum hour come from different
    # rows of the same drive.
    serials = [serial_pool[i] for i in rng.integers(0, 5, size=40)]
    level_codes = rng.integers(0, 3, size=40).astype(np.int8)
    hours = rng.integers(0, 50, size=40)

    sequential = ColumnStateStore(initial_rows=1)
    for i, serial in enumerate(serials):
        sequential.record(serial, AlertLevel(int(level_codes[i])),
                          hour=int(hours[i]))
    blocked = ColumnStateStore(initial_rows=1)
    blocked.record_block(serials, level_codes, hours)

    assert blocked.serials() == sequential.serials()
    assert blocked.snapshot() == sequential.snapshot()
    assert blocked.dump_state() == sequential.dump_state()
    # The eviction clock advanced identically (max hour per drive).
    for cutoff in (0, 25, 51):
        assert (blocked.evict_idle(cutoff)
                == sequential.evict_idle(cutoff))


def test_record_block_empty_is_noop():
    store = ColumnStateStore()
    store.record_block([], np.empty(0, dtype=np.int8), [])
    assert store.n_tracked == 0
    assert store.capacity == 0


def test_rows_of_assigns_rows_on_demand():
    store = ColumnStateStore()
    assert store.rows_of(["d", "e", "d"]).tolist() == [0, 1, 0]
    store.record("d", AlertLevel.HEALTHY)
    assert store.rows_of(["e", "d"]).tolist() == [1, 0]


# -- lazy rescue inversion ---------------------------------------------------

def test_alert_estimates_use_scalar_rescue_math():
    """Materialized estimates are bitwise the scalar libm inversion.

    A dense stage grid including the order-3 (HEAD) regime where
    numpy's vectorized ``pow`` is known to drift from libm by an ulp:
    ``alert_at`` must route every estimate through the scalar
    ``rescue_estimate``, so each dataclass compares equal bit for bit.
    """
    types = tuple(FailureType)
    n = 1001
    grid = np.linspace(-1.2, 0.5, n)
    stages = np.vstack([grid, np.roll(grid, 100), np.roll(grid, 200)])
    likely_indices = np.argmin(stages, axis=0)
    level_codes = np.zeros(n, dtype=np.int8)
    block = AlertBlock([f"d{i}" for i in range(n)],
                       np.arange(n, dtype=np.int64),
                       stages, likely_indices, level_codes, types)
    for row in range(n):
        alert = block.alert_at(row)
        for type_index, failure_type in enumerate(types):
            expected = rescue_estimate(float(stages[type_index, row]),
                                       failure_type)
            assert alert.estimates[failure_type] == expected


# -- monitor parity: scalar vs columnar --------------------------------------

@pytest.fixture(scope="module")
def monitor_parts(mid_fleet, mid_report):
    predictor = DegradationPredictor(seed=7)
    predictor.evaluate_all(mid_report.dataset, mid_report.categorization)
    normalizer = mid_fleet.dataset.fit_normalizer()
    return predictor, normalizer, mid_fleet


def _monitor_pair(monitor_parts):
    predictor, normalizer, _ = monitor_parts
    scalar = DegradationMonitor(predictor, normalizer)
    columnar = DegradationMonitor(predictor, normalizer,
                                  state=ColumnStateStore(initial_rows=1))
    return scalar, columnar


def _assert_alerts_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.serial == want.serial
        assert got.hour == want.hour
        assert got.level is want.level
        assert got.stage == want.stage          # bitwise, no tolerance
        assert got.likely_type is want.likely_type
        for failure_type in FailureType:
            assert (got.estimates[failure_type]
                    == want.estimates[failure_type])


def _tick_samples(fleet):
    """One duplicate-heavy, out-of-order tick of raw samples."""
    dataset = fleet.dataset
    failed = dataset.failed_profiles[0]
    good = dataset.good_profiles[0]
    samples = [
        (failed.serial, int(failed.hours[-1]), failed.matrix[-1]),
        (good.serial, int(good.hours[0]), good.matrix[0]),
        # The same drives again inside the very same block, with hours
        # running backwards relative to the rows above.
        (failed.serial, int(failed.hours[0]), failed.matrix[0]),
        (good.serial, int(good.hours[2]), good.matrix[2]),
        (failed.serial, int(failed.hours[-2]), failed.matrix[-2]),
    ]
    return samples


def test_empty_block_parity(monitor_parts):
    scalar, columnar = _monitor_pair(monitor_parts)
    for monitor in (scalar, columnar):
        block = monitor.observe_columns([], [], np.empty((0, 4)))
        assert len(block) == 0
        assert block.alerts() == []
        assert block.n_alerting == 0
        assert monitor.n_tracked == 0


def test_duplicate_and_out_of_order_tick_parity(monitor_parts):
    predictor, normalizer, fleet = monitor_parts
    samples = _tick_samples(fleet)
    scalar, columnar = _monitor_pair(monitor_parts)

    expected = [scalar.observe(serial, hour, record)
                for serial, hour, record in samples]
    block = columnar.observe_columns(
        [s for s, _, _ in samples], [h for _, h, _ in samples],
        np.vstack([np.asarray(r, dtype=np.float64).ravel()
                   for _, _, r in samples]))
    _assert_alerts_equal(block.alerts(), expected)

    # Post-tick drive state agrees too: levels and last-seen hours.
    assert columnar.state.serials() == scalar.state.serials()
    for serial in scalar.state.serials():
        assert columnar.level_of(serial) is scalar.level_of(serial)
    assert columnar.state.snapshot() == scalar.state.snapshot()
    for cutoff in (int(min(h for _, h, _ in samples)),
                   int(max(h for _, h, _ in samples)) + 1):
        assert (columnar.state.evict_idle(cutoff)
                == scalar.state.evict_idle(cutoff))


def test_reappearance_after_eviction_parity(monitor_parts):
    predictor, normalizer, fleet = monitor_parts
    profile = fleet.dataset.good_profiles[1]
    scalar, columnar = _monitor_pair(monitor_parts)
    stream = [(profile.serial, int(hour), row)
              for hour, row in zip(profile.hours[:4], profile.matrix[:4])]

    for monitor in (scalar, columnar):
        monitor.observe_many(stream)
        assert monitor.state.evict_idle(
            before_hour=int(profile.hours[3]) + 1) == 1
        assert monitor.n_tracked == 0

    reappear = [(profile.serial, int(hour), row)
                for hour, row in zip(profile.hours[4:6],
                                     profile.matrix[4:6])]
    expected = [scalar.observe(*sample) for sample in reappear]
    actual = columnar.observe_block(
        [s for s, _, _ in reappear], [h for _, h, _ in reappear],
        np.vstack([np.asarray(r, dtype=np.float64).ravel()
                   for _, _, r in reappear]))
    _assert_alerts_equal(actual, expected)
    assert columnar.level_of(profile.serial) is scalar.level_of(
        profile.serial)
    assert columnar.state.drives_evicted == 1


def test_block_shape_validation(monitor_parts):
    _, columnar = _monitor_pair(monitor_parts)
    with pytest.raises(ReproError, match="2-D"):
        columnar.observe_block(["d"], [0], np.zeros(3))
    with pytest.raises(ReproError, match="lengths disagree"):
        columnar.observe_block(["d"], [0, 1], np.zeros((1, 4)))


# -- crash-recovery state dumps ----------------------------------------------

def _dumped_store():
    """A store with growth, eviction and duplicates behind it."""
    store = ColumnStateStore(initial_rows=2)
    for step in range(4):
        for drive in range(5):
            store.record(f"d{drive}", AlertLevel((step + drive) % 3),
                         hour=step)
    store.evict_idle(before_hour=0)  # no-op, but exercises the counter path
    store.record("late", AlertLevel.WATCH, hour=9)
    store.evict_idle(before_hour=4)  # evicts d0..d4, frees their rows
    store.record("after", AlertLevel.CRITICAL, hour=10)
    return store


def test_dump_state_round_trips_exactly():
    store = _dumped_store()
    payload = json.loads(json.dumps(store.dump_state()))  # through the wire
    twin = ColumnStateStore.from_snapshot(payload)
    assert twin.serials() == store.serials()
    assert twin.n_tracked == store.n_tracked
    assert twin.capacity == store.capacity
    assert twin.drives_evicted == store.drives_evicted
    for serial in store.serials():
        assert twin.level_of(serial) is store.level_of(serial)
    # The twin's own dump is identical — dumps are a fixed point.
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(payload, sort_keys=True)


def test_restored_store_recycles_the_same_rows():
    """The free list survives the round trip in order, so the restored
    store hands freed rows to new drives exactly as the original."""
    store = _dumped_store()
    twin = ColumnStateStore.from_snapshot(store.dump_state())
    for name in ("n1", "n2", "n3"):
        store.record(name, AlertLevel.HEALTHY, hour=20)
        twin.record(name, AlertLevel.HEALTHY, hour=20)
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(store.dump_state(), sort_keys=True)


def test_restored_store_continues_identically_under_blocks():
    """Duplicate serials inside one block resolve identically after a
    restore — last level wins, hour is the maximum."""
    rng = np.random.default_rng(5)
    store = _dumped_store()
    twin = ColumnStateStore.from_snapshot(store.dump_state())
    serials = ["after", "after", "late", "after", "fresh", "fresh"]
    levels = rng.integers(0, 3, size=len(serials)).astype(np.int8)
    hours = [11, 14, 11, 12, 13, 11]
    store.record_block(serials, levels, hours)
    twin.record_block(serials, levels, hours)
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(store.dump_state(), sort_keys=True)
    assert twin.level_of("after") is AlertLevel(int(levels[3]))


def test_empty_store_round_trips():
    store = ColumnStateStore(initial_rows=3)
    twin = ColumnStateStore.from_snapshot(store.dump_state())
    assert twin.serials() == []
    twin.record("first", AlertLevel.HEALTHY, hour=0)
    assert twin.serials() == ["first"]
    assert twin.capacity == 3


def test_restore_rejects_malformed_payloads():
    store = ColumnStateStore()
    with pytest.raises(ReproError, match="'deque'"):
        store.restore({"kind": "deque", "history_hours": 3})
    with pytest.raises(ReproError, match="malformed state dump"):
        store.restore({"kind": "columnar"})
    with pytest.raises(ReproError, match="malformed state dump"):
        store.restore({"kind": "columnar", "capacity": 1, "free": [],
                       "drives": {"d": {"row": 0, "level": 0}}})
    with pytest.raises(ReproError, match="outside the dumped layout"):
        store.restore({"kind": "columnar", "capacity": 1, "free": [],
                       "drives": {"d": {"row": 5, "level": 0,
                                        "last_hour": 0}}})
    with pytest.raises(ReproError, match="malformed state dump"):
        ColumnStateStore.from_snapshot({"kind": "columnar"})


# -- dumps written by the ring-buffer store ----------------------------------

def _legacy_stream():
    """The stream behind ``LEGACY_DUMP``: six blocks of eight samples
    with in-block duplicate serials and out-of-order hours; drives idle
    before hour 30 are evicted after the fourth block."""
    blocks = []
    for tick in range(6):
        serials = [f"d{(tick * 3 + k * k) % 11}" for k in range(8)]
        codes = np.array([(tick + k) % 3 for k in range(8)], dtype=np.int8)
        hours = [tick * 10 + (k * 7) % 5 for k in range(8)]
        blocks.append((serials, codes, hours))
    return blocks


def _fed_directly():
    store = ColumnStateStore(initial_rows=2)
    for tick, (serials, codes, hours) in enumerate(_legacy_stream()):
        store.record_block(serials, codes, hours)
        if tick == 3:
            store.evict_idle(30)
    return store


def test_legacy_ring_dump_restores_to_the_same_store():
    legacy = json.loads(LEGACY_DUMP.read_text())
    assert legacy["schema"] == 1
    assert any(len(entry["window"]) > 1
               for entry in legacy["drives"].values())
    direct = _fed_directly()
    restored = ColumnStateStore.from_snapshot(legacy)
    # The dump carries evicted and recycled rows; everything but the
    # ring fields is exactly what the current store writes.
    assert legacy["free"] and legacy["drives_evicted"] == 5
    stripped = {key: value for key, value in legacy.items()
                if key not in LEGACY_TOP_FIELDS}
    for entry in stripped["drives"].values():
        del entry["window"]
    assert restored.dump_state() == stripped == direct.dump_state()
    assert restored.serials() == direct.serials()
    for level in AlertLevel:
        assert restored.drives_at(level) == direct.drives_at(level)
    for serial in direct.serials() + ["never-seen"]:
        assert restored.level_of(serial) is direct.level_of(serial)
    # Both go on identically: a block reusing freed rows, then eviction.
    serials = ["d0", "new", "d0", "d3"]
    codes = np.array([2, 1, 0, 1], dtype=np.int8)
    for store in (restored, direct):
        store.record_block(serials, codes, [60, 61, 62, 55])
    assert restored.dump_state() == direct.dump_state()
    for cutoff in (45, 53, 61, 70):
        assert restored.evict_idle(cutoff) == direct.evict_idle(cutoff)
        assert restored.serials() == direct.serials()


def test_legacy_shaped_helper_matches_the_legacy_dump():
    """``legacy_shaped`` (used by the scorer and WAL recovery tests)
    produces the ring-buffer store's field layout."""
    legacy = json.loads(LEGACY_DUMP.read_text())
    shaped = legacy_shaped(_fed_directly().dump_state(), n_attributes=3,
                           history_hours=4)
    assert set(shaped) == set(legacy)
    for serial, entry in legacy["drives"].items():
        assert set(shaped["drives"][serial]) == set(entry)
        assert len(shaped["drives"][serial]["window"][0]) == 3
