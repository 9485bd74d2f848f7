"""Struct-of-arrays drive state and block verdicts for the hot path.

* :class:`ColumnStateStore` — the per-drive serving state: a
  serial→row map plus two flat columns, the last severity code and the
  last-seen hour of each drive.  That is everything a future verdict
  or operator reads: the paper's regression tree stages each record on
  its own, so no record history is kept.  Rows are recycled when
  drives are evicted and the columns grow by doubling, so a churning
  million-drive fleet has bounded memory and no per-drive allocation
  on the healthy path.
* :class:`AlertBlock` — the struct-of-arrays result of scoring one tick
  of samples: per-type stage and remaining-hour matrices, likely-type
  indices and level codes.  Materializing
  :class:`~repro.core.monitor.DegradationAlert` objects is deferred to
  :meth:`AlertBlock.alerts` / :meth:`AlertBlock.alert_at`, so callers
  that only need counts (or only the rare alerting rows) never pay for
  per-sample Python objects.

``AlertBlock.alerts()`` equals the scalar ``observe`` loop bit for bit,
and ``record_block`` leaves the store exactly as a sequential
``record`` loop would (pinned by ``tests/test_core_columnar.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.monitor import AlertLevel, DegradationAlert

#: Rows allocated on a store's first write; growth doubles from here.
DEFAULT_INITIAL_ROWS = 256

#: Last-seen hour of a row that has never recorded an hour.
_NEVER = np.iinfo(np.int64).min


class ColumnStateStore:
    """Keyed per-drive monitoring state in struct-of-arrays layout.

    The scalar surface (``record`` / ``level_of`` / ``drives_at`` /
    ``serials`` / ``snapshot``) serves the monitor's per-sample path;
    :meth:`record_block` applies a whole tick at once, and
    :meth:`evict_idle` recycles the rows of drives not seen since a
    cutoff hour.

    Layout
    ------
    ``levels[r]`` is drive ``r``'s last severity code and
    ``last_hours[r]`` the maximum hour it reported (the eviction
    clock).  ``serial -> row`` lives in one dict; evicted rows go to a
    free list and are handed to new drives before the columns grow (by
    doubling).

    The store is a passive container — it never computes a verdict — so
    any partitioning of drives across stores leaves every verdict
    byte-identical to a single-store run.
    """

    def __init__(self, *, initial_rows: int = DEFAULT_INITIAL_ROWS) -> None:
        if initial_rows < 1:
            raise ReproError("initial_rows must be positive")
        self._initial_rows = int(initial_rows)
        self._levels = np.zeros(0, dtype=np.int8)
        self._last_hours = np.zeros(0, dtype=np.int64)
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._drives_evicted = 0

    # -- scalar surface ---------------------------------------------------

    @property
    def n_tracked(self) -> int:
        """Drives with live state (O(1))."""
        return len(self._rows)

    @property
    def drives_evicted(self) -> int:
        """Total drives recycled by :meth:`evict_idle` since creation."""
        return self._drives_evicted

    @property
    def capacity(self) -> int:
        """Allocated rows (grows by doubling, never shrinks)."""
        return self._levels.shape[0]

    def record(self, serial: str, level: "AlertLevel",
               hour: int | None = None) -> None:
        """Set one drive's level and advance its last-seen hour.

        ``hour`` feeds the idle-eviction clock; omitting it leaves the
        drive's last-seen hour unchanged.
        """
        row = self._row_for(serial)
        self._levels[row] = level.value
        if hour is not None and hour > self._last_hours[row]:
            self._last_hours[row] = hour

    def level_of(self, serial: str) -> "AlertLevel":
        """Last recorded level for a drive (HEALTHY if never seen)."""
        from repro.core.monitor import AlertLevel
        row = self._rows.get(serial)
        if row is None:
            return AlertLevel.HEALTHY
        return AlertLevel(int(self._levels[row]))

    def drives_at(self, level: "AlertLevel") -> list[str]:
        """Serials currently at exactly ``level``."""
        return sorted(serial for serial, row in self._rows.items()
                      if self._levels[row] == level.value)

    def serials(self) -> list[str]:
        """All tracked serials, sorted."""
        return sorted(self._rows)

    def snapshot(self) -> dict:
        """JSON-clean summary of every tracked drive, sorted by serial.

        The drain/shutdown artifact: per drive, the last severity level,
        plus the store's ``drives_evicted`` counter.  Deterministic for
        a given state, so snapshots diff cleanly across runs.
        """
        from repro.core.monitor import AlertLevel
        return {
            "n_tracked": self.n_tracked,
            "drives_evicted": self._drives_evicted,
            "drives": {
                serial: {"level": AlertLevel(int(self._levels[row])).name}
                for serial, row in sorted(self._rows.items())
            },
        }

    def dump_state(self) -> dict:
        """Full, JSON-clean state for crash recovery (exact round-trip).

        Everything :meth:`restore` needs to rebuild an *operationally
        identical* store: the serial→row map, the free-list order, the
        eviction counter, and per live drive its level code and
        last-seen hour.  Dumps of a store and of its restored twin are
        identical, as is every subsequent verdict and state transition.
        """
        return {
            "schema": 1,
            "kind": "columnar",
            "initial_rows": self._initial_rows,
            "capacity": self.capacity,
            "drives_evicted": self._drives_evicted,
            "free": list(self._free),
            "drives": {
                serial: {
                    "row": row,
                    "level": int(self._levels[row]),
                    "last_hour": int(self._last_hours[row]),
                }
                for serial, row in sorted(self._rows.items())
            },
        }

    def restore(self, payload: dict) -> None:
        """Rebuild this store in place from a :meth:`dump_state` payload.

        Discards all current state.  Restores the exact serial→row
        mapping, free-list order and eviction counter, so the restored
        store is indistinguishable from the dumped one through every
        public method, including future :meth:`evict_idle` and
        row-recycling decisions.  Only ``row`` / ``level`` /
        ``last_hour`` per drive and ``capacity`` / ``free`` are read;
        other fields (such as the per-drive ``window`` record history of
        older dumps) are ignored.
        """
        try:
            if payload.get("kind") != "columnar":
                raise ReproError(
                    f"cannot restore a ColumnStateStore from a "
                    f"{payload.get('kind')!r} state dump")
            capacity = int(payload["capacity"])
            free = [int(row) for row in payload["free"]]
            drives = {serial: (int(entry["row"]), int(entry["level"]),
                               int(entry["last_hour"]))
                      for serial, entry in payload["drives"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ReproError(
                f"malformed state dump for ColumnStateStore: {error}"
            ) from error
        self._initial_rows = int(payload.get("initial_rows",
                                             self._initial_rows))
        self._drives_evicted = int(payload.get("drives_evicted", 0))
        self._levels = np.zeros(capacity, dtype=np.int8)
        self._last_hours = np.full(capacity, _NEVER, dtype=np.int64)
        self._rows = {}
        self._free = free
        for serial, (row, level, last_hour) in drives.items():
            if not 0 <= row < capacity:
                raise ReproError(
                    f"state dump drive {serial!r} has row {row} outside "
                    f"the dumped layout")
            self._rows[serial] = row
            self._levels[row] = level
            self._last_hours[row] = last_hour

    @classmethod
    def from_snapshot(cls, payload: dict, *,
                      initial_rows: int = DEFAULT_INITIAL_ROWS,
                      ) -> "ColumnStateStore":
        """Build a fresh store from a :meth:`dump_state` payload."""
        store = cls(initial_rows=initial_rows)
        store.restore(payload)
        return store

    # -- columnar surface -------------------------------------------------

    def record_block(self, serials: Sequence[str], level_codes: np.ndarray,
                     hours: np.ndarray | Sequence[int]) -> None:
        """Apply one tick of verdicts to every touched drive at once.

        Semantically identical to calling :meth:`record` once per row,
        in order: when a serial repeats within the block its last row's
        level wins and its last-seen hour becomes the maximum.
        """
        n = len(serials)
        if n == 0:
            return
        rows = self._rows_for_block(serials)
        # First occurrence in the reversed block = last in the block.
        touched, from_end = np.unique(rows[::-1], return_index=True)
        self._levels[touched] = np.asarray(level_codes)[n - 1 - from_end]
        np.maximum.at(self._last_hours, rows,
                      np.asarray(hours, dtype=np.int64))

    def evict_idle(self, before_hour: int) -> int:
        """Recycle every drive last observed strictly before ``before_hour``.

        Evicted drives vanish from the tracked set (``level_of`` returns
        HEALTHY again) and their rows go to the free list for the next
        new serial — row recycling makes a churning fleet's memory
        proportional to the *live* drive count, not the all-time serial
        count.  Returns how many drives were evicted; the running total
        is :attr:`drives_evicted`.
        """
        evicted = [serial for serial, row in self._rows.items()
                   if self._last_hours[row] < before_hour]
        for serial in evicted:
            row = self._rows.pop(serial)
            self._levels[row] = 0
            self._last_hours[row] = _NEVER
            self._free.append(row)
        self._drives_evicted += len(evicted)
        return len(evicted)

    def rows_of(self, serials: Sequence[str]) -> np.ndarray:
        """Row indices for ``serials`` (rows are assigned on demand).

        Exposed for tests and diagnostics; :meth:`record_block` resolves
        rows internally.
        """
        return self._rows_for_block(serials)

    # -- internals --------------------------------------------------------

    def _grow(self) -> None:
        """Double both columns (first write: allocate ``initial_rows``),
        pushing the new rows onto the free list."""
        old = self.capacity
        new = max(2 * old, self._initial_rows)
        self._levels = np.concatenate(
            [self._levels, np.zeros(new - old, dtype=np.int8)])
        self._last_hours = np.concatenate(
            [self._last_hours, np.full(new - old, _NEVER, dtype=np.int64)])
        self._free.extend(range(new - 1, old - 1, -1))

    def _row_for(self, serial: str) -> int:
        """The (possibly new) row owning ``serial``."""
        row = self._rows.get(serial)
        if row is not None:
            return row
        if not self._free:
            self._grow()
        row = self._free.pop()
        self._rows[serial] = row
        return row

    def _rows_for_block(self, serials: Sequence[str]) -> np.ndarray:
        """Row index per sample, assigning rows to unseen serials."""
        rows = np.empty(len(serials), dtype=np.int64)
        lookup = self._rows
        for index, serial in enumerate(serials):
            row = lookup.get(serial)
            if row is None:
                row = self._row_for(serial)
            rows[index] = row
        return rows


class AlertBlock:
    """Struct-of-arrays verdicts for one scored block of samples.

    Holds the vectorized kernel's raw outputs — a per-failure-type stage
    matrix plus the argmin type index and the severity code per sample —
    without materializing any per-sample Python object.  :meth:`alerts`
    (all rows) and :meth:`alert_at` (one row, used for the rare alerting
    drives) rebuild :class:`~repro.core.monitor.DegradationAlert` values
    bit-identical to the scalar ``observe`` path: the rescue-clock
    inversion deliberately runs per materialized row through the scalar
    :func:`~repro.core.rescue.rescue_estimate` (numpy's vectorized
    ``pow`` is allowed to differ from libm by an ulp, so a precomputed
    remaining-hours matrix could not honor byte-identity).
    """

    __slots__ = ("serials", "hours", "stages",
                 "likely_indices", "level_codes", "types")

    def __init__(self, serials: Sequence[str], hours: np.ndarray,
                 stages: np.ndarray,
                 likely_indices: np.ndarray, level_codes: np.ndarray,
                 types: tuple) -> None:
        self.serials = list(serials)
        self.hours = hours
        self.stages = stages            # (n_types, n_samples)
        self.likely_indices = likely_indices
        self.level_codes = level_codes
        self.types = types

    def __len__(self) -> int:
        return len(self.serials)

    @property
    def n_alerting(self) -> int:
        """Samples whose severity sits above HEALTHY."""
        return int(np.count_nonzero(self.level_codes))

    def alerting_rows(self) -> np.ndarray:
        """Indices of the samples above HEALTHY (usually few)."""
        return np.flatnonzero(self.level_codes)

    def finite_stages(self) -> np.ndarray:
        """The likely-type stage per sample, finite entries only."""
        picked = self.stages[self.likely_indices,
                             np.arange(self.stages.shape[1])]
        return picked[np.isfinite(picked)]

    def level_counts(self, n_levels: int = 3) -> np.ndarray:
        """Samples per severity code, as a length-``n_levels`` vector.

        One ``bincount`` over the severity column — the shadow-scoring
        plane builds its champion/challenger confusion matrices from
        these codes without materializing a single verdict object.
        """
        return np.bincount(self.level_codes.astype(np.int64),
                           minlength=n_levels)

    def alert_at(self, row: int) -> "DegradationAlert":
        """Materialize one row as a scalar-path-identical alert."""
        from repro.core.monitor import AlertLevel, DegradationAlert
        from repro.core.rescue import rescue_estimate
        estimates = {
            failure_type: rescue_estimate(
                float(self.stages[type_index, row]), failure_type)
            for type_index, failure_type in enumerate(self.types)
        }
        likely_type = self.types[int(self.likely_indices[row])]
        return DegradationAlert(
            serial=self.serials[row],
            hour=int(self.hours[row]),
            level=AlertLevel(int(self.level_codes[row])),
            stage=estimates[likely_type].stage,
            likely_type=likely_type,
            estimates=estimates,
        )

    def alerts(self) -> list["DegradationAlert"]:
        """Materialize every row (the compatibility slow path).

        Same alerts as ``alert_at`` over every row, but with the array
        reads hoisted to whole-column ``tolist()`` conversions — the
        per-element numpy scalar overhead dominates when a caller
        really does want all N objects.
        """
        from repro.core.monitor import AlertLevel, DegradationAlert
        from repro.core.rescue import rescue_estimate
        levels = {level.value: level for level in AlertLevel}
        stage_columns = [column.tolist() for column in self.stages]
        hours = self.hours.tolist()
        likely = self.likely_indices.tolist()
        codes = self.level_codes.tolist()
        types = self.types
        out = []
        for row, serial in enumerate(self.serials):
            estimates = {
                failure_type: rescue_estimate(stage_columns[type_index][row],
                                              failure_type)
                for type_index, failure_type in enumerate(types)
            }
            likely_type = types[likely[row]]
            out.append(DegradationAlert(
                serial=serial,
                hour=hours[row],
                level=levels[codes[row]],
                stage=estimates[likely_type].stage,
                likely_type=likely_type,
                estimates=estimates,
            ))
        return out
