"""Seeded sample streams and the request bodies built from them.

Every input the benchmark sends is derived from ``--seed`` through the
repository's fleet simulator, so the same seed gives byte-identical
bodies.  The daemon only ever sees the bodies; the seed never reaches
it.

A *stream* is a list of samples ``(serial, hour, values)`` in the
order a collector would send them.  Drives are split between the
load generator's connections by serial, so each drive's samples stay
in hour order on one connection.  When a closed loop outruns the
stream it starts a new *pass*: the same samples under new serials
(``<serial>.p<k>``), which the daemon treats as new drives.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet

#: Fleet size and failure share of the serving streams: about 200
#: drives, 40 of them failing, so alerts appear at a realistic rate.
STREAM_DRIVES = 200
STREAM_FAILURE_RATE = 0.2


def stream_seed(seed: int) -> int:
    """The simulator seed of the held-out stream for benchmark ``seed``.

    Distinct from the seed the bundle is trained with, so the stream is
    data the model has not seen.
    """
    return 7_919 * seed + 104_729


@dataclass
class Stream:
    """Samples in send order, as parallel columns."""

    serials: list[str]
    hours: list[int]
    matrix: np.ndarray
    _values_json: list[str] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.serials)

    def values_json(self, row: int) -> str:
        """The JSON array of one sample's values (cached)."""
        if not self._values_json:
            self._values_json = [json.dumps(values)
                                 for values in self.matrix.tolist()]
        return self._values_json[row]

    def subset(self, rows: list[int]) -> "Stream":
        """The samples at ``rows``, in that order."""
        return Stream([self.serials[row] for row in rows],
                      [self.hours[row] for row in rows],
                      self.matrix[rows])


def simulate_profiles(seed: int, n_drives: int = STREAM_DRIVES,
                      failure_rate: float = STREAM_FAILURE_RATE
                      ) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``(serial, hours, matrix)`` per drive of a seeded simulated fleet."""
    dataset = simulate_fleet(FleetConfig(
        n_drives=n_drives, seed=stream_seed(seed),
        failure_rate=failure_rate)).dataset
    return [(profile.serial, np.asarray(profile.hours, dtype=np.int64),
             np.asarray(profile.matrix, dtype=np.float64))
            for profile in dataset.profiles]


def hourly_stream(profiles: list[tuple[str, np.ndarray, np.ndarray]]
                  ) -> Stream:
    """Every sample of every drive, ordered by ``(hour, serial)``."""
    keyed = sorted((int(hour), serial, index, row)
                   for index, (serial, hours, _matrix) in enumerate(profiles)
                   for row, hour in enumerate(hours))
    serials = [serial for _hour, serial, _index, _row in keyed]
    hours = [hour for hour, _serial, _index, _row in keyed]
    matrix = np.vstack([profiles[index][2][row]
                        for _hour, _serial, index, row in keyed])
    return Stream(serials, hours, matrix)


def connection_of(serial: str, n_connections: int) -> int:
    """The connection that carries ``serial`` (stable across runs)."""
    return zlib.crc32(serial.encode("utf-8")) % n_connections


def split(stream: Stream, n_connections: int) -> list[Stream]:
    """One sub-stream per connection, each in the original order."""
    rows: list[list[int]] = [[] for _ in range(n_connections)]
    for row, serial in enumerate(stream.serials):
        rows[connection_of(serial, n_connections)].append(row)
    return [stream.subset(part) for part in rows]


def pass_serial(serial: str, pass_index: int) -> str:
    """``serial`` as sent in pass ``pass_index`` (pass 0 is unchanged)."""
    return serial if pass_index == 0 else f"{serial}.p{pass_index}"


# -- bodies ------------------------------------------------------------------


def json_document(stream: Stream, rows: range, pass_index: int) -> bytes:
    """``{"samples": [[serial, hour, values], ...]}`` for ``rows``."""
    parts = [f'["{pass_serial(stream.serials[row], pass_index)}", '
             f'{stream.hours[row]}, {stream.values_json(row)}]'
             for row in rows]
    return ('{"samples": [' + ", ".join(parts) + "]}").encode("utf-8")


def jsonl_lines(stream: Stream, rows: range, pass_index: int) -> bytes:
    """One ``{"serial", "hour", "values"}`` object per line for ``rows``."""
    return "".join(
        f'{{"serial": "{pass_serial(stream.serials[row], pass_index)}", '
        f'"hour": {stream.hours[row]}, '
        f'"values": {stream.values_json(row)}}}\n'
        for row in rows).encode("utf-8")


@dataclass(frozen=True)
class Request:
    """One request a connection sends."""

    batch: str
    body: bytes
    rows: range
    pass_index: int

    @property
    def n_samples(self) -> int:
        return len(self.rows)


def fixed_chunks(first: int, stop: int, size: int) -> list[range]:
    """Rows ``first .. stop-1`` in ranges of ``size`` (the last may be short)."""
    return [range(start, min(start + size, stop))
            for start in range(first, stop, size)]


def requests(stream: Stream, chunks: list[range], *, connection: int,
             jsonl: bool, passes: int | None = None) -> Iterator[Request]:
    """The requests of one connection, pass after pass.

    ``passes=None`` repeats without end; the closed loop stops at its
    deadline.
    """
    encode = jsonl_lines if jsonl else json_document
    pass_index = 0
    sequence = 0
    while passes is None or pass_index < passes:
        for rows in chunks:
            yield Request(f"c{connection}-{sequence}",
                          encode(stream, rows, pass_index), rows, pass_index)
            sequence += 1
        pass_index += 1


# -- fleet sweeps ------------------------------------------------------------

#: Distinct drives in a fleet sweep: clones of the seeded profiles
#: (seven 4096-sample bodies per sweep).
SWEEP_DRIVES = 28_672

#: Clones start their profiles at one of this many row offsets, so the
#: clones of one profile do not send identical values.
SWEEP_OFFSETS = 8


class SweepFleet:
    """A large fleet made of re-serialed clones of seeded profiles.

    Drive ``d`` is clone ``d // n_profiles`` of profile ``d % n_profiles``;
    sweep ``k`` sends, for every drive, the profile row
    ``k + clone % SWEEP_OFFSETS``.
    """

    def __init__(self, profiles: list[tuple[str, np.ndarray, np.ndarray]],
                 n_drives: int = SWEEP_DRIVES) -> None:
        self.n_drives = n_drives
        drives = np.arange(n_drives)
        self._profile = drives % len(profiles)
        self._offset = (drives // len(profiles)) % SWEEP_OFFSETS
        self.serials = [f"{profiles[profile][0]}-c{drive // len(profiles):04d}"
                        for drive, profile in enumerate(self._profile)]
        self.max_sweeps = (min(len(hours) for _serial, hours, _matrix
                               in profiles) - SWEEP_OFFSETS)
        rows = self.max_sweeps + SWEEP_OFFSETS
        self._hours = np.stack([hours[:rows] for _serial, hours, _matrix
                                in profiles])
        self._values = np.stack([matrix[:rows] for _serial, _hours, matrix
                                 in profiles])
        self._values_json = [[json.dumps(row) for row in matrix]
                             for matrix in self._values.tolist()]

    def sweep_stream(self, first: int, count: int) -> Stream:
        """Sweeps ``first .. first+count-1`` as one ordered stream."""
        if first + count > self.max_sweeps:
            raise ValueError(f"only {self.max_sweeps} sweeps available")
        profiles = np.tile(self._profile, count)
        rows = (np.repeat(np.arange(first, first + count), self.n_drives)
                + np.tile(self._offset, count))
        values_json = [self._values_json[profile][row]
                       for profile, row in zip(profiles.tolist(),
                                               rows.tolist())]
        return Stream(self.serials * count,
                      self._hours[profiles, rows].tolist(),
                      self._values[profiles, rows], values_json)
