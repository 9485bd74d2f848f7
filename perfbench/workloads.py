"""The four workloads: three traffic shapes on the daemon, one offline flow.

Each workload is a function of a :class:`Run` that returns a
:class:`Outcome`: the end-to-end metrics (untraced run) or the
per-layer metrics (traced run), plus how many operations were
attempted and how many failed.  An operation is an HTTP request, or a
CLI invocation for ``offline-batch``.  Every reply is checked against
an in-benchmark reference that scores the same samples with
``StreamScorer.score_block``; a mismatch counts the operation as
failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.serve.bundle import load_bundle
from repro.serve.scorer import StreamScorer, VerdictBlock

import layers
from loadgen import Reply, closed_loop, outstanding_max
from procs import ROOT, Child, Daemon, run_cli
from stats import median, percentile
from streams import (SWEEP_DRIVES, Request, Stream, SweepFleet, fixed_chunks,
                     hourly_stream, pass_serial, requests, simulate_profiles,
                     split)

#: Drives in the fleet the bundle is trained on (``repro-characterize
#: --simulate``).
BUNDLE_DRIVES = 600

#: Where serving workloads keep the bundle of each seed.
BUNDLE_CACHE = ROOT / ".perfbench_work" / "bundles"

#: Load-generator connections of the two-connection workloads: never
#: more than the machine has processors.
CONNECTIONS = min(2, os.cpu_count() or 1)

#: Samples per ``verdicts-tick`` request: one fleet hour of the serving
#: stream holds about this many.  A fixed count keeps the request shape
#: the same for every seed.
TICK_SAMPLES = 23

#: The percentile each workload reports as its tail.  Fixed per
#: workload so every run reports the same one; each is the highest
#: percentile with at least ten samples beyond it at the request count
#: the seed commit reached (about 400 for ``verdicts-tick``, 27 for
#: ``fleet-sweep``).  ``offline-batch`` runs too few CLI invocations for
#: any percentile and reports its slowest (100).
TAIL_PCT = {"verdicts-tick": 95.0, "fleet-sweep": 50.0,
            "offline-batch": 100.0}

#: ``fleet-sweep``: blocks a shard scores between WAL snapshots, body
#: size, and sweeps prepared for the closed loop (a phase that uses
#: them all ends early).
SWEEP_SNAPSHOT_BLOCKS = 4
SWEEP_BODY_SAMPLES = 4096
CLOSED_SWEEPS = 16

#: Share of the run's seconds the ``fleet-sweep`` closed loop takes.
SWEEP_CLOSED_SHARE = 1.0

#: ``verdicts-tick`` splits its closed loop between this many daemons,
#: one after the other; each gives a set-up time.
DAEMONS = 2

#: ``offline-batch``: drives each ``repro-characterize`` run simulates,
#: and the held-out stream ``score`` reads (its first samples, in hour
#: order, from that many drives of the seeded fleet).  A fixed sample
#: count keeps the work the same for every seed.  The sizes keep a run
#: near half a minute: this host's speed drifts over minutes, so runs
#: made close together spread less.
OFFLINE_DRIVES = 1000
OFFLINE_STREAM_DRIVES = 280
OFFLINE_STREAM_SAMPLES = 48_000

@dataclass
class Run:
    """What one benchmark invocation needs: seed, time, work directory."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path

    def path(self, name: str) -> Path:
        return self.workdir / name


@dataclass
class Outcome:
    """The result of one workload run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Record a failed output check (the run is then not correct)."""
        if not ok:
            self.problems.append(problem)

    def fail(self, why: str) -> None:
        """Count one failed operation; the first one's reason is kept."""
        if not self.failed:
            self.problems.append(f"first failed operation: {why}")
        self.failed += 1


# -- bundle and reference -----------------------------------------------------


def build_bundle(run: Run, name: str, drives: int = BUNDLE_DRIVES,
                 trace_out: Path | None = None) -> tuple[Path, Child]:
    """Train and export a bundle with ``repro-characterize``."""
    path = run.path(name)
    child = run_cli("characterize",
                    ["--simulate", str(drives), "--seed", str(run.seed),
                     "--no-cache", "--export-model", str(path)],
                    run.path(name + ".log"), trace_out)
    if child.returncode != 0:
        raise RuntimeError(f"repro-characterize failed; see {name}.log")
    return path, child


def serving_bundle(run: Run) -> Path:
    """The bundle the daemon serves: trained once per seed and program.

    Serving workloads do not time the training, so the bundle is kept
    under ``.perfbench_work/bundles`` keyed by the seed and a digest of
    ``src/``; another workload on the same seed reuses it.
    """
    digest = hashlib.sha256(f"{run.seed}/{BUNDLE_DRIVES}".encode())
    for source in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(source.relative_to(ROOT)).encode())
        digest.update(source.read_bytes())
    cached = BUNDLE_CACHE / f"seed-{run.seed}-{digest.hexdigest()[:16]}.json"
    if not cached.exists():
        path, _child = build_bundle(run, "bundle.json")
        BUNDLE_CACHE.mkdir(parents=True, exist_ok=True)
        scratch = cached.with_name(cached.name + f".{os.getpid()}")
        shutil.copyfile(path, scratch)
        os.replace(scratch, cached)
    return cached


class Reference:
    """Uninterrupted offline scoring of a connection's stream, per pass."""

    def __init__(self, bundle_path: Path, streams: Sequence[Stream]) -> None:
        self._bundle = load_bundle(bundle_path)
        self._streams = streams
        self._blocks: dict[tuple[int, int], VerdictBlock] = {}
        self._alerts: dict[tuple[int, int], np.ndarray] = {}

    def block(self, connection: int, pass_index: int) -> VerdictBlock:
        key = (connection, pass_index)
        if key not in self._blocks:
            stream = self._streams[connection]
            serials = [pass_serial(serial, pass_index)
                       for serial in stream.serials]
            self._blocks[key] = StreamScorer(self._bundle).score_block(
                serials, stream.hours, stream.matrix)
        return self._blocks[key]

    def alert_prefix(self, connection: int, pass_index: int) -> np.ndarray:
        """Cumulative alert count per row (for range counts)."""
        key = (connection, pass_index)
        if key not in self._alerts:
            block = self.block(connection, pass_index)
            flags = np.zeros(len(block), dtype=np.int64)
            flags[block.alerting_rows()] = 1
            self._alerts[key] = np.concatenate(([0], np.cumsum(flags)))
        return self._alerts[key]

    def summary(self, connection: int, request: Request) -> dict[str, int]:
        """The ``{"accepted", "alerts"}`` reply ``request`` must get."""
        prefix = self.alert_prefix(connection, request.pass_index)
        rows = request.rows
        return {"accepted": len(rows),
                "alerts": int(prefix[rows.stop] - prefix[rows.start])}

    def body(self, connection: int, request: Request) -> bytes:
        """The ``?verdicts=all`` reply body ``request`` must get."""
        block = self.block(connection, request.pass_index)
        return "".join(block.verdict_at(row).to_json_line() + "\n"
                       for row in request.rows).encode("utf-8")

    def alert_lines(self, connection: int, request: Request) -> list[str]:
        """The alert-sink lines the samples of ``request`` must produce."""
        block = self.block(connection, request.pass_index)
        rows = request.rows
        return [block.verdict_at(int(row)).to_json_line()
                for row in block.alerting_rows()
                if rows.start <= row < rows.stop]


def check_summaries(replies: Iterable[Reply], reference: Reference,
                    outcome: Outcome) -> None:
    """Count every reply whose summary differs from the reference."""
    for reply in replies:
        outcome.attempted += 1
        if not reply.ok:
            outcome.fail(_failure(reply))
            continue
        try:
            got = json.loads(reply.body)
        except ValueError:
            got = None
        if got != reference.summary(reply.connection, reply.request):
            outcome.fail(f"{reply.request.batch}: summary {got} differs")


def check_bodies(replies: Iterable[Reply], reference: Reference,
                 outcome: Outcome) -> None:
    """Count every reply whose verdict lines differ from the reference."""
    for reply in replies:
        outcome.attempted += 1
        if not reply.ok:
            outcome.fail(_failure(reply))
        elif reply.body != reference.body(reply.connection, reply.request):
            outcome.fail(f"{reply.request.batch}: verdict lines differ")


def _failure(reply: Reply) -> str:
    return (f"{reply.request.batch}: HTTP {reply.status} "
            f"{reply.error or reply.body[:200]!r}")


def read_lines(path: Path) -> list[str]:
    """Lines of a text file (none when it does not exist)."""
    if not path.exists():
        return []
    return path.read_text(encoding="utf-8").splitlines()


def expected_alerts(replies: Iterable[Reply],
                    reference: Reference) -> list[str]:
    return sorted(line for reply in replies if reply.ok
                  for line in reference.alert_lines(reply.connection,
                                                    reply.request))


def wait_for_lines(path: Path, count: int, timeout: float = 10.0) -> None:
    """Wait until the alert sink has written ``count`` lines."""
    deadline = time.monotonic() + timeout
    while len(read_lines(path)) < count and time.monotonic() < deadline:
        time.sleep(0.01)


# -- shared serving steps --------------------------------------------------------


def stop(server: Daemon) -> None:
    """SIGKILL a daemon nothing more is needed from (after its trace)."""
    if server.trace_out is not None:
        server.dump_trace()
    server.kill()


def recover(crashed: Daemon, restarted: Daemon) -> float:
    """SIGKILL ``crashed``, start ``restarted`` on its state.

    Returns the SIGKILL-to-``/health``-200 time; ``restarted`` is left
    running.
    """
    if crashed.trace_out is not None:
        crashed.dump_trace()
    killed = crashed.kill()
    restarted.start()
    return time.perf_counter() - killed


def _acked(replies: Iterable[Reply]) -> int:
    return sum(reply.request.n_samples for reply in replies if reply.ok)


def _latency_metrics(replies: Sequence[Reply], workload: str
                     ) -> dict[str, float]:
    latencies = [reply.latency_s * 1000.0 for reply in replies]
    return {"latency_p50_ms": percentile(latencies, 50.0),
            "latency_tail_ms": percentile(latencies, TAIL_PCT[workload])}


def _late_p99_ms(replies: Sequence[Reply]) -> float:
    return percentile([reply.late_s * 1000.0 for reply in replies], 99.0)


@dataclass(frozen=True)
class Shape:
    """How ``verdicts-tick`` talks to the daemon."""

    name: str
    daemon_args: Callable[[Run, str], list[str]]
    path: str
    content_type: str
    jsonl: bool
    chunker: Callable[[Stream], list[range]]


def tick_args(run: Run, tag: str) -> list[str]:
    return ["--shards", "1"]


TICK = Shape("verdicts-tick", tick_args,
             "/ingest?format=jsonl&verdicts=all", "application/jsonl",
             True, lambda stream: fixed_chunks(0, len(stream), TICK_SAMPLES))


@dataclass
class Session:
    """One daemon's set-up time and closed loop."""

    server: Daemon
    setup: float
    replies: list[Reply]
    wall: float


def run_shape(run: Run, shape: Shape) -> Outcome:
    """``verdicts-tick``: a closed loop on two daemons in turn.

    Each caller waits for its reply before it sends the next tick, so
    the latency is the closed loop's.  A fixed-rate open loop at half
    this capacity measured only a few milliseconds per request, which
    other tenants of the host moved by up to 60% from one run to the
    next.
    """
    outcome = Outcome()
    bundle = serving_bundle(run)
    streams = split(hourly_stream(simulate_profiles(run.seed)), CONNECTIONS)
    chunks = [shape.chunker(stream) for stream in streams]
    reference = Reference(bundle, streams)

    def daemon(tag: str, traced: bool, state: str | None = None) -> Daemon:
        return Daemon(run.workdir, tag,
                      ["--bundle", str(bundle),
                       *shape.daemon_args(run, state or tag)],
                      run.path(f"trace-{tag}.json") if traced else None)

    def session(tag: str, traced: bool, seconds: float) -> Session:
        """Start a daemon and drive it; the daemon is left running."""
        server = daemon(tag, traced)
        setup = server.start()
        replies, wall = closed_loop(
            server.port,
            [requests(stream, chunks[index], connection=index,
                      jsonl=shape.jsonl)
             for index, stream in enumerate(streams)],
            path=shape.path, content_type=shape.content_type,
            seconds=seconds)
        check_bodies(replies, reference, outcome)
        return Session(server, setup, replies, wall)

    if run.trace:
        # One traced daemon, its untraced twin for the overhead, then a
        # crash and a restart on the traced daemon's state.
        untraced = session("untraced", False, run.seconds)
        stop(untraced.server)
        traced = session("traced", True, run.seconds)
        restarted = daemon("restart", True, state="traced")
        recovery = recover(traced.server, restarted)
        stop(restarted)
        outcome.metrics = layers.serving(
            traced.replies, traced.wall,
            closed=layers.load(run.path("trace-traced.json")),
            restart=layers.load(run.path("trace-restart.json")),
            recovery_s=recovery,
            baseline_throughput=_acked(untraced.replies) / untraced.wall,
            gen_late_ms_p99=_late_p99_ms(traced.replies),
            gen_outstanding_max=outstanding_max(traced.replies))
        return outcome
    sessions = []
    for index in range(DAEMONS):
        sessions.append(session(f"d{index}", False, run.seconds / DAEMONS))
        stop(sessions[-1].server)
    replies = [reply for done in sessions for reply in done.replies]
    outcome.metrics = {
        "throughput_samples_per_s": (_acked(replies)
                                     / sum(done.wall for done in sessions)),
        **_latency_metrics(replies, shape.name),
        "setup_s": median([done.setup for done in sessions]),
        "peak_rss_mb": max(done.server.peak_rss_mb for done in sessions),
    }
    return outcome


def verdicts_tick(run: Run) -> Outcome:
    return run_shape(run, TICK)


# -- fleet-sweep ----------------------------------------------------------------


def fleet_sweep(run: Run) -> Outcome:
    """Fleet-wide sweeps: state size, snapshots, crash recovery."""
    outcome = Outcome()
    bundle = serving_bundle(run)
    fleet = SweepFleet(simulate_profiles(run.seed))

    def daemon(tag: str, traced: bool, state: str | None = None) -> Daemon:
        return Daemon(run.workdir, tag,
                      ["--bundle", str(bundle), "--shards", "2",
                       "--wal-dir", str(run.path(f"wal-{state or tag}")),
                       "--snapshot-interval-blocks",
                       str(SWEEP_SNAPSHOT_BLOCKS),
                       "--alert-sink",
                       f"jsonl:{run.path(f'alerts-{tag}.jsonl')}"],
                      run.path(f"trace-{tag}.json") if traced else None)

    stream = fleet.sweep_stream(0, min(fleet.max_sweeps, CLOSED_SWEEPS))
    chunks = fixed_chunks(0, len(stream), SWEEP_BODY_SAMPLES)
    reference = Reference(bundle, [stream])

    def closed(tag: str, traced: bool
               ) -> tuple[Daemon, float, list[Reply], float]:
        server = daemon(tag, traced)
        setup = server.start()
        replies, wall = closed_loop(
            server.port,
            [requests(stream, chunks, connection=0, jsonl=False, passes=1)],
            path="/ingest", content_type="application/json",
            seconds=run.seconds * SWEEP_CLOSED_SHARE)
        check_summaries(replies, reference, outcome)
        sink = run.path(f"alerts-{tag}.jsonl")
        wanted = expected_alerts(replies, reference)
        wait_for_lines(sink, len(wanted))
        outcome.check(sorted(read_lines(sink)) == wanted,
                      f"{tag}: alert sink differs from the reference")
        stop(server)
        return server, setup, replies, wall

    baseline_throughput = 0.0
    if run.trace:
        _server, _setup, replies, wall = closed("untraced", False)
        baseline_throughput = _acked(replies) / wall
    closed_server, closed_setup, closed_replies, closed_wall = closed(
        "closed", run.trace)

    # Recovery: one sweep, crash and restart on the same WAL, then the
    # next sweep; its first body asks for every verdict back.
    recovery_stream = fleet.sweep_stream(0, 2)
    recovery_reference = Reference(bundle, [recovery_stream])

    def send(server: Daemon, first: int, stop_row: int, path: str,
             name: int) -> list[Reply]:
        # ``name`` keeps batch ids apart from the crashed daemon's: the
        # WAL answers a repeated id from its exactly-once cache.
        replies, _wall = closed_loop(
            server.port,
            [requests(recovery_stream,
                      fixed_chunks(first, stop_row, SWEEP_BODY_SAMPLES),
                      connection=name, jsonl=False, passes=1)],
            path=path, content_type="application/json", seconds=120.0)
        return replies

    crashed = daemon("crashed", run.trace)
    crashed_setup = crashed.start()
    check_summaries(send(crashed, 0, SWEEP_DRIVES, "/ingest", 0),
                    recovery_reference, outcome)
    restarted = daemon("restart", run.trace, state="crashed")
    recovery = recover(crashed, restarted)
    check_bodies(send(restarted, SWEEP_DRIVES,
                      SWEEP_DRIVES + SWEEP_BODY_SAMPLES,
                      "/ingest?verdicts=all", 1),
                 recovery_reference, outcome)
    check_summaries(send(restarted, SWEEP_DRIVES + SWEEP_BODY_SAMPLES,
                         2 * SWEEP_DRIVES, "/ingest", 2),
                    recovery_reference, outcome)
    stop(restarted)

    if run.trace:
        outcome.metrics = layers.serving(
            closed_replies, closed_wall,
            closed=layers.load(run.path("trace-closed.json")),
            restart=layers.load(run.path("trace-restart.json")),
            recovery_s=recovery,
            baseline_throughput=baseline_throughput,
            gen_late_ms_p99=_late_p99_ms(closed_replies),
            gen_outstanding_max=outstanding_max(closed_replies))
        return outcome
    outcome.metrics = {
        "throughput_samples_per_s": _acked(closed_replies) / closed_wall,
        **_latency_metrics(closed_replies, "fleet-sweep"),
        "setup_s": median([closed_setup, crashed_setup]),
        "peak_rss_mb": max(closed_server.peak_rss_mb, crashed.peak_rss_mb),
    }
    return outcome


# -- offline-batch ----------------------------------------------------------------


def write_stream_csv(path: Path, stream: Stream,
                     attributes: Sequence[str]) -> None:
    """The ``serial,hour,<attributes>`` CSV ``repro-serve score`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(["serial", "hour", *attributes]) + "\n")
        for serial, hour, values in zip(stream.serials, stream.hours,
                                        stream.matrix.tolist()):
            handle.write(f"{serial},{hour},"
                         + ",".join(repr(value) for value in values) + "\n")


def offline_batch(run: Run) -> Outcome:
    """The analyst's flow: ``repro-characterize``, then ``repro-serve score``.

    Two flows each train a bundle and score the held-out stream with
    it; a flow's latency is its ``repro-characterize`` wall time plus
    its ``score`` wall time.  Three header-only ``score`` runs give the
    set-up time.  Both bundles must have the same hash.
    """
    outcome = Outcome()
    stream = hourly_stream(simulate_profiles(
        run.seed, n_drives=OFFLINE_STREAM_DRIVES))
    stream = stream.subset(list(range(min(len(stream),
                                          OFFLINE_STREAM_SAMPLES))))
    csv_path = run.path("stream.csv")
    empty_path = run.path("empty.csv")
    children: list[Child] = []
    expected: list[str] = []

    def wall(child: Child) -> float:
        return child.ended - child.started

    def score_argv(name: str, bundle: Path, source: Path) -> list[str]:
        return ["score", "--bundle", str(bundle), "--input", str(source),
                "--output", str(run.path(f"{name}.jsonl"))]

    def score(name: str, bundle: Path, source: Path,
              trace_out: Path | None = None) -> Child:
        child = run_cli("serve", score_argv(name, bundle, source),
                        run.path(f"{name}.log"), trace_out)
        children.append(child)
        outcome.attempted += 1
        wanted = expected if source == csv_path else []
        if child.returncode != 0:
            outcome.fail(f"{name}: exit {child.returncode}")
        elif read_lines(run.path(f"{name}.jsonl")) != wanted:
            outcome.fail(f"{name}: verdict lines differ")
        return child

    flows = 1 if run.trace else 2
    bundles: list[Path] = []
    flow_walls: list[float] = []
    score_walls: list[float] = []
    for index in range(flows):
        traced = run.trace
        path, characterized = build_bundle(
            run, f"bundle-{index}.json", OFFLINE_DRIVES,
            run.path("trace-characterize.json") if traced else None)
        children.append(characterized)
        outcome.attempted += 1
        bundles.append(path)
        if index == 0:
            bundle = load_bundle(path)
            write_stream_csv(csv_path, stream, bundle.attributes)
            write_stream_csv(empty_path, stream.subset([]), bundle.attributes)
            expected = StreamScorer(bundle).score_block(
                stream.serials, stream.hours, stream.matrix).to_json_lines()
        if traced:
            scored = score("score-traced", path, csv_path,
                           run.path("trace-score.json"))
        else:
            scored = score(f"score-{index}", path, csv_path)
        flow_walls.append(wall(characterized) + wall(scored))
        score_walls.append(wall(scored))
    outcome.check(len({json.loads(path.read_text())["content_sha256"]
                       for path in bundles}) == 1,
                  "bundle sha256 differs between runs")

    if run.trace:
        untraced = score("score-untraced", bundles[0], csv_path)
        outcome.metrics = layers.offline(
            characterize=layers.load(run.path("trace-characterize.json")),
            score=layers.load(run.path("trace-score.json")),
            score_wall=score_walls[0],
            overhead_ratio=wall(untraced) / score_walls[0])
        return outcome

    setups = [wall(score(f"empty-{index}", bundles[0], empty_path))
              for index in range(3)]
    outcome.metrics = {
        "throughput_samples_per_s": len(stream) / median(score_walls),
        "latency_p50_ms": median(flow_walls) * 1000.0,
        "latency_tail_ms": max(flow_walls) * 1000.0,
        "setup_s": median(setups),
        "peak_rss_mb": max(child.peak_rss_mb for child in children),
    }
    return outcome


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "verdicts-tick": verdicts_tick,
    "fleet-sweep": fleet_sweep,
    "offline-batch": offline_batch,
}
