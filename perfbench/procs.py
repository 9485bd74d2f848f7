"""Child processes of the benchmark: the daemon and the CLIs.

A child's peak resident memory is its ``VmHWM`` from ``/proc``, read
while it runs: at every poll of a child being waited for (every 2 ms)
and just before a SIGKILL.  The kernel's ``ru_maxrss`` of a reaped
child is no substitute: it also counts the pages of the parent it was
forked from, here the benchmark itself.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"

#: Longest a daemon may take to answer ``/health`` 200.
READY_TIMEOUT_S = 60.0

#: Pause between ``/health`` probes of a starting daemon.
HEALTH_POLL_S = 0.01

#: Children not yet reaped, so an aborted run can still stop them all.
_LIVE: set["Child"] = set()


def child_env() -> dict[str, str]:
    """Environment for children: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def cli_argv(cli: str, args: Sequence[str], trace_out: Path | None
             ) -> tuple[list[str], dict[str, str]]:
    """argv and environment that run ``cli`` (``serve``/``characterize``).

    With ``trace_out`` the CLI runs under the span launcher.
    """
    env = child_env()
    if trace_out is not None:
        env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        return [sys.executable, str(LAUNCHER), cli, *args], env
    module = "repro.serve.cli" if cli == "serve" else "repro.cli"
    return [sys.executable, "-m", module, *args], env


class Child:
    """A child process, its exit status and its peak resident memory."""

    def __init__(self, argv: list[str], env: dict[str, str],
                 log_path: Path) -> None:
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                     stdin=subprocess.DEVNULL,
                                     stdout=self._log, stderr=self._log)
        self.returncode: int | None = None
        self.peak_rss_mb = 0.0
        self.ended = 0.0
        _LIVE.add(self)

    def sample_memory(self) -> None:
        """Fold the child's current ``VmHWM`` into :attr:`peak_rss_mb`."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = max(self.peak_rss_mb,
                                               int(line.split()[1]) / 1024.0)
                        return
        except OSError:
            pass  # already gone

    def poll(self) -> int | None:
        """Reap the child if it has exited; returns its exit code or None."""
        if self.returncode is None:
            self.sample_memory()
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                self.ended = time.perf_counter()
                self.returncode = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.returncode
                self._log.close()
                _LIVE.discard(self)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        """Reap the child; returns its exit code."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"child {self.proc.pid} still running")
            time.sleep(0.002)
        assert self.returncode is not None
        return self.returncode

    def kill(self) -> float:
        """SIGKILL and reap; returns the time of the kill."""
        if self.returncode is None:
            self.sample_memory()
        killed = time.perf_counter()
        if self.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            self.wait(30.0)
        return killed


def kill_all() -> None:
    """SIGKILL and reap every child still running."""
    for child in list(_LIVE):
        child.kill()


def run_cli(cli: str, args: Sequence[str], log_path: Path,
            trace_out: Path | None = None, timeout: float = 170.0) -> Child:
    """Run one CLI to completion."""
    argv, env = cli_argv(cli, args, trace_out)
    child = Child(argv, env, log_path)
    try:
        child.wait(timeout)
    except TimeoutError:
        child.kill()
    return child


def import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter that imports ``module``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"],
                   env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


class Daemon:
    """One ``repro-serve daemon`` child on an ephemeral port."""

    def __init__(self, workdir: Path, name: str, args: Sequence[str],
                 trace_out: Path | None = None) -> None:
        self.workdir = workdir
        self.name = name
        self.port_file = workdir / f"{name}.port"
        self.trace_out = trace_out
        self._args = list(args)
        self.child: Child | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/health`` 200; returns the seconds it took."""
        if self.port_file.exists():
            self.port_file.unlink()
        argv, env = cli_argv(
            "serve", ["daemon", *self._args, "--port-file",
                      str(self.port_file)], self.trace_out)
        child = self.child = Child(argv, env,
                                   self.workdir / f"{self.name}.log")
        deadline = child.started + READY_TIMEOUT_S
        while not self.port_file.exists():
            self._check_alive(deadline)
            time.sleep(0.002)
        self.port = int(self.port_file.read_text().strip())
        while True:
            self._check_alive(deadline)
            try:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=5.0)
                try:
                    connection.request("GET", "/health")
                    response = connection.getresponse()
                    response.read()
                finally:
                    connection.close()
                if response.status == 200:
                    return time.perf_counter() - child.started
            except (OSError, http.client.HTTPException):
                pass
            # Gentle polling: every probe is a request the starting
            # daemon must serve while it loads or replays.
            time.sleep(HEALTH_POLL_S)

    def _check_alive(self, deadline: float) -> None:
        assert self.child is not None
        if self.child.poll() is not None:
            raise RuntimeError(
                f"daemon {self.name} exited during start-up; see "
                f"{self.workdir / (self.name + '.log')}")
        if time.perf_counter() > deadline:
            self.child.kill()
            raise RuntimeError(f"daemon {self.name} not ready in time")

    def dump_trace(self) -> None:
        """Ask a traced daemon for its span document (``SIGUSR1``)."""
        assert self.child is not None and self.trace_out is not None
        if self.trace_out.exists():
            self.trace_out.unlink()
        self.child.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not self.trace_out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon {self.name} wrote no trace")
            time.sleep(0.005)

    def drain(self) -> int:
        """``POST /drain`` and wait for a clean exit."""
        assert self.child is not None
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=10.0)
        try:
            connection.request("POST", "/drain", body=b"")
            connection.getresponse().read()
        except (OSError, http.client.HTTPException):
            pass
        finally:
            connection.close()
        try:
            return self.child.wait(60.0)
        except TimeoutError:
            self.child.kill()
            return -9

    def kill(self) -> float:
        """SIGKILL; returns the time of the kill."""
        assert self.child is not None
        return self.child.kill()

    @property
    def peak_rss_mb(self) -> float:
        assert self.child is not None
        return self.child.peak_rss_mb
