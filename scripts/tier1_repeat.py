#!/usr/bin/env python
"""Flake sweep: run the tier-1 suite K times and count failures per test.

Run from the repository root::

   python scripts/tier1_repeat.py 5
   python scripts/tier1_repeat.py 5 -- tests/test_serve_scorer.py -k thread

Each iteration runs the tier-1 command (``python -m pytest -q`` with
``src`` on ``PYTHONPATH``) without ``-x``, so one failure does not hide
the others, and collects the ``FAILED`` / ``ERROR`` ids from pytest's
short summary.  Arguments after ``--`` are passed to pytest instead of
the default (whole suite).  Prints one ``failures/K  test-id`` line per
test that failed at least once, then a summary line; exits 1 when any
iteration failed, 0 when every run was green.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def failed_ids(output: str) -> list[str]:
    """Test ids named in pytest's ``-rfE`` short summary."""
    ids = []
    for line in output.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                ids.append(line[len(prefix):].split(" - ", 1)[0].strip())
    return ids


def run_once(pytest_args: list[str]) -> tuple[int, list[str]]:
    """One tier-1 run: (pytest exit code, failing test ids)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH", "")) if part)
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE",
         "-p", "no:cacheprovider", *pytest_args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    return completed.returncode, failed_ids(completed.stdout)


def main(argv: list[str]) -> int:
    if not argv or not argv[0].isdigit() or int(argv[0]) < 1:
        sys.stderr.write("usage: tier1_repeat.py K [-- PYTEST_ARGS...]\n")
        return 2
    runs = int(argv[0])
    rest = argv[1:]
    pytest_args = rest[1:] if rest[:1] == ["--"] else rest
    counts: Counter[str] = Counter()
    red_runs = 0
    for index in range(1, runs + 1):
        code, ids = run_once(pytest_args)
        red_runs += code != 0
        counts.update(ids)
        sys.stdout.write(f"run {index}/{runs}: exit {code}, "
                         f"{len(ids)} failing\n")
        sys.stdout.flush()
    for test_id, failures in sorted(counts.items(),
                                    key=lambda item: (-item[1], item[0])):
        sys.stdout.write(f"{failures}/{runs}  {test_id}\n")
    sys.stdout.write(f"{red_runs}/{runs} runs failed, "
                     f"{len(counts)} distinct failing tests\n")
    return 1 if red_runs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
