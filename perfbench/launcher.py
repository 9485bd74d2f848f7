"""Run a ``repro`` CLI with the benchmark's span wrappers installed.

Usage::

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/launcher.py serve daemon --bundle B.json ...
    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/launcher.py characterize --simulate 600 ...

The first argument picks the CLI (``serve`` is ``repro-serve``,
``characterize`` is ``repro-characterize``); the rest is passed to its
``main``.  The span document is written to ``$PERFBENCH_TRACE_OUT``
when ``main`` returns, and again on every ``SIGUSR1`` so a caller can
collect it before it SIGKILLs the process.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import SpanLog, install_offline, install_serving  # noqa: E402


def main(argv: list[str]) -> int:
    """Install the wrappers, run the chosen CLI, write the span document."""
    if not argv or argv[0] not in ("serve", "characterize"):
        print("usage: launcher.py serve|characterize ARGS...",
              file=sys.stderr)
        return 2
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        print("launcher.py needs PERFBENCH_TRACE_OUT", file=sys.stderr)
        return 2
    log = SpanLog()
    install_serving(log)
    if argv[0] == "characterize":
        install_offline(log)
        from repro.cli import main as cli_main
    else:
        from repro.serve.cli import main as cli_main
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: log.dump(out))
    try:
        return cli_main(argv[1:])
    finally:
        log.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
