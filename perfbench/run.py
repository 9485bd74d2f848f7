"""Run one benchmark workload and print its metrics as JSON.

Usage::

    python3 perfbench/run.py --workload verdicts-tick --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced variant and reports the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 for a correct run, 1 when an output differed from the reference,
and 2 when the checkout holds no program to measure.

``--workload all`` runs every workload in turn and prints one line per
metric (workload, name, value, unit) before each workload's JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("throughput_samples_per_s", "samples/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

WORKLOAD_NAMES = ("verdicts-tick", "fleet-sweep", "offline-batch")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(name: str, args: argparse.Namespace) -> tuple[dict, int]:
    """Run one workload; returns its result object and exit code."""
    # Imported here: they need the checkout's src/ on the path first.
    import layers
    import procs
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        outcome = workloads.WORKLOADS[name](run)
    finally:
        procs.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in outcome.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and not outcome.problems
    units = layers.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": outcome.metrics[metric], "unit": unit}
                    for metric, unit in units},
    }
    return result, 0 if correct else 1


def main(argv: list[str]) -> int:
    """Check for a program to measure, run the workloads, print results."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    # The load generator's threads wake on their due times; a short
    # switch interval lets a waking thread take the interpreter lock
    # from a busy one promptly instead of after the default 5 ms.
    sys.setswitchinterval(0.0005)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result, code = run_one(name, args)
        status = max(status, code)
        if args.workload == "all":
            for metric, entry in result.get("metrics", {}).items():
                print(f"{name:14s} {metric:28s} {entry['value']:14.4f} "
                      f"{entry['unit']}")
        if result:
            print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
