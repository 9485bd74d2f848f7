"""Run workloads over several seeds; print each metric's median and spread.

Usage::

    python3 perfbench/spread.py --workload fleet-sweep --seeds 1-10 --seconds 10
    python3 perfbench/spread.py --workload all --seeds 1-10 --json out.json

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; a
metric is steady enough when it stays within its bound in
``BENCHMARK.json``.  ``--json`` writes every run's metrics and the
medians, the form ``trajectory.json`` records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    """``1-10`` or ``1,4,9``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = ([workload["name"] for workload in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    record: dict[str, dict] = {}
    status = 0
    for name in names:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            runs.append({"seed": seed, **{
                metric: entry["value"]
                for metric, entry in result["metrics"].items()}})
        medians = {}
        for metric in bounds:
            values = [run[metric] for run in runs]
            if len(values) < 2:
                continue
            middle = statistics.median(values)
            low, _mid, high = statistics.quantiles(values, n=4)
            spread = (high - low) / middle
            medians[metric] = middle
            flag = "" if spread <= bounds[metric] else "  over bound"
            print(f"{name:14s} {metric:26s} median {middle:12.4f}  "
                  f"spread {spread:6.3f} (bound {bounds[metric]}){flag}")
        record[name] = {"medians": medians, "runs": runs}
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
