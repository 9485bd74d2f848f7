"""BENCHMARK.json agrees with what the benchmark prints and plans."""

import json
from pathlib import Path

import layers
import run
import workloads
from stats import tail_percentile

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((ROOT / "perfbench" / "trajectory.json").read_text())


def test_metric_names_and_units_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER)


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert set(workloads.TAIL_PCT) == set(names)


def test_tail_is_supported_by_the_baseline_request_count():
    # Requests in a run at the seed commit's median throughput.
    medians = RECORD["trajectory"][0]["medians"]
    for name, samples in (("verdicts-tick", workloads.TICK_SAMPLES),
                          ("fleet-sweep", workloads.SWEEP_BODY_SAMPLES)):
        requests = (medians[name]["throughput_samples_per_s"]
                    * SPEC["run_seconds"] / samples)
        assert workloads.TAIL_PCT[name] == tail_percentile(int(requests))


def test_every_layer_metric_maps_to_end_to_end_metrics():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    mapped = {}
    for entry in RECORD["layer_map"]:
        assert set(entry["moves"]) <= e2e
        for metric in entry["metrics"]:
            mapped[metric] = entry
    assert set(mapped) == {name for name, _unit in layers.PER_LAYER}


def test_baseline_covers_every_workload_and_metric():
    first = RECORD["trajectory"][0]
    assert set(first["medians"]) == {w["name"] for w in SPEC["workloads"]}
    for medians in first["medians"].values():
        assert set(medians) == {m["name"] for m in SPEC["end_to_end"]}
