"""Smoke test of the benchmark itself, on toy sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Checks that an untraced and a traced run each report every metric that
BENCHMARK.json names, once and with its unit, that layer self times plus
the uncovered remainder add up to the traced wall time, and that tracing
leaves every lsgnn module attribute as it found it.
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "train-wide": workloads.Spec(nodes=120, dim=4, lambdas=(0.9, 0.1), num_layers=2, epochs=2, acc_floor=0.0,
                                 splits=2, prep_epochs=1),
    "precompute-eval": workloads.Spec(nodes=160, dim=4, lambdas=(0.9, 0.1) * 2, num_layers=2, epochs=2,
                                      acc_floor=0.0, prep_nodes=80, prep_epochs=1),
    "synth-study": workloads.Spec(nodes=100, dim=1, lambdas=(0.9, 0.1), num_layers=1, epochs=2, acc_floor=0.0,
                                  trials=20, toy_seeds=1),
}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return bench, e2e, layers


def test_declared_metrics_match_the_code():
    bench, e2e, layers = _declared()
    assert e2e == run.E2E_UNITS
    assert layers == spans.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_runs_report_every_metric_and_restore_attributes(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(run, "RUNS_DIR", str(tmp_path / "runs"))
    _, e2e, layers = _declared()
    workload = dataclasses.replace(workloads.WORKLOADS[name], spec=TOY[name])
    before = spans.snapshot_attributes()

    for traced, declared in ((False, e2e), (True, layers)):
        details, result = run.run_benchmark(workload, seed=3, seconds=0.0, traced=traced, expected={})
        line = json.loads(json.dumps(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0, details["failures"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert details["provenance"]["seed"] == 3

    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    covered = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) + metrics["trace.uncovered_s"]
    assert covered == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert metrics["cli.commands"] >= 1
    assert spans.snapshot_attributes() == before
