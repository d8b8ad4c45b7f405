"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload kind on 4 nodes and total_t=140 (1 epoch per train()
call, a few requests), untraced and traced, and checks that every metric
BENCHMARK.json names comes out with its unit, and that a failing output
check shows up as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TOY = {
    "train-n20": workloads.Workload("train-n20", "train", n_nodes=4, total_t=140,
                                    epochs=1, setups=2),
    "train-n300": workloads.Workload("train-n300", "train", n_nodes=4, total_t=140,
                                     epochs=1, setups=2),
    "forecast-n20": workloads.Workload("forecast-n20", "forecast", n_nodes=4,
                                       total_t=140, min_requests=6, sample_every=2,
                                       setups=2),
}
REPORTED = {
    "train": {"setup_s", "epoch_s", "val_mae", "peak_rss_mb", "error_rate"},
    "forecast": {"setup_s", "predict_ms_p50", "predict_ms_p99",
                 "predict_windows_per_s", "peak_rss_mb", "error_rate"},
}


def _run(name, trace, tmp_path):
    return workloads.run(name, seed=3, seconds=0.01, trace=trace,
                         work_root=str(tmp_path), spec=TOY[name])


@pytest.mark.parametrize("name", sorted(TOY))
def test_end_to_end_metrics_present(name, tmp_path):
    out = _run(name, False, tmp_path)
    assert out.failed == 0, out.problems
    assert out.attempted >= 1
    for m in SPEC["end_to_end"]:
        value, unit = out.metrics[m["name"]]
        assert unit == m["unit"]
        assert value > 0
    assert {r[0] for r in out.report} >= REPORTED[TOY[name].kind]
    assert all(r[2] for r in out.report)


@pytest.mark.parametrize("name", ["train-n20", "forecast-n20"])
def test_per_layer_metrics_present(name, tmp_path):
    out = _run(name, True, tmp_path)
    assert out.failed == 0, out.problems
    assert set(out.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out.metrics[m["name"]][1] == m["unit"]
    assert out.metrics["dynamics.nfe_per_forward"][0] == 16
    assert out.metrics["trace.coverage_pct"][0] >= 90
    assert out.spans and not out.absent


def test_failing_train_check_counts(tmp_path, monkeypatch):
    # An untrained MAE of 0 cannot be beaten, so every epoch fails its check.
    monkeypatch.setattr(workloads, "val_mae", lambda params, s: 0.0)
    out = _run("train-n20", False, tmp_path)
    assert out.failed == out.attempted > 0
    assert "does not beat untrained" in out.problems[0]


def test_failing_forecast_check_counts(tmp_path, monkeypatch):
    predict = workloads.training.predict
    monkeypatch.setattr(workloads.training, "predict",
                        lambda *args, **kwargs: predict(*args, **kwargs) + 1e-9)
    out = _run("forecast-n20", False, tmp_path)
    assert 0 < out.failed < out.attempted
    assert "differs from taped forward" in out.problems[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-n20",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
