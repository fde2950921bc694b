"""Smoke passes of every workload at reduced size, and the benchmark's contract."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import metrics
import run
from conftest import BENCH, ROOT, shrink
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke_run(name):
    lines: list[str] = []
    result = run.run_benchmark(shrink(name), 1, 0.0, False, log=lines.append)
    assert result is not None, lines
    assert result["correct"] and result["failed"] == 0, lines
    # 3 passes (2 seeds + 1 rerun) x (5 stages + 5 checks) + 1 rerun comparison
    assert result["attempted"] == 31
    assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}
    for m in metrics.END_TO_END:
        value = result["metrics"][m.name]
        assert value["unit"] == m.unit
        assert math.isfinite(value["value"]) and value["value"] > 0, m.name
    assert not list((ROOT / run.WORK_DIR).glob(f"{name}-1-*"))  # work files removed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run(name):
    lines: list[str] = []
    result = run.run_benchmark(shrink(name), 0, 0.0, True, log=lines.append)
    assert result is not None and result["correct"], lines
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == {m.name for m in metrics.PER_LAYER}
    ge2e = WORKLOADS[name].config["train"]["loss"]["kind"] == "ge2e"
    assert values["losses.ge2e_loss.calls"] == (40 if ge2e else 0)
    assert values["losses.aamsc_loss.calls"] == (0 if ge2e else 40)
    assert (values["losses.classify_confidence.calls"] > 0) != ge2e
    assert values["nld.confidences.calls"] == 48  # one per utterance
    assert values["synthdata.load_dataset.calls"] == 9
    assert values["embedder.steps"] == 40
    for m in metrics.PER_LAYER:
        if m.unit == "s" and m.name != "trace.overhead_s":
            assert values[m.name] > 0, m.name
        if m.name.endswith(".errors"):
            assert values[m.name] == 0, m.name
    assert 0 < values["share.training"] < 1
    assert 0 < values["share.nld_synthdata_evaluation"] < 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert spec["paths"] == ["benchmarks"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train-aamsc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
