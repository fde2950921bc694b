"""Shared fixtures for the benchmark's own tests.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import WORKLOADS  # noqa: E402


def shrink(name: str):
    """The named workload at a size that runs in a second or two per pass."""
    w = WORKLOADS[name]
    cfg = {section: dict(values) for section, values in w.config.items()}
    cfg["dataset"] = {"class_count": 6, "per_class": 8, "latent_dim": 4, "feature_dim": 8,
                      "aux_class_count": 6, "aux_per_class": 4, "heldout_per_class": 6}
    cfg["train"] = dict(cfg["train"], total_steps=20, hidden_dims=[8], embed_dim=6,
                        batch_speakers=min(cfg["train"]["batch_speakers"], 5))
    cfg["eval"] = {"pairs_per_kind": 30}
    return dataclasses.replace(w, config=cfg, seeds_per_run=2)


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """Seed directory of one finished tiny train-aamsc pipeline, and its config."""
    import json

    from labelnoise.cli import main

    w = shrink("train-aamsc")
    base = tmp_path_factory.mktemp("pipeline")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(w.run_config(str(base / "out"))))
    for stage in ("simulate", "train", "detect", "eval", "retrain"):
        assert main([stage, "--config", str(cfg_path), "--seed", "3", "--quiet"]) == 0
    return base / "out" / "seed_3", w.config
