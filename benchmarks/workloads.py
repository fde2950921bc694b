"""The benchmark's workloads: one pipeline config each, and why it exists.

Every workload is a closed loop with one caller: a single process runs
simulate, train, detect, eval and retrain for one pipeline seed, each
stage starting after the previous one completes. A benchmark run covers
``seeds_per_run`` pipeline seeds derived from the benchmark seed, so the
quality metrics are means over several datasets rather than one draw.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("simulate", "train", "detect", "eval", "retrain")

_AAMSC = {"kind": "aamsc", "scale": 30.0, "margin": 0.1, "subcenters": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    seeds_per_run: int

    def pipeline_seeds(self, bench_seed: int) -> list[int]:
        """Disjoint blocks of pipeline seeds, one block per benchmark seed."""
        return [bench_seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]

    def run_config(self, output_dir: str) -> dict:
        return {"output_dir": output_dir, **self.config}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-aamsc",
            why="README config (C=50x40, permute 20%, AAMSC K=3) at 1500 steps: "
                "embedder and losses dominate, detection and I/O barely run",
            config={
                "dataset": {"class_count": 50, "per_class": 40,
                            "latent_dim": 8, "feature_dim": 20},
                "noise": {"kind": "permute", "level_q": 20.0},
                "train": {"loss": _AAMSC, "total_steps": 1500, "batch_speakers": 50},
                "eval": {"pairs_per_kind": 2000},
            },
            seeds_per_run=5,
        ),
        Workload(
            name="detect-wide",
            why="C=200x40 open-set 50%, 200 AAMSC steps, 20k pairs per kind: "
                "per-utterance scoring, JSONL I/O and trials dominate, training is small",
            config={
                "dataset": {"class_count": 200, "per_class": 40,
                            "latent_dim": 16, "feature_dim": 20,
                            "aux_class_count": 200, "aux_per_class": 40,
                            "heldout_per_class": 20},
                "noise": {"kind": "open_set", "level_q": 50.0},
                "train": {"loss": _AAMSC, "total_steps": 200, "batch_speakers": 50},
                "eval": {"pairs_per_kind": 20000},
            },
            seeds_per_run=4,
        ),
        Workload(
            name="ge2e-openset",
            why="C=50x40 open-set 50%, GE2E 16 speakers x 4 utts, 2000 steps: "
                "grouped sampling, contrastive loss and the centroid classifier",
            config={
                "dataset": {"class_count": 50, "per_class": 40,
                            "latent_dim": 8, "feature_dim": 20},
                "noise": {"kind": "open_set", "level_q": 50.0},
                "train": {"loss": {"kind": "ge2e"}, "total_steps": 2000,
                          "batch_speakers": 16, "utts_per_speaker": 4},
                "eval": {"pairs_per_kind": 2000},
            },
            seeds_per_run=5,
        ),
    )
}
