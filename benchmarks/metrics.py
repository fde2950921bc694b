"""Metric definitions, the layer-to-end-to-end mapping, and span arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions listed in ``BENCHMARK.json``; a test keeps
the two in step. Each per-layer metric also records the end-to-end
metric it should move and the workload on which it should move it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

STAGE_SPAN = "cli.{}"
TRAIN_SPAN = "embedder.train"
# The data path: everything that is not training. Detection's per-utterance
# classifier calls (``losses.classify_confidence``, ``embedder.mlp_forward``
# under ``nld.embed_dataset``) count here because they run inside nld spans.
DATA_MODULES = ("nld", "synthdata", "evaluation")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    kind: str  # calls | busy | self | count | errors | derived
    spans: tuple[str, ...]
    moves: str
    on: str


END_TO_END = (
    EndToEnd("pipeline_s", "s", "lower", 0.25,
             "time of all five stages for one seed, reference seconds, median pass"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "simulate stage (generate, corrupt, write, re-read the four datasets), "
             "reference seconds, median pass"),
    EndToEnd("train_s", "s", "lower", 0.25, "train stage, reference seconds, median pass"),
    EndToEnd("detect_s", "s", "lower", 0.25, "detect stage, reference seconds, median pass"),
    EndToEnd("eval_s", "s", "lower", 0.25, "eval stage, reference seconds, median pass"),
    EndToEnd("retrain_s", "s", "lower", 0.25, "retrain stage, reference seconds, median pass"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the pass process, median pass"),
    EndToEnd("inter_precision", "fraction", "higher", 0.1,
             "inter-class detection precision at q = noise level, mean over the run's seeds"),
    EndToEnd("intra_precision", "fraction", "higher", 0.1,
             "intra-class detection precision at q = noise level, mean over the run's seeds"),
    EndToEnd("eer", "fraction", "lower", 0.25, "held-out EER, mean over the run's seeds"),
    EndToEnd("eer_retrained", "fraction", "lower", 0.25,
             "held-out EER after removal and retraining, mean over the run's seeds"),
)

_ALL = "all workloads"
_STAGES_S = "setup_s, train_s, detect_s, eval_s, retrain_s"


def _layer(name, unit, kind, spans=(), moves="", on="", better="lower"):
    return PerLayer(name, unit, better, kind, tuple(spans), moves, on)


PER_LAYER = (
    # synthdata
    _layer("synthdata.generate_dataset.busy_s", "s", "busy", ["synthdata.generate_dataset"],
           "setup_s", "detect-wide"),
    _layer("synthdata.apply_noise.busy_s", "s", "busy",
           ["synthdata.apply_permute_noise", "synthdata.apply_openset_noise"],
           "setup_s", "detect-wide"),
    _layer("synthdata.save_dataset.busy_s", "s", "busy", ["synthdata.save_dataset"],
           "setup_s", "detect-wide"),
    _layer("synthdata.load_dataset.calls", "count", "calls", ["synthdata.load_dataset"],
           _STAGES_S, "detect-wide"),
    _layer("synthdata.load_dataset.busy_s", "s", "busy", ["synthdata.load_dataset"],
           _STAGES_S, "detect-wide"),
    _layer("synthdata.bytes_written", "bytes", "count", ["synthdata.save_dataset"],
           "setup_s", "detect-wide"),
    _layer("synthdata.bytes_read", "bytes", "count", ["synthdata.load_dataset"],
           _STAGES_S, "detect-wide"),
    _layer("synthdata.errors", "count", "errors", ["synthdata"]),
    # embedder
    _layer("embedder.train.calls", "count", "calls", ["embedder.train"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.train.self_s", "s", "self", ["embedder.train"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.steps", "count", "calls", ["embedder.adam_step"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.step_us", "us", "derived", ["embedder.train", "embedder.adam_step"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.mlp_forward.busy_s", "s", "busy", ["embedder.mlp_forward"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.mlp_backward.busy_s", "s", "busy", ["embedder.mlp_backward"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.adam_step.busy_s", "s", "busy", ["embedder.adam_step"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("embedder.save_model.busy_s", "s", "busy", ["embedder.save_model"],
           "train_s, retrain_s", _ALL),
    _layer("embedder.load_model.busy_s", "s", "busy", ["embedder.load_model"],
           "train_s, detect_s, eval_s, retrain_s", _ALL),
    _layer("embedder.errors", "count", "errors", ["embedder"]),
    # losses
    _layer("losses.aamsc_loss.calls", "count", "calls", ["losses.aamsc_loss"],
           "train_s, retrain_s", "train-aamsc"),
    _layer("losses.ge2e_loss.calls", "count", "calls", ["losses.ge2e_loss"],
           "train_s, retrain_s", "ge2e-openset"),
    _layer("losses.training_loss.busy_s", "s", "busy",
           ["losses.aamsc_loss", "losses.ge2e_loss"],
           "train_s, retrain_s", "train-aamsc, ge2e-openset"),
    _layer("losses.classify_confidence.calls", "count", "calls",
           ["losses.classify_confidence"], "detect_s", "detect-wide"),
    _layer("losses.errors", "count", "errors", ["losses"]),
    # numerics
    _layer("numerics.softmax.calls", "count", "calls", ["numerics.softmax"],
           "train_s, detect_s", "train-aamsc, detect-wide"),
    _layer("numerics.softmax.busy_s", "s", "busy", ["numerics.softmax"],
           "train_s, detect_s", "train-aamsc, detect-wide"),
    _layer("numerics.log_sum_exp.calls", "count", "calls", ["numerics.log_sum_exp"],
           "train_s, retrain_s", "train-aamsc"),
    _layer("numerics.log_sum_exp.busy_s", "s", "busy", ["numerics.log_sum_exp"],
           "train_s, retrain_s", "train-aamsc"),
    _layer("numerics.errors", "count", "errors", ["numerics"]),
    # nld
    _layer("nld.embed_dataset.busy_s", "s", "busy", ["nld.embed_dataset"],
           "detect_s", "detect-wide"),
    _layer("nld.compute_centroids.busy_s", "s", "busy", ["nld.compute_centroids"],
           "detect_s", "detect-wide"),
    _layer("nld.intra_inconsistency.busy_s", "s", "busy", ["nld.intra_inconsistency"],
           "detect_s", "detect-wide"),
    _layer("nld.inter_inconsistency.busy_s", "s", "busy", ["nld.inter_inconsistency"],
           "detect_s", "detect-wide"),
    _layer("nld.inter_inconsistency.self_s", "s", "self", ["nld.inter_inconsistency"],
           "detect_s", "detect-wide"),
    _layer("nld.confidences.calls", "count", "calls",
           ["nld.ParametricClassifier.confidences", "nld.CentroidClassifier.confidences"],
           "detect_s", "detect-wide"),
    _layer("nld.confidences.busy_s", "s", "busy",
           ["nld.ParametricClassifier.confidences", "nld.CentroidClassifier.confidences"],
           "detect_s", "detect-wide"),
    _layer("nld.rank_and_select.busy_s", "s", "busy", ["nld.rank_and_select"],
           "detect_s", "detect-wide"),
    _layer("nld.export_score_histogram.busy_s", "s", "busy", ["nld.export_score_histogram"],
           "detect_s", "detect-wide"),
    _layer("nld.write_artifacts.busy_s", "s", "busy",
           ["nld.write_scores_csv", "nld.write_detection_json", "nld.write_histogram_csv"],
           "detect_s", "detect-wide"),
    _layer("nld.utterances_scored", "count", "count",
           ["nld.intra_inconsistency", "nld.inter_inconsistency"],
           "detect_s", "detect-wide", better="higher"),
    _layer("nld.errors", "count", "errors", ["nld"]),
    # evaluation
    _layer("evaluation.generate_trials.busy_s", "s", "busy", ["evaluation.generate_trials"],
           "eval_s, retrain_s", "detect-wide"),
    _layer("evaluation.score_trials.calls", "count", "calls", ["evaluation.score_trials"],
           "eval_s, retrain_s", "detect-wide"),
    _layer("evaluation.score_trials.busy_s", "s", "busy", ["evaluation.score_trials"],
           "eval_s, retrain_s", "detect-wide"),
    _layer("evaluation.compute_eer.busy_s", "s", "busy", ["evaluation.compute_eer"],
           "eval_s, retrain_s", "detect-wide"),
    _layer("evaluation.remove_predicted.busy_s", "s", "busy", ["evaluation.remove_predicted"],
           "retrain_s", "detect-wide"),
    _layer("evaluation.retrain_after_removal.self_s", "s", "self",
           ["evaluation.retrain_after_removal"], "retrain_s", "detect-wide"),
    _layer("evaluation.trials_scored", "count", "count", ["evaluation.score_trials"],
           "eval_s, retrain_s", "detect-wide", better="higher"),
    _layer("evaluation.errors", "count", "errors", ["evaluation"]),
    # jsonutil
    _layer("jsonutil.sha256_file.calls", "count", "calls", ["jsonutil.sha256_file"],
           _STAGES_S, _ALL),
    _layer("jsonutil.sha256_file.busy_s", "s", "busy", ["jsonutil.sha256_file"],
           _STAGES_S, _ALL),
    _layer("jsonutil.bytes_hashed", "bytes", "count", ["jsonutil.sha256_file"],
           _STAGES_S, _ALL),
    _layer("jsonutil.errors", "count", "errors", ["jsonutil"]),
    # cli: stage time outside every traced call (config, manifest, checks)
    *(_layer(f"cli.{stage}.self_s", "s", "self", [STAGE_SPAN.format(stage)],
             f"{'setup' if stage == 'simulate' else stage}_s", _ALL)
      for stage in ("simulate", "train", "detect", "eval", "retrain")),
    _layer("cli.errors", "count", "errors", ["cli"]),
    # the traced pass as a whole
    _layer("trace.pipeline_s", "s", "derived", moves="pipeline_s", on=_ALL),
    _layer("trace.overhead_s", "s", "derived", moves="pipeline_s", on=_ALL),
    _layer("trace.spans", "count", "derived", moves="pipeline_s", on=_ALL),
    _layer("share.training", "fraction", "derived",
           moves="train_s, retrain_s", on="train-aamsc, ge2e-openset"),
    _layer("share.nld_synthdata_evaluation", "fraction", "derived",
           moves="setup_s, detect_s, eval_s", on="detect-wide"),
)


# ----------------------------------------------------------------------
# span arithmetic; a span is (span_id, parent_id, name, start, end, error, count)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in bounds:
            lo, hi = bounds[s[1]]
            children[s[1]].append((max(s[3], lo), min(s[4], hi)))
    return {s[0]: (s[4] - s[3]) - covered(children.get(s[0], ())) for s in spans}


def layer_values(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` excepted)."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    selfs = self_times(spans)

    def of(names):
        return [s for n in names for s in by_name.get(n, ())]

    def busy(names):
        return covered((s[3], s[4]) for s in of(names))

    stage_spans = [s for s in spans if s[2].startswith("cli.") and s[1] is None]
    pipeline = sum(s[4] - s[3] for s in stage_spans)
    training = [(s[3], s[4]) for s in by_name.get(TRAIN_SPAN, ())]
    data = [(s[3], s[4]) for s in spans if s[2].split(".", 1)[0] in DATA_MODULES]

    values: dict[str, float] = {}
    for m in PER_LAYER:
        if m.kind == "calls":
            values[m.name] = len(of(m.spans))
        elif m.kind == "busy":
            values[m.name] = busy(m.spans)
        elif m.kind == "self":
            values[m.name] = sum(selfs[s[0]] for s in of(m.spans))
        elif m.kind == "count":
            values[m.name] = sum(s[6] for s in of(m.spans))
        elif m.kind == "errors":
            module = m.spans[0]
            values[m.name] = sum(1 for s in spans if s[5] and s[2].split(".", 1)[0] == module)
    steps = len(by_name.get("embedder.adam_step", ()))
    values["embedder.step_us"] = busy(["embedder.train"]) / steps * 1e6 if steps else 0.0
    values["trace.pipeline_s"] = pipeline
    values["trace.spans"] = len(spans)
    values["share.training"] = covered(training) / pipeline
    # time inside data-path calls, minus the retraining nested in them
    values["share.nld_synthdata_evaluation"] = (
        covered(data + training) - covered(training)) / pipeline
    return values
