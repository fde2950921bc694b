"""Command-line pipeline: simulate -> train -> detect -> eval -> retrain -> report.

Each run is driven by a JSON config file and a list of seeds. Artifacts
land under ``<output_dir>/seed_<s>/``; a resolved copy of the config is
written to ``<output_dir>/config.json`` and every command updates a
per-seed ``manifest.json`` with artifact hashes and wall-clock timings.
Given the same config and seed, artifact files are byte-identical across
reruns (manifest timings excepted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import reprlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .embedder import TrainConfig, load_model, save_model, train, write_loss_curve
from .errors import ConfigurationError, LabelNoiseError
from .evaluation import (
    compute_eer,
    generate_trials,
    retrain_after_removal,
    score_trials,
    write_eer_json,
    write_retrain_json,
    write_trials_csv,
)
from .jsonutil import (
    digest_config,
    json_field,
    read_json,
    sha256_file,
    write_json17,
    write_text,
)
from .losses import LOSS_KINDS, GE2EConfig
from .nld import (
    DEFAULT_CENTROID_TEMPERATURE,
    METHOD_INTER,
    METHOD_INTRA,
    compute_centroids,
    detection_precision,
    embed_dataset,
    export_score_histogram,
    inter_inconsistency,
    intra_inconsistency,
    make_inter_classifier,
    rank_and_select,
    write_detection_json,
    write_histogram_csv,
    write_scores_csv,
)
from .seeding import derive_seed
from .synthdata import (
    DEFAULT_WITHIN_CLASS_SPREAD,
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
    load_dataset,
    save_dataset,
)

logger = logging.getLogger(__name__)

CONFIG_FORMAT_VERSION = 1
MANIFEST_FORMAT_VERSION = 1
DEFAULT_SEEDS = (0, 2)
METHODS = (METHOD_INTRA, METHOD_INTER)


# ----------------------------------------------------------------------
# config resolution


_TRAIN = {f.name: f.default for f in dataclasses.fields(TrainConfig)}

# Per section: key -> (JSON kind, default, minimum). A callable default is
# computed from the fields read before it; a None default also admits null.
# Checks that are not a one-field bound stay in resolve_config.
SECTIONS = {
    "dataset": {
        "class_count": (int, 50, 2),
        "per_class": (int, 40, 2),
        "latent_dim": (int, 8, 1),
        "feature_dim": (int, 20, 1),
        "within_class_spread": (float, DEFAULT_WITHIN_CLASS_SPREAD, 0),
        "aux_class_count": (int, lambda got: got["class_count"], 2),
        "aux_per_class": (int, 40, 2),
        "heldout_per_class": (int, 10, 2),
    },
    "noise": {"kind": (str, None, None), "level_q": (float, 0.0, None)},
    "train": {
        "loss": (dict, {}, None),
        "total_steps": (int, _TRAIN["total_steps"], 0),
        "batch_speakers": (int, _TRAIN["batch_speakers"], 1),
        "utts_per_speaker": (int, _TRAIN["utts_per_speaker"], 1),
        "easy_margin_fraction": (float, _TRAIN["easy_margin_fraction"], None),
        "learning_rate": (float, _TRAIN["learning_rate"], None),
        "hidden_dims": (list, _TRAIN["hidden_dims"], None),
        "embed_dim": (int, _TRAIN["embed_dim"], 1),
    },
    "detect": {
        "methods": (list, METHODS, None),
        "q": (float, None, None),
        "centroid_temperature": (float, DEFAULT_CENTROID_TEMPERATURE, None),
        "histogram_bins": (int, 20, 2),
    },
    "eval": {"pairs_per_kind": (int, 2000, 1)},
    "retrain": {"detection_method": (str, METHOD_INTER, None)},
}
TOP_LEVEL_KEYS = ("format_version", "name", "seeds", "output_dir", *SECTIONS)


def _section(section, path: str, table: dict) -> dict:
    """Read one config object through its field table: refuse unknown keys,
    check each field's JSON kind and minimum, fill in the defaults."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"config field {path} must be an object")
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ConfigurationError(f"unknown config field {path}.{unknown[0]}")
    got = {}
    for key, (kind, default, minimum) in table.items():
        if key not in section:
            got[key] = default(got) if callable(default) else default
            continue
        v = got[key] = json_field(section, key, kind, f"config field {path}", default is None)
        if minimum is not None and v < minimum:
            raise ConfigurationError(f"config field {path}.{key} must be >= {minimum}, got {v}")
    return got


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate a run config, raising field-level errors."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config field config.{unknown[0]}")
    version = raw.get("format_version", CONFIG_FORMAT_VERSION)
    if type(version) is not int or version != CONFIG_FORMAT_VERSION:  # not true, not 1.0
        raise ConfigurationError(f"config field format_version: unsupported value {version!r}")
    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigurationError("config field output_dir must be a non-empty string")
    seeds = raw.get("seeds", list(DEFAULT_SEEDS))
    if (not isinstance(seeds, list) or not seeds
            or any(not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in seeds)):
        raise ConfigurationError("config field seeds must be a non-empty list of ints >= 0")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError("config field seeds must not repeat")
    name = raw.get("name", Path(output_dir).name)
    if not isinstance(name, str) or not name:
        raise ConfigurationError("config field name must be a non-empty string")
    resolved = {"format_version": CONFIG_FORMAT_VERSION, "name": name, "seeds": list(seeds),
                "output_dir": output_dir}
    for key, table in SECTIONS.items():
        clean = key == "noise" and raw.get(key) is None
        resolved[key] = None if clean else _section(raw.get(key, {}), key, table)

    d, noise, t, de = (resolved[k] for k in ("dataset", "noise", "train", "detect"))
    if d["feature_dim"] < d["latent_dim"]:
        raise ConfigurationError("config field dataset.feature_dim must be >= dataset.latent_dim")
    if noise is not None:
        try:
            NoiseSpec(kind=noise["kind"], level_q=noise["level_q"], seed=0)
        except LabelNoiseError as exc:
            raise ConfigurationError(f"config field noise: {exc}") from exc
    kind = t["loss"].get("kind", "aam")
    if not isinstance(kind, str) or kind not in LOSS_KINDS:
        raise ConfigurationError(f"config field train.loss.kind: unknown loss {kind!r}")
    t["loss"] = _section(t["loss"], "train.loss", {"kind": (str, kind, None),
                                                   **LOSS_KINDS[kind][1]})
    t["hidden_dims"] = list(t["hidden_dims"])
    if any(not isinstance(h, int) or isinstance(h, bool) or h < 1 for h in t["hidden_dims"]):
        raise ConfigurationError("config field train.hidden_dims must be a list of ints >= 1")
    de["methods"] = list(de["methods"])
    if (not de["methods"] or any(m not in METHODS for m in de["methods"])
            or len(set(de["methods"])) != len(de["methods"])):
        raise ConfigurationError(
            f"config field detect.methods must be a non-empty subset of {list(METHODS)}"
        )
    if de["q"] is not None and not 0.0 < de["q"] <= 100.0:
        raise ConfigurationError(f"config field detect.q must be in (0, 100], got {de['q']}")
    if de["centroid_temperature"] <= 0:
        raise ConfigurationError("config field detect.centroid_temperature must be positive")
    if resolved["retrain"]["detection_method"] not in METHODS:
        raise ConfigurationError(
            f"config field retrain.detection_method must be one of {list(METHODS)}"
        )
    # validate the train section end to end by instantiating it
    build_train_config(resolved, d["class_count"], run_seed=0)
    return resolved


def run_config_digest(resolved: dict) -> str:
    """Digest of the science-relevant config (location and label excluded)."""
    body = {k: v for k, v in resolved.items() if k not in ("output_dir", "name")}
    return digest_config(body)


def build_train_config(resolved: dict, class_count: int, run_seed: int) -> TrainConfig:
    t = resolved["train"]
    make = LOSS_KINDS[t["loss"]["kind"]][0]
    params = {k: v for k, v in t["loss"].items() if k != "kind"}
    if make is not GE2EConfig:
        params["class_count"] = class_count
    return TrainConfig(**{**t, "loss": make(**params), "hidden_dims": tuple(t["hidden_dims"])},
                       seed=derive_seed(run_seed, "train"))


# ----------------------------------------------------------------------
# artifact bookkeeping


def seed_dir(resolved: dict, seed: int) -> Path:
    return Path(resolved["output_dir"]) / f"seed_{seed}"


def _recorded_stages(path: Path) -> dict | None:
    """The ``stages`` object of the manifest at ``path``; None if it is unreadable."""
    try:
        previous = read_json(path, "manifest")
    except (LabelNoiseError, OSError):
        return None
    stages = previous.get("stages") if isinstance(previous, dict) else None
    return dict(stages) if isinstance(stages, dict) else None


def _update_manifest(directory: Path, seed: int, digest: str, stage: str,
                     artifacts: list[Path], extras: dict, elapsed: float) -> None:
    path = directory / "manifest.json"
    stages = _recorded_stages(path) if path.exists() else {}
    if stages is None:
        logger.warning("manifest %s unreadable, rebuilding it", path)
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "labelnoise",
        "tool_version": __version__,
        "seed": seed,
        "config_digest": digest,
        "stages": stages or {},
    }
    manifest["stages"][stage] = dict(extras)
    manifest["stages"][stage]["artifacts"] = {p.name: sha256_file(p) for p in artifacts}
    manifest["stages"][stage]["wall_time_s"] = elapsed
    write_json17(manifest, path)


def _require_file(path: Path, what: str) -> Path:
    if not path.exists():
        raise ConfigurationError(f"{what} file not found: {path}")
    return path


# ----------------------------------------------------------------------
# commands


def cmd_simulate(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Generate clean/auxiliary/held-out datasets and the noisy training set."""
    d = resolved["dataset"]

    mix_seed = derive_seed(seed, "data-mix")
    clean = generate_dataset(
        d["class_count"], d["per_class"], d["latent_dim"], d["feature_dim"],
        d["within_class_spread"], seed=derive_seed(seed, "data-train"), mix_seed=mix_seed,
    )
    in_dirs = clean.directions
    aux = generate_dataset(
        d["aux_class_count"], d["aux_per_class"], d["latent_dim"], d["feature_dim"],
        d["within_class_spread"], seed=derive_seed(seed, "data-aux"), mix_seed=mix_seed,
        avoid_directions=in_dirs,
    )
    heldout = generate_dataset(
        d["class_count"], d["heldout_per_class"], d["latent_dim"], d["feature_dim"],
        d["within_class_spread"], seed=derive_seed(seed, "data-heldout"), mix_seed=mix_seed,
        avoid_directions=in_dirs,
    )

    noise = resolved["noise"]
    if noise is None:
        noisy = clean
    else:
        spec = NoiseSpec(kind=noise["kind"], level_q=noise["level_q"],
                         seed=derive_seed(seed, "noise"))
        if spec.kind == "permute":
            noisy = apply_permute_noise(clean, spec)
        else:
            noisy = apply_openset_noise(clean, aux, spec)

    written = []
    for ds, filename in ((clean, "clean.jsonl"), (aux, "aux.jsonl"),
                         (heldout, "heldout.jsonl"), (noisy, "noisy.jsonl")):
        path = out / filename
        save_dataset(ds, path)
        loaded = load_dataset(path)
        # ``==`` compares features by value, where -0.0 equals 0.0; their bits must match too
        if loaded != ds or not np.array_equal(loaded.features.view(np.int64),
                                              ds.features.view(np.int64)):
            raise ConfigurationError(f"round-trip validation failed for {path}")
        written.append(path)

    noisy_count = int(np.count_nonzero(noisy.is_noisy))
    logger.info("seed %d: simulated %d utterances, %d noisy", seed, len(noisy), noisy_count)
    return written, {"utterance_count": len(noisy), "noisy_count": noisy_count}


def cmd_train(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Train the embedder on the (noisy) training set."""
    ds_path = Path(args.dataset) if args.dataset else out / "noisy.jsonl"
    ds = load_dataset(_require_file(ds_path, "dataset"))

    cfg = build_train_config(resolved, ds.class_count, seed)
    model, curve = train(ds, cfg)

    model_path = out / "model.json"
    curve_path = out / "loss_curve.csv"
    save_model(model, model_path)
    load_model(model_path)  # validate the artifact round-trips
    write_loss_curve(curve, curve_path)

    final_loss = curve[-1][1] if curve else None
    logger.info("seed %d: trained %s for %d steps (final loss %s)",
                seed, cfg.loss.kind, cfg.total_steps,
                "n/a" if final_loss is None else format(final_loss, ".6g"))
    return [model_path, curve_path], {"loss_kind": cfg.loss.kind,
                                      "total_steps": cfg.total_steps, "final_loss": final_loss}


def cmd_detect(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Score inconsistency, rank, select top q%, and report precision."""
    model_path = Path(args.model) if args.model else out / "model.json"
    ds_path = Path(args.dataset) if args.dataset else out / "noisy.jsonl"
    model = load_model(_require_file(model_path, "model"))
    ds = load_dataset(_require_file(ds_path, "dataset"))
    if ds.feature_dim != model.embedder.layer_dims[0]:
        raise ConfigurationError(
            f"model expects dim-{model.embedder.layer_dims[0]} features, "
            f"dataset has dim {ds.feature_dim}"
        )

    q = args.q if args.q is not None else resolved["detect"]["q"]
    if q is None:
        noise = resolved["noise"]
        if noise is None or noise["level_q"] == 0.0:
            raise ConfigurationError(
                "detect.q is not set and the config has no noise level to fall back on"
            )
        q = noise["level_q"]
    if not 0.0 < q <= 100.0:
        raise ConfigurationError(f"q must be in (0, 100], got {q}")
    if args.method is None:
        methods = resolved["detect"]["methods"]
    else:
        methods = METHODS if args.method == "both" else [args.method]

    emb = embed_dataset(model, ds)
    # intra scores need the centroid bank, and so does a GE2E model's inter classifier
    needs_bank = METHOD_INTRA in methods or isinstance(model.loss_config, GE2EConfig)
    bank = compute_centroids(emb, ds) if needs_bank else None
    digest = run_config_digest(resolved)
    written = []
    extras: dict = {"q": q}
    for method in methods:
        if method == METHOD_INTRA:
            scores = intra_inconsistency(emb, ds, bank)
        else:
            classifier = make_inter_classifier(
                model, bank, resolved["detect"]["centroid_temperature"])
            scores = inter_inconsistency(emb, ds, classifier)
        result = detection_precision(rank_and_select(scores, ds.utt_id, q), ds)
        rows = export_score_histogram(scores, ds, resolved["detect"]["histogram_bins"])

        scores_path, det_path, hist_path = _detect_paths(out, method)
        write_scores_csv(scores, ds, method, scores_path)
        write_detection_json(result, method, seed, digest, det_path)
        read_json(det_path, "detection")  # validate the artifact parses
        write_histogram_csv(rows, hist_path)
        written += [scores_path, det_path, hist_path]

        extras[method] = {
            "selected_count": result.selected_count,
            "precision": result.precision,
            "recall": result.recall,
        }
        logger.info(
            "seed %d: %s detection selected %d of %d (precision %s)",
            seed, method, result.selected_count, len(ds),
            "n/a" if result.precision is None else format(result.precision, ".4f"),
        )
    # a method not rerun keeps its entries while its files have their recorded
    # hashes and the stage's q is unchanged, so that q holds for every method
    skipped = [m for m in METHODS if m not in methods]
    old = (_recorded_stages(out / "manifest.json") or {}).get("detect") if skipped else None
    recorded = old.get("artifacts") if isinstance(old, dict) and old.get("q") == q else None
    for method in skipped if isinstance(recorded, dict) else ():
        paths = _detect_paths(out, method)
        if method in old and all(p.exists() and recorded.get(p.name) == sha256_file(p)
                                 for p in paths):
            written += paths
            extras[method] = old[method]
    return written, extras


def _detect_paths(out: Path, method: str) -> list[Path]:
    """The scores, detection and histogram files of one detection method."""
    return [out / f"scores_{method}.csv", out / f"detection_{method}.json",
            out / f"histogram_{method}.csv"]


def cmd_eval(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Generate held-out trials and report the model's EER."""
    model_path = _require_file(Path(args.model) if args.model else out / "model.json", "model")
    heldout = load_dataset(_require_file(out / "heldout.jsonl", "held-out dataset"))
    model = load_model(model_path)

    trials = generate_trials(heldout, resolved["eval"]["pairs_per_kind"], seed)
    scores, labels, dropped = score_trials(model, trials, heldout)
    result = compute_eer(scores, labels)

    trials_path = out / "trials.csv"
    eer_path = out / "eer.json"
    write_trials_csv(trials, trials_path)
    write_eer_json(result, sha256_file(model_path), eer_path)
    logger.info("seed %d: EER %.4f over %d trials (%d dropped)",
                seed, result.eer, result.trial_count, dropped)
    return [trials_path, eer_path], {"eer": result.eer, "trial_count": result.trial_count,
                                     "dropped_trials": dropped}


def cmd_retrain(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Remove predicted-noisy utterances, retrain, and compare EER.

    The method recorded is the one the detection file was made with; a
    ``--method``, or a ``retrain.detection_method`` the config file sets,
    that names another is refused.
    """
    # the resolved config cannot tell a set retrain.detection_method from the default
    asked = args.method or read_json(Path(args.config), "config").get(
        "retrain", {}).get("detection_method")
    det_path = (Path(args.detection) if args.detection else
                out / f"detection_{asked or resolved['retrain']['detection_method']}.json")
    detection = read_json(_require_file(det_path, "detection"), "detection")
    if not isinstance(detection, dict):
        raise ConfigurationError(f"detection file {det_path} must hold a JSON object")
    method = detection.get("method")
    if method not in METHODS:
        raise ConfigurationError(f"detection file {det_path}: method must be one of "
                                 f"{list(METHODS)}, got {reprlib.repr(method)}")
    if asked not in (None, method):
        source = "--method" if args.method else "config field retrain.detection_method"
        raise ConfigurationError(f"detection file {det_path} was made by method {method!r}, "
                                 f"but {source} asks for {asked!r}")
    predicted = detection.get("predicted_noisy")
    if not isinstance(predicted, list) or any(
            not isinstance(i, int) or isinstance(i, bool) for i in predicted):
        raise ConfigurationError(
            f"detection file {det_path} lacks a predicted_noisy id list"
        )
    outside = [i for i in predicted if not -2**63 <= i < 2**63]
    if outside:
        raise ConfigurationError(
            f"detection file {det_path}: predicted_noisy id {outside[0]} is outside "
            f"the 64-bit range"
        )

    ds_path = Path(args.dataset) if args.dataset else out / "noisy.jsonl"
    ds = load_dataset(_require_file(ds_path, "dataset"))
    heldout = load_dataset(_require_file(out / "heldout.jsonl", "held-out dataset"))
    trials = generate_trials(heldout, resolved["eval"]["pairs_per_kind"], seed)

    cfg = build_train_config(resolved, ds.class_count, seed)
    model_path = Path(args.model) if args.model else out / "model.json"
    before_model = load_model(model_path) if model_path.exists() else None
    if before_model is None:
        logger.info("seed %d: no trained model at %s, training the baseline now",
                    seed, model_path)

    outcome = retrain_after_removal(ds, predicted, cfg, heldout, trials, before_model)

    retrained_path = out / "model_retrained.json"
    report_path = out / "retrain.json"
    save_model(outcome.after_model, retrained_path)
    write_retrain_json(outcome, method, seed, run_config_digest(resolved), report_path)
    logger.info("seed %d: removed %d utterances, EER %.4f -> %.4f",
                seed, outcome.removed_count, outcome.before.eer, outcome.after.eer)
    return [retrained_path, report_path], {
        "method": method, "removed_count": outcome.removed_count,
        "eer_before": outcome.before.eer, "eer_after": outcome.after.eer}


def _mean_or_missing(values: list[float | None]) -> str:
    values = [v for v in values if v is not None]
    if not values:
        return "missing"
    return format(sum(values) / len(values), ".6g")


def _read_run_file(path: Path, what: str, read):
    """``read`` applied to the JSON object in ``path``; its faults name the file."""
    obj = read_json(path, what)
    try:
        if not isinstance(obj, dict):
            raise ConfigurationError(f"{what} must be a JSON object")
        return read(obj)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def cmd_report(args) -> int:
    """Aggregate detection precision and EER across runs into one CSV.

    Each run's ``config.json`` is resolved like a run config, its
    ``output_dir`` defaulting to the run directory; its ``name`` must be
    ASCII, as the report is. ``--out`` is replaced once the report is whole.
    """
    text = io.StringIO()
    rows = csv.writer(text, lineterminator="\n")
    rows.writerow(["run", "noise_kind", "noise_q", "loss", "method", "precision", "recall",
                   "eer", "seeds"])
    any_rows = False
    for run_dir in args.run_dirs:
        root = Path(run_dir)
        cfg_path = root / "config.json"
        if not cfg_path.exists():
            logger.warning("skipping %s: no config.json", root)
            continue
        resolved = _read_run_file(cfg_path, "run config",
                                  lambda raw: resolve_config({"output_dir": str(root), **raw}))
        if not resolved["name"].isascii():  # the report is an ASCII file
            raise ConfigurationError(
                f"{cfg_path}: config field name must be ASCII, got {resolved['name']!a}")
        noise = resolved["noise"] or {"kind": "clean", "level_q": 0.0}
        for method in resolved["detect"]["methods"]:
            precisions, recalls, eers, seen = [], [], [], 0
            for seed in resolved["seeds"]:
                sdir = root / f"seed_{seed}"
                det_path = sdir / f"detection_{method}.json"
                if det_path.exists():
                    seen += 1
                    precision, recall = _read_run_file(det_path, "detection", lambda d: [
                        json_field(d, key, float, "detection", nullable=True)
                        for key in ("precision", "recall")])
                    precisions.append(precision)
                    recalls.append(recall)
                else:
                    logger.warning("missing artifact %s", det_path)
                eer_path = sdir / "eer.json"
                if eer_path.exists():
                    eers.append(_read_run_file(eer_path, "EER report",
                                               lambda e: json_field(e, "eer", float, "EER report")))
                else:
                    logger.warning("missing artifact %s", eer_path)
            rows.writerow([
                resolved["name"],
                noise["kind"],
                format(noise["level_q"], ".6g"),
                resolved["train"]["loss"]["kind"],
                method,
                _mean_or_missing(precisions),
                _mean_or_missing(recalls),
                _mean_or_missing(eers),
                str(seen),
            ])
            any_rows = True
    if not any_rows:
        raise ConfigurationError("no usable run directories; nothing to report")
    if args.out:
        write_text(args.out, [text.getvalue()])
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(text.getvalue())
    return 0


# ----------------------------------------------------------------------
# entry point

# Each command writes its artifacts into the seed directory ``out`` and
# returns them, with the extras its stage records in the manifest.
_PIPELINE = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "detect": cmd_detect,
    "eval": cmd_eval,
    "retrain": cmd_retrain,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelnoise",
        description="Label-noise simulation, embedder training, noisy-label "
                    "detection, and verification-style evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config JSON file")
    common.add_argument("--out", default=None, help="override the config's output_dir")
    common.add_argument("--seed", type=int, default=None,
                        help="run a single seed instead of the config's list")
    common.add_argument("--quiet", action="store_true", help="only warnings and errors")

    p = sub.add_parser("simulate", parents=[common],
                       help="generate clean/auxiliary/held-out/noisy datasets")
    p = sub.add_parser("train", parents=[common], help="train the embedder")
    p.add_argument("--dataset", default=None, help="training dataset path")
    p = sub.add_parser("detect", parents=[common],
                       help="rank inconsistency scores and flag the top q%%")
    p.add_argument("--model", default=None, help="trained model path")
    p.add_argument("--dataset", default=None, help="dataset to score")
    p.add_argument("--method", choices=["intra", "inter", "both"], default=None,
                   help="scoring method (default: config detect.methods)")
    p.add_argument("--q", type=float, default=None, help="fraction to flag, in (0, 100]")
    p = sub.add_parser("eval", parents=[common], help="held-out EER of a trained model")
    p.add_argument("--model", default=None, help="trained model path")
    p = sub.add_parser("retrain", parents=[common],
                       help="drop predicted-noisy utterances and retrain")
    p.add_argument("--model", default=None, help="baseline model path")
    p.add_argument("--dataset", default=None, help="training dataset path")
    p.add_argument("--detection", default=None, help="detection report to apply")
    p.add_argument("--method", choices=["intra", "inter"], default=None,
                   help="which detection report to apply (default: config)")

    p = sub.add_parser("report", help="aggregate runs into a CSV summary")
    p.add_argument("run_dirs", nargs="+", help="run output directories")
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        if args.command == "report":
            return cmd_report(args)
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        raw = read_json(Path(args.config), "config")
        if args.out:
            raw = dict(raw)
            raw["output_dir"] = args.out
        resolved = resolve_config(raw)
        seeds = [args.seed] if args.seed is not None else resolved["seeds"]
        root = Path(resolved["output_dir"])
        root.mkdir(parents=True, exist_ok=True)
        write_json17(resolved, root / "config.json")
        for seed in seeds:
            t0 = time.monotonic()
            out = seed_dir(resolved, seed)
            out.mkdir(parents=True, exist_ok=True)
            artifacts, extras = _PIPELINE[args.command](resolved, seed, out, args)
            _update_manifest(out, seed, run_config_digest(resolved), args.command, artifacts,
                             extras, time.monotonic() - t0)
        return 0
    except LabelNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
