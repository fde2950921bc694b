"""Command-line pipeline: simulate -> train -> detect -> eval -> retrain -> report.

Each run is driven by a JSON config file and a list of seeds. Artifacts
land under ``<output_dir>/seed_<s>/``; once a seed's stage succeeds, a
resolved copy of the config is written to ``<output_dir>/config.json`` and
the seed's ``manifest.json`` is updated with artifact hashes and
wall-clock timings; a stage that fails removes the directories it created.
Given the same config and seed, artifact files are byte-identical across
reruns (manifest timings excepted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .embedder import (
    TrainConfig,
    TrainedModel,
    load_model,
    parameter_vector,
    save_model,
    train,
    write_loss_curve,
)
from .errors import ConfigurationError, LabelNoiseError
from .evaluation import (
    compute_eer,
    generate_trials,
    load_eer,
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
    read_json_object,
    sha256_file,
    write_json17,
    write_text,
)
from .losses import LOSS_KINDS, GE2EConfig
from .nld import (
    DEFAULT_CENTROID_TEMPERATURE,
    METHOD_INTER,
    METHOD_INTRA,
    CentroidClassifier,
    ParametricClassifier,
    compute_centroids,
    detection_precision,
    embed_dataset,
    export_score_histogram,
    inter_inconsistency,
    intra_inconsistency,
    load_detection,
    rank_and_select,
    write_detection_json,
    write_histogram_csv,
    write_scores_csv,
)
from .seeding import derive_seed
from .synthdata import (
    DEFAULT_WITHIN_CLASS_SPREAD,
    Dataset,
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
    load_dataset,
    save_dataset,
)

logger = logging.getLogger(__name__)

CONFIG_FORMAT_VERSION = 1
MANIFEST_FORMAT_VERSION = 2
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
        "q": (float, None, None),
        "centroid_temperature": (float, DEFAULT_CENTROID_TEMPERATURE, None),
        "histogram_bins": (int, 20, 2),
    },
    "eval": {"pairs_per_kind": (int, 2000, 1)},
    "retrain": {"detection_method": (str, None, None)},
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
    if any(type(h) is not int or not 1 <= h < 2**63 for h in t["hidden_dims"]):  # no bools
        raise ConfigurationError("config field train.hidden_dims must list ints in [1, 2**63)")
    if de["q"] is not None and not 0.0 < de["q"] <= 100.0:
        raise ConfigurationError(f"config field detect.q must be in (0, 100], got {de['q']}")
    if de["centroid_temperature"] <= 0:
        raise ConfigurationError("config field detect.centroid_temperature must be positive")
    if resolved["retrain"]["detection_method"] not in (None, *METHODS):
        raise ConfigurationError(
            f"config field retrain.detection_method must be null or one of {list(METHODS)}"
        )
    try:  # validate the train section end to end by instantiating it
        build_train_config(resolved, d["class_count"], run_seed=0)
    except LabelNoiseError as exc:
        raise ConfigurationError(f"config field train: {exc}") from exc
    return resolved


def run_config_digest(resolved: dict) -> str:
    """Digest of the science-relevant config (location and label excluded)."""
    body = {k: v for k, v in resolved.items() if k not in ("output_dir", "name")}
    return digest_config(body)


def detection_config_digest(resolved: dict) -> str:
    """Digest of the config sections a detection file depends on: an edit to
    ``eval`` or ``retrain`` leaves a detection file valid."""
    return digest_config({k: resolved[k] for k in ("dataset", "noise", "train", "detect")})


def eer_config_digest(resolved: dict, seed: int) -> str:
    """Digest of the config sections and the seed an EER file's held-out set,
    model and trials come from: an edit to ``detect`` or ``retrain`` leaves it valid."""
    return digest_config({k: resolved[k] for k in ("dataset", "noise", "train", "eval")}
                         | {"seed": seed})


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
    """The ``stages`` object of the manifest at ``path``; None if it is
    unreadable or of another format version (version 1 recorded one digest
    for the whole manifest, not one per stage)."""
    def stages(m: dict) -> dict:
        json_field(m, "format_version", int, "manifest",
                   bounds=(MANIFEST_FORMAT_VERSION, MANIFEST_FORMAT_VERSION))
        return json_field(m, "stages", dict, "manifest")
    try:
        return dict(read_json_object(path, "manifest", stages))
    except (LabelNoiseError, OSError):
        return None


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
        "stages": stages or {},
    }
    manifest["stages"][stage] = {**extras, "config_digest": digest, "wall_time_s": elapsed,
                                 "artifacts": {p.name: sha256_file(p) for p in artifacts}}
    write_json17(manifest, path)


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

    written = [out / f"{name}.dataset" for name in ("clean", "aux", "heldout", "noisy")]
    for ds, path in zip((clean, aux, heldout, noisy), written):
        save_dataset(ds, path)
        loaded = load_dataset(path)
        # ``==`` compares features by value, where -0.0 equals 0.0; their bits must match too
        if loaded != ds or not np.array_equal(loaded.features.view(np.int64),
                                              ds.features.view(np.int64)):
            raise ConfigurationError(f"round-trip validation failed for {path}")

    noisy_count = int(np.count_nonzero(noisy.is_noisy))
    logger.info("seed %d: simulated %d utterances, %d noisy", seed, len(noisy), noisy_count)
    return written, {"utterance_count": len(noisy), "noisy_count": noisy_count}


def cmd_train(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Train the embedder on the (noisy) training set."""
    ds_path = Path(args.dataset) if args.dataset else out / "noisy.dataset"
    ds = load_dataset(ds_path)

    cfg = build_train_config(resolved, ds.class_count, seed)
    model, curve = train(ds, cfg)

    model_path = out / "model.json"
    curve_path = out / "loss_curve.csv"
    _save_checked(model, model_path)
    write_loss_curve(curve, curve_path)

    final_loss = curve[-1][1] if curve else None
    logger.info("seed %d: trained %s for %d steps (final loss %s)",
                seed, cfg.loss.kind, cfg.total_steps,
                "n/a" if final_loss is None else format(final_loss, ".6g"))
    return [model_path, curve_path], {"loss_kind": cfg.loss.kind,
                                      "total_steps": cfg.total_steps, "final_loss": final_loss}


def _save_checked(model: TrainedModel, path: Path) -> None:
    """Save ``model`` at ``path`` and check that it reads back with every parameter's bits."""
    save_model(model, path)
    if not np.array_equal(parameter_vector(load_model(path)).view(np.int64),
                          parameter_vector(model).view(np.int64)):
        raise ConfigurationError(f"round-trip validation failed for {path}")


def _dataset_for(model: TrainedModel, path: Path) -> Dataset:
    """The dataset at ``path``, refused if its width is not ``model``'s input width."""
    ds = load_dataset(path)
    if ds.feature_dim != (width := model.embedder.layer_dims[0]):
        raise ConfigurationError(f"model file {model.source}: expects dim-{width} features, "
                                 f"dataset {path} has dim {ds.feature_dim}")
    return ds


def cmd_detect(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Score intra- and inter-class inconsistency, rank, select the top q% of
    each, and report precision."""
    model_path = Path(args.model) if args.model else out / "model.json"
    ds_path = Path(args.dataset) if args.dataset else out / "noisy.dataset"
    model = load_model(model_path)
    ds = _dataset_for(model, ds_path)
    if not len(ds):
        raise ConfigurationError(f"dataset file {ds_path}: no utterances to score")

    q = resolved["detect"]["q"]
    if q is None:
        noise = resolved["noise"]
        if noise is None or noise["level_q"] == 0.0:
            raise ConfigurationError("detect.q is not set and the config has no noise level "
                                     "to fall back on")
        q = noise["level_q"]

    emb = embed_dataset(model, ds)
    # the intra scores and a GE2E model's inter classifier share one centroid bank
    bank = compute_centroids(emb, ds)
    digest = detection_config_digest(resolved)
    written = []
    extras: dict = {"q": q}
    for method in METHODS:
        if method == METHOD_INTRA:
            scores = intra_inconsistency(emb, ds, bank)
        else:
            classifier = (CentroidClassifier(bank, resolved["detect"]["centroid_temperature"])
                          if isinstance(model.loss_config, GE2EConfig)
                          else ParametricClassifier(model))
            scores = inter_inconsistency(emb, ds, classifier)
        result = detection_precision(rank_and_select(scores, ds.utt_id, q), ds)
        rows = export_score_histogram(scores, ds, resolved["detect"]["histogram_bins"])

        scores_path, det_path, hist_path = (out / f"scores_{method}.csv",
                                            out / f"detection_{method}.json",
                                            out / f"histogram_{method}.csv")
        write_scores_csv(scores, ds, method, scores_path)
        write_detection_json(result, method, seed, digest, det_path)
        load_detection(det_path)  # the file must read back
        write_histogram_csv(rows, hist_path)
        written += [scores_path, det_path, hist_path]

        extras[method] = {"selected_count": result.selected_count, "precision": result.precision,
                          "recall": result.recall}
        logger.info("seed %d: %s detection selected %d of %d (precision %s)", seed, method,
                    result.selected_count, len(ds),
                    "n/a" if result.precision is None else format(result.precision, ".4f"))
    return written, extras


def cmd_eval(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Generate held-out trials and report the model's EER."""
    model_path = Path(args.model) if args.model else out / "model.json"
    model = load_model(model_path)
    heldout = _dataset_for(model, out / "heldout.dataset")

    trials = generate_trials(heldout, resolved["eval"]["pairs_per_kind"], seed)
    scores, labels, dropped = score_trials(model, trials, heldout)
    result = compute_eer(scores, labels)

    trials_path = out / "trials.csv"
    eer_path = out / "eer.json"
    write_trials_csv(trials, trials_path)
    write_eer_json(result, sha256_file(model_path), eer_config_digest(resolved, seed), eer_path)
    logger.info("seed %d: EER %.4f over %d trials (%d dropped)",
                seed, result.eer, result.trial_count, dropped)
    return [trials_path, eer_path], {"eer": result.eer, "trial_count": result.trial_count,
                                     "dropped_trials": dropped}


def cmd_retrain(resolved: dict, seed: int, out: Path, args) -> tuple[list[Path], dict]:
    """Remove predicted-noisy utterances, retrain, and compare EER.

    The method recorded is the one the detection file was made with; a
    ``retrain.detection_method`` that names another is refused. Left null,
    it reads the seed directory's inter detection file. The baseline EER is
    the seed directory's ``eer.json``, once shown to be the baseline model's
    under this config and seed.
    """
    asked = resolved["retrain"]["detection_method"]
    det_path = (Path(args.detection) if args.detection else
                out / f"detection_{asked or METHOD_INTER}.json")
    method, detection, recorded = load_detection(det_path)
    if asked not in (None, method):
        raise ConfigurationError(f"detection file {det_path} was made by method {method!r}, "
                                 f"but config field retrain.detection_method asks for {asked!r}")
    digest = detection_config_digest(resolved)
    if recorded != digest:  # only a file named on the command line may be stale
        stale = f"detection file {det_path} has config digest {recorded}, the config has {digest}"
        if not args.detection:
            raise ConfigurationError(stale)
        logger.warning("%s; applying it as --detection asks", stale)

    eer_path = out / "eer.json"
    before, scored, recorded = load_eer(eer_path)
    model_path = Path(args.model) if args.model else out / "model.json"
    if not model_path.exists():
        raise ConfigurationError(f"model file not found: {model_path}")
    if (model_digest := sha256_file(model_path)) != scored:
        raise ConfigurationError(f"model file {model_path} has sha256 {model_digest}, but "
                                 f"{eer_path} is the EER of sha256 {scored}; run eval on it first")
    if recorded != (digest := eer_config_digest(resolved, seed)):
        raise ConfigurationError(f"EER report {eer_path} has config digest {recorded}, the "
                                 f"config has {digest}; run eval under this config first")

    ds_path = Path(args.dataset) if args.dataset else out / "noisy.dataset"
    heldout_path = out / "heldout.dataset"
    ds, heldout = load_dataset(ds_path), load_dataset(heldout_path)
    # the retrained model embeds ``heldout``, so the two widths must agree
    if heldout.feature_dim != ds.feature_dim:
        raise ConfigurationError(f"held-out dataset {heldout_path} has dim {heldout.feature_dim}, "
                                 f"training dataset {ds_path} has dim {ds.feature_dim}")
    trials = generate_trials(heldout, resolved["eval"]["pairs_per_kind"], seed)
    cfg = build_train_config(resolved, ds.class_count, seed)
    outcome = retrain_after_removal(ds, detection.predicted_noisy, cfg, heldout, trials, before)

    retrained_path = out / "model_retrained.json"
    report_path = out / "retrain.json"
    _save_checked(outcome.after_model, retrained_path)
    write_retrain_json(outcome, method, seed, run_config_digest(resolved), report_path)
    logger.info("seed %d: removed %d utterances, EER %.4f -> %.4f",
                seed, outcome.removed_count, outcome.before.eer, outcome.after.eer)
    return [retrained_path, report_path], {
        "method": method, "removed_count": outcome.removed_count,
        "eer_before": outcome.before.eer, "eer_after": outcome.after.eer}


def _if_present(path: Path, read):
    """``read(path)``, or None with a warning when there is no file ``path``."""
    if path.exists():
        return read(path)
    logger.warning("missing artifact %s", path)
    return None


def _mean_or_missing(results: list, field: str) -> str:
    """The mean ``field`` of the results (None for a missing one) that hold a value."""
    values = [v for r in results if r is not None and (v := getattr(r, field)) is not None]
    return format(sum(values) / len(values), ".6g") if values else "missing"


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
        resolved = read_json_object(cfg_path, "run config",
                                    lambda raw: resolve_config({"output_dir": str(root), **raw}))
        if not resolved["name"].isascii():  # the report is an ASCII file
            raise ConfigurationError(
                f"{cfg_path}: config field name must be ASCII, got {resolved['name']!a}")
        noise = resolved["noise"] or {"kind": "clean", "level_q": 0.0}
        sdirs = [root / f"seed_{seed}" for seed in resolved["seeds"]]
        eer = _mean_or_missing([_if_present(sdir / "eer.json", lambda path: load_eer(path)[0])
                                for sdir in sdirs], "eer")
        for method in METHODS:
            detections = [_if_present(sdir / f"detection_{method}.json",
                                      lambda path: load_detection(path)[1]) for sdir in sdirs]
            rows.writerow([resolved["name"], noise["kind"], format(noise["level_q"], ".6g"),
                           resolved["train"]["loss"]["kind"], method,
                           *(_mean_or_missing(detections, k) for k in ("precision", "recall")),
                           eer, str(sum(d is not None for d in detections))])
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
    # allow_abbrev=False everywhere: a flag is spelled in full, so --q is not read as --quiet
    parser = argparse.ArgumentParser(
        prog="labelnoise", allow_abbrev=False,
        description="Label-noise simulation, embedder training, noisy-label "
                    "detection, and verification-style evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", required=True, help="run config JSON file")
    common.add_argument("--out", default=None, help="override the config's output_dir")
    common.add_argument("--seed", type=int, default=None,
                        help="run a single seed instead of the config's list")
    common.add_argument("--quiet", action="store_true", help="only warnings and errors")

    p = sub.add_parser("simulate", parents=[common], allow_abbrev=False,
                       help="generate clean/auxiliary/held-out/noisy datasets")
    p = sub.add_parser("train", parents=[common], allow_abbrev=False, help="train the embedder")
    p.add_argument("--dataset", default=None, help="training dataset path")
    p = sub.add_parser("detect", parents=[common], allow_abbrev=False,
                       help="rank inconsistency scores and flag the top q%%")
    p.add_argument("--model", default=None, help="trained model path")
    p.add_argument("--dataset", default=None, help="dataset to score")
    p = sub.add_parser("eval", parents=[common], allow_abbrev=False,
                       help="held-out EER of a trained model")
    p.add_argument("--model", default=None, help="trained model path")
    p = sub.add_parser("retrain", parents=[common], allow_abbrev=False,
                       help="drop predicted-noisy utterances and retrain")
    p.add_argument("--model", default=None, help="baseline model path, as eval scored it")
    p.add_argument("--dataset", default=None, help="training dataset path")
    p.add_argument("--detection", default=None, help="detection report to apply")

    p = sub.add_parser("report", allow_abbrev=False, help="aggregate runs into a CSV summary")
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
        if args.out and isinstance(raw, dict):  # a non-object is refused as it is
            raw = {**raw, "output_dir": args.out}
        resolved = resolve_config(raw)
        seeds = [args.seed] if args.seed is not None else resolved["seeds"]
        for seed in seeds:
            t0 = time.monotonic()
            out = seed_dir(resolved, seed)
            created = [p for p in (out, *out.parents) if not p.exists()]
            out.mkdir(parents=True, exist_ok=True)
            try:
                artifacts, extras = _PIPELINE[args.command](resolved, seed, out, args)
            except BaseException:  # a failed stage leaves no directory it made
                if created:
                    shutil.rmtree(created[-1], ignore_errors=True)
                raise
            # only a stage that succeeded may say which config the run used
            write_json17(resolved, out.parent / "config.json")
            _update_manifest(out, seed, run_config_digest(resolved), args.command, artifacts,
                             extras, time.monotonic() - t0)
        return 0
    except (LabelNoiseError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate; a bare one names nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
