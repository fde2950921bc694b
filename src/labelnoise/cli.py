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
import contextlib
import logging
import math
import sys
import time
from pathlib import Path

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
from .jsonutil import digest_config, read_json, sha256_file, write_json17
from .losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    GE2EConfig,
    LossConfig,
    nsl_config,
)
from .nld import (
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


def _check_keys(section: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown config field {path}.{unknown[0]}")


def _get_int(section: dict, key: str, default: int | None, path: str,
             minimum: int | None = None) -> int:
    v = section.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigurationError(f"config field {path}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigurationError(f"config field {path}.{key} must be >= {minimum}, got {v}")
    return v


def _get_float(section: dict, key: str, default: float, path: str) -> float:
    """A finite number; ``json.load`` also parses NaN, Infinity and huge
    integer literals, none of which any float field accepts."""
    v = section.get(key, default)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float64
            if math.isfinite(f := float(v)):
                return f
    raise ConfigurationError(f"config field {path}.{key} must be a finite number, got {v!r}")


def _resolve_loss(raw: dict) -> dict:
    kind = raw.get("kind", "aam")
    if kind == "ce":
        _check_keys(raw, ("kind",), "train.loss")
        return {"kind": "ce"}
    if kind == "nsl":
        _check_keys(raw, ("kind", "scale"), "train.loss")
        return {"kind": "nsl", "scale": _get_float(raw, "scale", 30.0, "train.loss")}
    if kind == "aam":
        _check_keys(raw, ("kind", "scale", "margin"), "train.loss")
        return {
            "kind": "aam",
            "scale": _get_float(raw, "scale", 30.0, "train.loss"),
            "margin": _get_float(raw, "margin", 0.1, "train.loss"),
        }
    if kind == "aamsc":
        _check_keys(raw, ("kind", "scale", "margin", "subcenters"), "train.loss")
        return {
            "kind": "aamsc",
            "scale": _get_float(raw, "scale", 30.0, "train.loss"),
            "margin": _get_float(raw, "margin", 0.1, "train.loss"),
            "subcenters": _get_int(raw, "subcenters", 3, "train.loss", minimum=1),
        }
    if kind == "ge2e":
        _check_keys(raw, ("kind", "init_w", "init_b"), "train.loss")
        return {
            "kind": "ge2e",
            "init_w": _get_float(raw, "init_w", 10.0, "train.loss"),
            "init_b": _get_float(raw, "init_b", -5.0, "train.loss"),
        }
    raise ConfigurationError(f"config field train.loss.kind: unknown loss {kind!r}")


def loss_config_for(loss: dict, class_count: int) -> LossConfig:
    """Instantiate the loss config named by a resolved config section."""
    kind = loss["kind"]
    if kind == "ce":
        return CEConfig(class_count=class_count)
    if kind == "nsl":
        return nsl_config(class_count, loss["scale"])
    if kind == "aam":
        return AAMConfig(class_count=class_count, scale=loss["scale"], margin=loss["margin"])
    if kind == "aamsc":
        return AAMSCConfig(class_count=class_count, scale=loss["scale"],
                           margin=loss["margin"], subcenters=loss["subcenters"])
    return GE2EConfig(init_w=loss["init_w"], init_b=loss["init_b"])


def resolve_config(raw: dict) -> dict:
    """Fill defaults and validate a run config, raising field-level errors."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _check_keys(raw, ("format_version", "name", "seeds", "output_dir", "dataset",
                      "noise", "train", "detect", "eval", "retrain"), "config")
    version = raw.get("format_version", CONFIG_FORMAT_VERSION)
    if version != CONFIG_FORMAT_VERSION:
        raise ConfigurationError(
            f"config field format_version: unsupported value {version!r}"
        )

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

    d = raw.get("dataset", {})
    if not isinstance(d, dict):
        raise ConfigurationError("config field dataset must be an object")
    _check_keys(d, ("class_count", "per_class", "latent_dim", "feature_dim",
                    "within_class_spread", "aux_class_count", "aux_per_class",
                    "heldout_per_class"), "dataset")
    class_count = _get_int(d, "class_count", 50, "dataset", minimum=2)
    dataset = {
        "class_count": class_count,
        "per_class": _get_int(d, "per_class", 40, "dataset", minimum=2),
        "latent_dim": _get_int(d, "latent_dim", 8, "dataset", minimum=1),
        "feature_dim": _get_int(d, "feature_dim", 20, "dataset", minimum=1),
        "within_class_spread": _get_float(d, "within_class_spread",
                                          DEFAULT_WITHIN_CLASS_SPREAD, "dataset"),
        "aux_class_count": _get_int(d, "aux_class_count", class_count, "dataset", minimum=2),
        "aux_per_class": _get_int(d, "aux_per_class", 40, "dataset", minimum=2),
        "heldout_per_class": _get_int(d, "heldout_per_class", 10, "dataset", minimum=2),
    }
    if dataset["within_class_spread"] < 0:
        raise ConfigurationError("config field dataset.within_class_spread must be >= 0")
    if dataset["feature_dim"] < dataset["latent_dim"]:
        raise ConfigurationError(
            "config field dataset.feature_dim must be >= dataset.latent_dim"
        )

    noise_raw = raw.get("noise")
    if noise_raw is None:
        noise = None
    else:
        if not isinstance(noise_raw, dict):
            raise ConfigurationError("config field noise must be an object or null")
        _check_keys(noise_raw, ("kind", "level_q"), "noise")
        noise = {
            "kind": noise_raw.get("kind"),
            "level_q": _get_float(noise_raw, "level_q", 0.0, "noise"),
        }
        try:
            NoiseSpec(kind=noise["kind"], level_q=noise["level_q"], seed=0)
        except LabelNoiseError as exc:
            raise ConfigurationError(f"config field noise: {exc}") from exc

    t = raw.get("train", {})
    if not isinstance(t, dict):
        raise ConfigurationError("config field train must be an object")
    _check_keys(t, ("loss", "total_steps", "batch_speakers", "utts_per_speaker",
                    "easy_margin_fraction", "learning_rate", "hidden_dims",
                    "embed_dim"), "train")
    loss_raw = t.get("loss", {})
    if not isinstance(loss_raw, dict):
        raise ConfigurationError("config field train.loss must be an object")
    hidden = t.get("hidden_dims", [64, 64])
    if (not isinstance(hidden, list)
            or any(not isinstance(h, int) or isinstance(h, bool) or h < 1 for h in hidden)):
        raise ConfigurationError("config field train.hidden_dims must be a list of ints >= 1")
    train_sec = {
        "loss": _resolve_loss(loss_raw),
        "total_steps": _get_int(t, "total_steps", 5000, "train", minimum=0),
        "batch_speakers": _get_int(t, "batch_speakers", 64, "train", minimum=1),
        "utts_per_speaker": _get_int(t, "utts_per_speaker", 1, "train", minimum=1),
        "easy_margin_fraction": _get_float(t, "easy_margin_fraction", 0.125, "train"),
        "learning_rate": _get_float(t, "learning_rate", 1e-4, "train"),
        "hidden_dims": list(hidden),
        "embed_dim": _get_int(t, "embed_dim", 32, "train", minimum=1),
    }

    de = raw.get("detect", {})
    if not isinstance(de, dict):
        raise ConfigurationError("config field detect must be an object")
    _check_keys(de, ("methods", "q", "centroid_temperature", "histogram_bins"), "detect")
    methods = de.get("methods", list(METHODS))
    if (not isinstance(methods, list) or not methods
            or any(m not in METHODS for m in methods)
            or len(set(methods)) != len(methods)):
        raise ConfigurationError(
            f"config field detect.methods must be a non-empty subset of {list(METHODS)}"
        )
    q = de.get("q")
    if q is not None:
        q = _get_float(de, "q", 0.0, "detect")
        if not 0.0 < q <= 100.0:
            raise ConfigurationError(f"config field detect.q must be in (0, 100], got {q}")
    detect_sec = {
        "methods": list(methods),
        "q": q,
        "centroid_temperature": _get_float(de, "centroid_temperature", 0.1, "detect"),
        "histogram_bins": _get_int(de, "histogram_bins", 20, "detect", minimum=2),
    }
    if detect_sec["centroid_temperature"] <= 0:
        raise ConfigurationError("config field detect.centroid_temperature must be positive")

    ev = raw.get("eval", {})
    if not isinstance(ev, dict):
        raise ConfigurationError("config field eval must be an object")
    _check_keys(ev, ("pairs_per_kind",), "eval")
    eval_sec = {"pairs_per_kind": _get_int(ev, "pairs_per_kind", 2000, "eval", minimum=1)}

    rt = raw.get("retrain", {})
    if not isinstance(rt, dict):
        raise ConfigurationError("config field retrain must be an object")
    _check_keys(rt, ("detection_method",), "retrain")
    det_method = rt.get("detection_method", METHOD_INTER)
    if det_method not in METHODS:
        raise ConfigurationError(
            f"config field retrain.detection_method must be one of {list(METHODS)}"
        )
    retrain_sec = {"detection_method": det_method}

    resolved = {
        "format_version": CONFIG_FORMAT_VERSION,
        "name": name,
        "seeds": list(seeds),
        "output_dir": output_dir,
        "dataset": dataset,
        "noise": noise,
        "train": train_sec,
        "detect": detect_sec,
        "eval": eval_sec,
        "retrain": retrain_sec,
    }
    # validate the train section end to end by instantiating it
    build_train_config(resolved, class_count, run_seed=0)
    return resolved


def run_config_digest(resolved: dict) -> str:
    """Digest of the science-relevant config (location and label excluded)."""
    body = {k: v for k, v in resolved.items() if k not in ("output_dir", "name")}
    return digest_config(body)


def build_train_config(resolved: dict, class_count: int, run_seed: int) -> TrainConfig:
    t = resolved["train"]
    return TrainConfig(
        loss=loss_config_for(t["loss"], class_count),
        total_steps=t["total_steps"],
        batch_speakers=t["batch_speakers"],
        utts_per_speaker=t["utts_per_speaker"],
        easy_margin_fraction=t["easy_margin_fraction"],
        seed=derive_seed(run_seed, "train"),
        learning_rate=t["learning_rate"],
        hidden_dims=tuple(t["hidden_dims"]),
        embed_dim=t["embed_dim"],
    )


# ----------------------------------------------------------------------
# artifact bookkeeping


def seed_dir(resolved: dict, seed: int) -> Path:
    return Path(resolved["output_dir"]) / f"seed_{seed}"


def _update_manifest(directory: Path, seed: int, digest: str, stage: str,
                     artifacts: list[Path], extras: dict, elapsed: float) -> None:
    path = directory / "manifest.json"
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "labelnoise",
        "tool_version": __version__,
        "seed": seed,
        "config_digest": digest,
        "stages": {},
    }
    if path.exists():
        try:
            previous = read_json(path, "manifest")
            manifest["stages"] = dict(previous.get("stages", {}))
        except (LabelNoiseError, OSError):
            logger.warning("manifest %s unreadable, rebuilding it", path)
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


def cmd_simulate(resolved: dict, seed: int, args) -> None:
    """Generate clean/auxiliary/held-out datasets and the noisy training set."""
    t0 = time.monotonic()
    out = seed_dir(resolved, seed)
    out.mkdir(parents=True, exist_ok=True)
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
        if load_dataset(path) != ds:
            raise ConfigurationError(f"round-trip validation failed for {path}")
        written.append(path)

    noisy_count = len(noisy.noisy_ids())
    logger.info("seed %d: simulated %d utterances, %d noisy", seed, len(noisy), noisy_count)
    _update_manifest(out, seed, run_config_digest(resolved), "simulate", written,
                     {"utterance_count": len(noisy), "noisy_count": noisy_count},
                     time.monotonic() - t0)


def cmd_train(resolved: dict, seed: int, args) -> None:
    """Train the embedder on the (noisy) training set."""
    t0 = time.monotonic()
    out = seed_dir(resolved, seed)
    out.mkdir(parents=True, exist_ok=True)
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
    _update_manifest(out, seed, run_config_digest(resolved), "train",
                     [model_path, curve_path],
                     {"loss_kind": cfg.loss.kind, "total_steps": cfg.total_steps,
                      "final_loss": final_loss},
                     time.monotonic() - t0)


def cmd_detect(resolved: dict, seed: int, args) -> None:
    """Score inconsistency, rank, select top q%, and report precision."""
    t0 = time.monotonic()
    out = seed_dir(resolved, seed)
    out.mkdir(parents=True, exist_ok=True)
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
    if args.method is None or args.method == "both":
        methods = resolved["detect"]["methods"]
    else:
        methods = [args.method]

    emb = embed_dataset(model, ds)
    digest = run_config_digest(resolved)
    written = []
    extras: dict = {"q": q}
    for method in methods:
        if method == METHOD_INTRA:
            bank = compute_centroids(model, ds, embeddings=emb)
            scores = intra_inconsistency(model, ds, bank, embeddings=emb)
        else:
            classifier = make_inter_classifier(
                model, ds, resolved["detect"]["centroid_temperature"], embeddings=emb)
            scores = inter_inconsistency(model, ds, classifier, embeddings=emb)
        result = detection_precision(rank_and_select(scores, ds.utt_id, q), ds)
        rows = export_score_histogram(scores, ds, resolved["detect"]["histogram_bins"])

        scores_path = out / f"scores_{method}.csv"
        det_path = out / f"detection_{method}.json"
        hist_path = out / f"histogram_{method}.csv"
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
    _update_manifest(out, seed, digest, "detect", written, extras, time.monotonic() - t0)


def cmd_eval(resolved: dict, seed: int, args) -> None:
    """Generate held-out trials and report the model's EER."""
    t0 = time.monotonic()
    out = seed_dir(resolved, seed)
    out.mkdir(parents=True, exist_ok=True)
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
    _update_manifest(out, seed, run_config_digest(resolved), "eval",
                     [trials_path, eer_path],
                     {"eer": result.eer, "trial_count": result.trial_count,
                      "dropped_trials": dropped},
                     time.monotonic() - t0)


def cmd_retrain(resolved: dict, seed: int, args) -> None:
    """Remove predicted-noisy utterances, retrain, and compare EER."""
    t0 = time.monotonic()
    out = seed_dir(resolved, seed)
    out.mkdir(parents=True, exist_ok=True)
    method = args.method or resolved["retrain"]["detection_method"]
    det_path = Path(args.detection) if args.detection else out / f"detection_{method}.json"
    detection = read_json(_require_file(det_path, "detection"), "detection")
    predicted_raw = detection.get("predicted_noisy")
    if not isinstance(predicted_raw, list) or any(
            not isinstance(i, int) or isinstance(i, bool) for i in predicted_raw):
        raise ConfigurationError(
            f"detection file {det_path} lacks a predicted_noisy id list"
        )
    predicted = set(predicted_raw)

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
    _update_manifest(out, seed, run_config_digest(resolved), "retrain",
                     [retrained_path, report_path],
                     {"method": method, "removed_count": outcome.removed_count,
                      "eer_before": outcome.before.eer, "eer_after": outcome.after.eer},
                     time.monotonic() - t0)


def _mean_or_missing(values: list[float]) -> str:
    if not values:
        return "missing"
    return format(sum(values) / len(values), ".6g")


def cmd_report(args) -> int:
    """Aggregate detection precision and EER across runs into one CSV."""
    lines = ["run,noise_kind,noise_q,loss,method,precision,recall,eer,seeds"]
    any_rows = False
    for run_dir in args.run_dirs:
        root = Path(run_dir)
        cfg_path = root / "config.json"
        if not cfg_path.exists():
            logger.warning("skipping %s: no config.json", root)
            continue
        resolved = read_json(cfg_path, "run config")
        noise = resolved.get("noise")
        noise_kind = "clean" if noise is None else noise["kind"]
        noise_q = 0.0 if noise is None else noise["level_q"]
        loss_kind = resolved["train"]["loss"]["kind"]
        for method in resolved["detect"]["methods"]:
            precisions, recalls, eers, seen = [], [], [], 0
            for seed in resolved["seeds"]:
                sdir = root / f"seed_{seed}"
                det_path = sdir / f"detection_{method}.json"
                if det_path.exists():
                    det = read_json(det_path, "detection")
                    seen += 1
                    if det.get("precision") is not None:
                        precisions.append(float(det["precision"]))
                    if det.get("recall") is not None:
                        recalls.append(float(det["recall"]))
                else:
                    logger.warning("missing artifact %s", det_path)
                eer_path = sdir / "eer.json"
                if eer_path.exists():
                    eers.append(float(read_json(eer_path, "EER report")["eer"]))
                else:
                    logger.warning("missing artifact %s", eer_path)
            lines.append(",".join([
                resolved.get("name", root.name),
                noise_kind,
                format(noise_q, ".6g"),
                loss_kind,
                method,
                _mean_or_missing(precisions),
                _mean_or_missing(recalls),
                _mean_or_missing(eers),
                str(seen),
            ]))
            any_rows = True
    if not any_rows:
        raise ConfigurationError("no usable run directories; nothing to report")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# entry point

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
            _PIPELINE[args.command](resolved, seed, args)
        return 0
    except LabelNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
