"""Independent brute-force reference implementations used as test oracles.

Deliberately written with plain Python loops and naive formulas so they
share no code path with the package implementations they check. The
per-pair ``cosine_similarity`` is the one-row-at-a-time form that the
package's batched cosines must reproduce, the per-block Adam loop is
the one-block-at-a-time update that the flat-vector ``adam_step`` must
reproduce bit for bit, and the per-class batch sampler is the one-draw-
per-class form whose batches and generator state the class-table sampler
must reproduce bit for bit. The scalar trial generator is the one-
``Trial``-object-per-pair form whose trials the columnar, block-drawing
``generate_trials`` must reproduce bit for bit. The hand-written config
resolver is the field-by-field form whose resolved configs the
table-driven ``resolve_config`` must reproduce. The one-call-per-
operation AAM/AAMSC step (losses, norms, MLP forward pass and Adam) is
the form whose values, gradients and trained parameters the fused step
must reproduce bit for bit, and the full MLP backward pass, input
gradient included, is the one whose weight and bias gradients
``mlp_backward`` must reproduce. The one-call-per-operation confidences
and inter-class loop are the forms whose bits ``classify_confidence``,
``CentroidClassifier.confidences`` and ``inter_inconsistency`` must
reproduce. The one-call-per-operation GE2E loss (``np.linalg.norm``,
fancy-indexed diagonal, ``np.clip``, ``np.mean`` and ``.copy()``), with
the method-form ``log_sum_exp`` that it and the AAM step call, is the
form whose value and gradients ``ge2e_loss`` must reproduce bit for bit.
The dict-keyed centroid bank, intra-class score and centroid
classifier are the per-class forms whose bits the array bank must
reproduce. ``read_trials_csv`` reads back what ``write_trials_csv``
writes. The four per-row CSV writers are the forms whose bytes the
one-``write_text``-call writers must reproduce.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from labelnoise.embedder import AdamState, MlpParams, TrainConfig, _first_non_finite
from labelnoise.errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    LabelNoiseError,
    ParseError,
)
from labelnoise.evaluation import Trials
from labelnoise.losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    LossConfig,
    LossOutput,
    nsl_config,
)
from labelnoise.nld import METHOD_INTER, METHOD_INTRA, CentroidClassifier
from labelnoise.numerics import row_dot, softmax
from labelnoise.seeding import derive_seed, named_rng
from labelnoise.synthdata import DEFAULT_WITHIN_CLASS_SPREAD, Dataset, NoiseSpec

logger = logging.getLogger(__name__)


def brute_centroids(embeddings, observed):
    """Per observed class: plain arithmetic mean, summed in index order."""
    dim = len(embeddings[0])
    sums: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for row, c in zip(embeddings, observed):
        if c not in sums:
            sums[c] = [0.0] * dim
            counts[c] = 0
        for j in range(dim):
            sums[c][j] += float(row[j])
        counts[c] += 1
    return {c: [s / counts[c] for s in sums[c]] for c in sums}, counts


def _cos(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


def as_vector(a, name: str = "input") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise DomainError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} contains non-finite entries")
    return v


def _peak_scaled(v: np.ndarray) -> np.ndarray:
    """``v`` divided by its peak when its norm is below 1e-150, else ``v``.

    Below that norm the squared entries underflow and ``norm`` loses its
    precision; the cosine does not depend on scale.
    """
    peak = np.max(np.abs(v))
    return v / peak if peak > 0.0 and np.linalg.norm(v) < 1e-150 else v


def cosine_similarity(a, b) -> float:
    """Cosine of one vector pair by np.dot and 1-D norms, clamped to [-1, 1].

    The per-pair reference for the batched cosines in detection and trial
    scoring. Raises DomainError on dimension mismatch or a zero-norm
    argument, naming which argument is degenerate.
    """
    va = _peak_scaled(as_vector(a, "a"))
    vb = _peak_scaled(as_vector(b, "b"))
    if va.shape != vb.shape:
        raise DomainError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0:
        raise DomainError("argument 'a' has zero norm")
    if nb == 0.0:
        raise DomainError("argument 'b' has zero norm")
    c = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(-1.0, c))


def brute_intra(embeddings, observed, centroids):
    """1 - cos(embedding, own-class centroid), clamped to [-1, 1] first."""
    out = []
    for row, c in zip(embeddings, observed):
        cos = min(1.0, max(-1.0, _cos(row, centroids[c])))
        out.append(1.0 - cos)
    return out


def brute_inter(probabilities, observed, class_ids):
    """1 - P(observed class); missing class scores the maximum 1.0."""
    index = {c: i for i, c in enumerate(class_ids)}
    out = []
    for p, c in zip(probabilities, observed):
        if c not in index:
            out.append(1.0)
        else:
            out.append(1.0 - float(p[index[c]]))
    return out


def brute_top_q_percent(utt_ids, scores, q):
    """ids of the ceil(q/100 * n) largest scores, ties toward smaller id.

    The count uses decimal semantics for q (the level as written, not its
    binary-float neighbor), matching the selection contract.
    """
    n = len(utt_ids)
    if q == 0:
        return set()
    k = int(math.ceil(Decimal(str(q)) * n / Decimal(100)))
    order = sorted(zip(utt_ids, scores), key=lambda t: (-t[1], t[0]))
    return {utt_id for utt_id, _ in order[:k]}


def brute_precision_recall(predicted, truly_noisy):
    hits = len(set(predicted) & set(truly_noisy))
    precision = hits / len(predicted) if predicted else None
    recall = hits / len(truly_noisy) if truly_noisy else None
    return precision, recall


def brute_histogram(scores, is_noisy, bins):
    """Min-max normalize, then count (clean, noisy) per right-closed bin."""
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [(0.0, 1.0, sum(1 for f in is_noisy if not f),
                 sum(1 for f in is_noisy if f))]
    clean = [0] * bins
    noisy = [0] * bins
    for s, flag in zip(scores, is_noisy):
        norm = (s - lo) / (hi - lo)
        b = 0
        while b < bins - 1 and norm > (b + 1) / bins:
            b += 1
        if flag:
            noisy[b] += 1
        else:
            clean[b] += 1
    return [(b / bins, (b + 1) / bins, clean[b], noisy[b]) for b in range(bins)]


def brute_eer_midpoint(scores, is_target):
    """EER by exhaustive midpoint-threshold search.

    Evaluates FAR/FRR at midpoints between adjacent distinct scores plus
    one threshold below and above everything, picks the threshold with the
    smallest |FAR - FRR|, and returns (FAR + FRR) / 2 there.
    """
    tar = sorted(s for s, t in zip(scores, is_target) if t)
    non = sorted(s for s, t in zip(scores, is_target) if not t)
    distinct = sorted(set(scores))
    thresholds = [distinct[0] - 1.0]
    for a, b in zip(distinct, distinct[1:]):
        thresholds.append((a + b) / 2.0)
    thresholds.append(distinct[-1] + 1.0)
    # each distinct score is also a valid operating point (score >= t accepts)
    thresholds.extend(distinct)

    best = None
    for t in thresholds:
        far = sum(1 for s in non if s >= t) / len(non)
        frr = sum(1 for s in tar if s < t) / len(tar)
        gap = abs(far - frr)
        if best is None or gap < best[0]:
            best = (gap, (far + frr) / 2.0)
    return best[1]


@dataclass
class BlockAdamState:
    """First/second-moment accumulators for a fixed list of parameter blocks."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @staticmethod
    def fresh(params: list[np.ndarray], learning_rate: float, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> "BlockAdamState":
        return BlockAdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step_count=0,
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def block_adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: BlockAdamState,
    names: list[str] | None = None,
) -> tuple[list[np.ndarray], BlockAdamState]:
    """One Adam update with bias correction; params are updated in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigurationError("params/grads/state length mismatch")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            label = names[i] if names else f"block {i}"
            raise DivergenceError(f"non-finite gradient in parameter block {label!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ConfigurationError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params, state


def per_class_sample_positions(
    groups: dict[int, np.ndarray], n_speakers: int, m_utts: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw N distinct observed classes (uniform, no replacement) and M
    positions from each (uniform, no replacement); returns the (N, M)
    dataset positions and the N class labels.

    Classes with fewer than M utterances are excluded from the draw; if
    fewer than N classes remain eligible the batch is infeasible.
    """
    eligible = sorted(c for c, pos in groups.items() if len(pos) >= m_utts)
    if len(eligible) < n_speakers:
        raise ConfigurationError(
            f"need {n_speakers} classes with >= {m_utts} utterances, only {len(eligible)} eligible"
        )
    chosen = rng.choice(len(eligible), size=n_speakers, replace=False)
    labels = np.asarray([eligible[i] for i in chosen], dtype=np.intp)
    positions = np.empty((n_speakers, m_utts), dtype=np.intp)
    for row, c in enumerate(labels):
        positions[row] = rng.choice(groups[c], size=m_utts, replace=False)
    return positions, labels


def ids_by_observed_class(ds: Dataset) -> dict[int, np.ndarray]:
    """Observed class -> positions (not utt_ids) of its members, in order."""
    order = np.argsort(ds.observed_class, kind="stable")
    classes, starts = np.unique(ds.observed_class[order], return_index=True)
    return dict(zip(classes.tolist(), np.split(order, starts[1:])))


@dataclass(frozen=True)
class Trial:
    enroll_utt_id: int
    test_utt_id: int
    is_target: bool


def scalar_generate_trials(ds: Dataset, pairs_per_kind: int, seed: int) -> list[Trial]:
    """Sample balanced target/nontarget utterance pairs from a clean dataset.

    Targets are drawn without replacement from all same-class pairs;
    nontargets are rejection-sampled cross-class pairs, also distinct.
    Raises ConfigurationError when the dataset cannot supply enough of
    either kind.
    """
    if pairs_per_kind < 1:
        raise ConfigurationError(f"pairs_per_kind must be >= 1, got {pairs_per_kind}")
    if not ds.is_clean:
        raise ConfigurationError("trials must come from a clean dataset")
    rng = named_rng(seed, "trials")

    # same-class pairs (enroll < test), class by class in ascending order
    enroll, test = [], []
    for pos in ids_by_observed_class(ds).values():
        members = np.sort(ds.utt_id[pos])
        i, j = np.triu_indices(len(members), 1)
        enroll.append(members[i])
        test.append(members[j])
    target_enroll = np.concatenate(enroll).tolist() if enroll else []
    target_test = np.concatenate(test).tolist() if test else []
    pool_size = len(target_enroll)
    if pool_size < pairs_per_kind:
        raise ConfigurationError(
            f"dataset supplies only {pool_size} same-class pairs, need {pairs_per_kind}"
        )
    ids = ds.utt_id.tolist()
    observed = ds.observed_class.tolist()
    n = len(ids)
    cross_total = n * (n - 1) // 2 - pool_size
    if cross_total < pairs_per_kind:
        raise ConfigurationError(
            f"dataset supplies only {cross_total} cross-class pairs, "
            f"need {pairs_per_kind}"
        )

    pick = rng.choice(pool_size, size=pairs_per_kind, replace=False)
    trials = [Trial(target_enroll[i], target_test[i], is_target=True)
              for i in np.sort(pick).tolist()]

    seen: set[tuple[int, int]] = set()
    while len(seen) < pairs_per_kind:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or observed[a] == observed[b]:
            continue
        pair = (ids[min(a, b)], ids[max(a, b)])
        if pair in seen:
            continue
        seen.add(pair)
    trials.extend(Trial(e, t, is_target=False) for e, t in sorted(seen))
    return trials


# The run-config resolver as hand-written field by field, one helper per
# JSON kind and one branch per loss kind; the table-driven
# ``cli.resolve_config`` must return the same dict, or refuse the same
# configs with ConfigurationError.

CONFIG_FORMAT_VERSION = 1
DEFAULT_SEEDS = (0, 2)
METHODS = (METHOD_INTRA, METHOD_INTER)


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


def _loss_config_for(loss: dict, class_count: int) -> LossConfig:
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


def handwritten_resolve_config(raw: dict) -> dict:
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
    _build_train_config(resolved, class_count, run_seed=0)
    return resolved


def _build_train_config(resolved: dict, class_count: int, run_seed: int) -> TrainConfig:
    t = resolved["train"]
    return TrainConfig(
        loss=_loss_config_for(t["loss"], class_count),
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
# The AAM/AAMSC training step as one numpy call per operation: the
# reference whose values and gradients the fused step in ``losses``,
# ``numerics`` and ``embedder`` must reproduce bit for bit. Sub-centers
# are picked with ``argmax`` and moved with the along-axis helpers, norms
# come from ``np.linalg.norm``, the MLP allocates a new array per bias
# add and ``tanh``, and Adam allocates its temporaries.

_UNDERFLOW_NORM = 1e-150


def plain_l2_normalize_rows(m: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a 2-D array; returns (normalized rows, original norms).

    Raises DomainError naming ``what`` and the row index if any row has
    zero norm.
    """
    x = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    # Below this norm the squared entries underflow and the norm loses its
    # precision; such rows are measured again after scaling by their peak.
    small = np.flatnonzero(norms < _UNDERFLOW_NORM)
    if small.size:
        peak = np.max(np.abs(x[small]), axis=1)
        scaled = x[small] / np.where(peak > 0.0, peak, 1.0)[:, None]
        norms[small] = peak * np.linalg.norm(scaled, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise DomainError(f"{what} row {int(bad[0])} has zero norm")
    return x / norms[:, None], norms


def _plain_check_labels(labels: np.ndarray, class_count: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DomainError(f"labels must be 1-D, got shape {y.shape}")
    if y.size == 0:
        raise DomainError("batch must be non-empty")
    if np.any(y < 0) or np.any(y >= class_count):
        raise DomainError(f"label out of range [0, {class_count})")
    return y.astype(np.intp)


def _plain_margin_cross_entropy(cos: np.ndarray, y: np.ndarray, scale: float, margin: float,
                                easy_margin: bool) -> tuple[float, np.ndarray]:
    """Cross-entropy over margin-adjusted scaled cosines.

    The target-class cosine is replaced by cos(phi + m), computed as
    cos*cos(m) - sin*sin(m). Outside the monotone range (standard mode:
    cos <= cos(pi - m); easy mode: cos <= 0) the target falls back to the
    linearized cos - m*sin(m), or to the raw cosine respectively. Returns
    the mean loss and its gradient with respect to every cosine entry.
    """
    n = cos.shape[0]
    rows = np.arange(n)
    cos_y = cos[rows, y]
    sin_y = np.sqrt(np.clip(1.0 - cos_y * cos_y, 0.0, 1.0))
    cos_m, sin_m = math.cos(margin), math.sin(margin)

    phi = cos_y * cos_m - sin_y * sin_m
    # d phi / d cos_y, with the sin_y -> 0 singularity patched (the exact
    # derivative is unbounded there; margin losses never operate at the
    # poles, and with m = 0 the expression is exact everywhere).
    safe_sin = np.where(sin_y < 1e-12, 1.0, sin_y)
    dphi = cos_m + sin_m * cos_y / safe_sin
    if easy_margin:
        active = cos_y > 0.0
        target = np.where(active, phi, cos_y)
        dtarget = np.where(active, dphi, 1.0)
    else:
        active = cos_y > math.cos(math.pi - margin)
        target = np.where(active, phi, cos_y - margin * sin_m)
        dtarget = np.where(active, dphi, 1.0)

    logits = scale * cos
    logits[rows, y] = scale * target
    value = float(np.mean(plain_log_sum_exp(logits, axis=1) - logits[rows, y]))

    dlogits = softmax(logits, axis=1)
    dlogits[rows, y] -= 1.0
    dlogits /= n
    dcos = scale * dlogits
    dcos[rows, y] *= dtarget
    return value, dcos


def _plain_cosine_backward(dcos: np.ndarray, cos: np.ndarray, xhat: np.ndarray,
                           xnorm: np.ndarray, what: np.ndarray,
                           wnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a gradient on the cosine matrix back to raw x rows and w rows."""
    grad_x = (dcos @ what - np.sum(dcos * cos, axis=1, keepdims=True) * xhat) / xnorm[:, None]
    grad_w = (dcos.T @ xhat - np.sum(dcos * cos, axis=0)[:, None] * what) / wnorm[:, None]
    return grad_x, grad_w


def plain_aam_loss(embeddings: np.ndarray, labels, params: ClassifierParams,
                   cfg: AAMConfig) -> LossOutput:
    """Additive angular margin softmax over unit-normalized embeddings/weights."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = _plain_check_labels(labels, cfg.class_count)
    if params.weight.shape[0] != cfg.class_count:
        raise ConfigurationError(
            f"weight has {params.weight.shape[0]} rows, expected {cfg.class_count}"
        )
    xhat, xnorm = plain_l2_normalize_rows(x, "embedding")
    what, wnorm = plain_l2_normalize_rows(params.weight, "weight")
    cos = np.clip(xhat @ what.T, -1.0, 1.0)

    value, dcos = _plain_margin_cross_entropy(cos, y, cfg.scale, cfg.margin, cfg.easy_margin)
    grad_x, grad_w = _plain_cosine_backward(dcos, cos, xhat, xnorm, what, wnorm)
    return LossOutput(value=value, grad_embeddings=grad_x,
                      grad_params=ClassifierParams(weight=grad_w))


def plain_aamsc_loss(embeddings: np.ndarray, labels, params: ClassifierParams,
                     cfg: AAMSCConfig) -> LossOutput:
    """Sub-center AAM: per class, the maximum sub-center cosine competes."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = _plain_check_labels(labels, cfg.class_count)
    c, k = cfg.class_count, cfg.subcenters
    if params.weight.shape[0] != c * k:
        raise ConfigurationError(f"weight has {params.weight.shape[0]} rows, expected {c * k}")
    xhat, xnorm = plain_l2_normalize_rows(x, "embedding")
    what, wnorm = plain_l2_normalize_rows(params.weight, "weight")
    n = x.shape[0]

    cos_sub = np.clip(xhat @ what.T, -1.0, 1.0).reshape(n, c, k)
    # argmax takes the first maximum, i.e. ties break to the lowest index
    k_star = np.argmax(cos_sub, axis=2)
    cos = np.take_along_axis(cos_sub, k_star[:, :, None], axis=2)[:, :, 0]

    value, dcos = _plain_margin_cross_entropy(cos, y, cfg.scale, cfg.margin, cfg.easy_margin)

    dcos_sub = np.zeros((n, c, k))
    np.put_along_axis(dcos_sub, k_star[:, :, None], dcos[:, :, None], axis=2)
    dcos_sub = dcos_sub.reshape(n, c * k)
    cos_flat = cos_sub.reshape(n, c * k)
    grad_x, grad_w = _plain_cosine_backward(dcos_sub, cos_flat, xhat, xnorm, what, wnorm)
    return LossOutput(value=value, grad_embeddings=grad_x,
                      grad_params=ClassifierParams(weight=grad_w))


def plain_mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on (n, d) features; returns (output, per-layer inputs for backward)."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.weights[0].shape[1]:
        raise DomainError(
            f"expected batch of dim-{params.weights[0].shape[1]} features, got shape {h.shape}"
        )
    cache = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        h = z if i == last else np.tanh(z)
        cache.append(h)
    return h, cache


def plain_adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    blocks: list[tuple[str, slice]] | None = None,
) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction on a flat vector, in place.

    ``blocks`` lists the (name, slice) of each parameter block; it only
    names the offending block when the gradient is not finite.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ConfigurationError(f"shape mismatch: parameters {params.shape}, "
                                 f"gradient {grads.shape}, Adam state {state.m.shape}")
    if not np.all(np.isfinite(grads)):
        label = _first_non_finite(grads, blocks)
        raise DivergenceError(f"non-finite gradient in parameter block {label!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grads * grads
    params -= state.learning_rate * (state.m / bc1) / (np.sqrt(state.v / bc2) + state.epsilon)
    return params, state


def plain_mlp_backward(
    params: MlpParams, cache: list[np.ndarray], grad_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(output).

    Returns (weight grads, bias grads, gradient with respect to the input
    batch): the full backward pass, whose weight and bias gradients the
    package's ``mlp_backward`` must reproduce bit for bit.
    """
    last = len(params.weights) - 1
    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    d = np.asarray(grad_out, dtype=np.float64)
    for i in range(last, -1, -1):
        if i != last:
            d = d * (1.0 - cache[i + 1] ** 2)  # tanh'
        grad_w[i] = d.T @ cache[i]
        grad_b[i] = d.sum(axis=0)
        d = d @ params.weights[i]
    return grad_w, grad_b, d



# ----------------------------------------------------------------------
# The GE2E loss as one numpy call per operation: the reference whose value
# and gradients ``losses.ge2e_loss`` must reproduce bit for bit. Norms come
# from ``np.linalg.norm`` and zero norms are found by ``np.any``, the
# diagonal (j, i, j) is read and written by fancy indexing, the clip
# allocates, the mean and sums go through ``np.mean`` and ``np.sum``, and
# the off-diagonal copies are made with ``.copy()``; its ``log_sum_exp``
# reduces through the ``max`` and ``sum`` methods. The zero-norm centroid
# error takes its index from the first element of ``argwhere``'s row:
# ``int`` of a 1-element 1-D array is a ``TypeError`` in numpy 2.4.


def plain_log_sum_exp(z, axis: int = -1):
    """max(z) + log(sum(exp(z - max(z)))) along ``axis``, through the
    ``max`` and ``sum`` methods."""
    x = np.asarray(z, dtype=np.float64)
    if x.size == 0:
        raise DomainError("log_sum_exp input must be non-empty")
    if not np.isfinite(x).all():
        raise DomainError("log_sum_exp input contains non-finite entries")
    m = x.max(axis=axis, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    out = m.squeeze(axis) + np.log(e.sum(axis=axis))
    return float(out) if np.ndim(out) == 0 else out


def plain_ge2e_loss(embeddings: np.ndarray, params: ClassifierParams,
                    cfg: GE2EConfig) -> LossOutput:
    """Contrastive (GE2E) loss on N x M grouped embeddings."""
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 3:
        raise ConfigurationError(f"expected N x M x dim embeddings, got shape {e.shape}")
    n, m, dim = e.shape
    if m < 2:
        raise ConfigurationError(f"GE2E needs M >= 2 utterances per speaker, got {m}")
    w, b = float(params.ge2e_w), float(params.ge2e_b)

    enorm = np.linalg.norm(e, axis=2)
    if np.any(enorm == 0.0):
        j, i = np.argwhere(enorm == 0.0)[0]
        raise DomainError(f"embedding ({j}, {i}) has zero norm")
    ehat = e / enorm[:, :, None]

    csum = e.sum(axis=1)
    cent = csum / m
    cnorm = np.linalg.norm(cent, axis=1)
    if np.any(cnorm == 0.0):
        raise DomainError(f"speaker {int(np.argwhere(cnorm == 0.0)[0][0])} "
                          "has a zero-norm centroid")
    chat = cent / cnorm[:, None]

    cex = (csum[:, None, :] - e) / (m - 1)
    cexnorm = np.linalg.norm(cex, axis=2)
    if np.any(cexnorm == 0.0):
        j, i = np.argwhere(cexnorm == 0.0)[0]
        raise DomainError(f"self-excluded centroid ({j}, {i}) has zero norm")
    cexhat = cex / cexnorm[:, :, None]

    # cosmat[j, i, k]: utterance (j, i) against speaker k's centroid,
    # self-excluded on the diagonal k == j.
    cosmat = np.einsum("jid,kd->jik", ehat, chat)
    diag_cos = np.einsum("jid,jid->ji", ehat, cexhat)
    idx = np.arange(n)
    cosmat[idx, :, idx] = diag_cos
    cosmat = np.clip(cosmat, -1.0, 1.0)

    scores = w * cosmat + b
    lse = plain_log_sum_exp(scores, axis=2)
    own = scores[idx, :, idx]
    value = float(np.mean(lse - own))

    g = softmax(scores, axis=2)
    g[idx, :, idx] -= 1.0
    g /= n * m

    grad_w = float(np.sum(g * cosmat))
    grad_b = float(np.sum(g))

    dcos = g * w
    dcos_diag = dcos[idx, :, idx]
    dcos_off = dcos.copy()
    dcos_off[idx, :, idx] = 0.0

    # first-argument path of every cosine
    sum_dc = np.sum(dcos * cosmat, axis=2)
    grad_e = np.einsum("jik,kd->jid", dcos_off, chat)
    grad_e += dcos_diag[:, :, None] * cexhat
    grad_e -= sum_dc[:, :, None] * ehat
    grad_e /= enorm[:, :, None]

    # full-centroid path, distributed evenly over the speaker's utterances
    cos_off = cosmat.copy()
    cos_off[idx, :, idx] = 0.0
    dcent = np.einsum("jik,jid->kd", dcos_off, ehat)
    dcent -= np.einsum("jik,jik->k", dcos_off, cos_off)[:, None] * chat
    dcent /= cnorm[:, None]
    grad_e += dcent[:, None, :] / m

    # self-excluded centroid path: utterance (j, i)'s own-speaker score
    # touches every e[j, m] except m == i
    dcex = dcos_diag[:, :, None] * (ehat - diag_cos[:, :, None] * cexhat)
    dcex /= cexnorm[:, :, None]
    grad_e += (dcex.sum(axis=1, keepdims=True) - dcex) / (m - 1)

    return LossOutput(value=value, grad_embeddings=grad_e,
                      grad_params=ClassifierParams(ge2e_w=grad_w, ge2e_b=grad_b))

# ----------------------------------------------------------------------
# Inter-class confidences as one numpy call per operation: the reference
# whose probabilities and scores the per-utterance path in ``losses`` and
# ``nld`` must reproduce bit for bit. Norms come from ``np.linalg.norm``,
# clipping from ``np.clip``, the sub-center maximum from
# ``reshape(C, K).max(axis=1)``, the temperature division allocates, and
# the probability check goes through ``np.sum`` and ``np.min``.


def plain_classify_confidence(x: np.ndarray, params: ClassifierParams, cfg: LossConfig,
                              unit_weight: np.ndarray | None = None) -> np.ndarray:
    """Probability over classes from the trained classifier, margin/scale off."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"expected a single embedding vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DomainError("embedding has zero norm")
    if isinstance(cfg, CEConfig):
        return softmax(params.weight @ v + params.bias)
    if isinstance(cfg, (AAMConfig, AAMSCConfig)):
        if unit_weight is None:
            unit_weight, _ = plain_l2_normalize_rows(params.weight, "weight")
        cos = np.clip(unit_weight @ (v / norm), -1.0, 1.0)
        if isinstance(cfg, AAMSCConfig):
            cos = cos.reshape(cfg.class_count, cfg.subcenters).max(axis=1)
        return softmax(cos)
    if isinstance(cfg, GE2EConfig):
        raise ConfigurationError("GE2E has no parametric classifier; use the centroid classifier")
    raise ConfigurationError(f"unknown loss config {type(cfg).__name__}")


def plain_centroid_confidences(directions: np.ndarray, temperature: float,
                               x: np.ndarray) -> np.ndarray:
    """Softmax over cosine(x, unit class direction) / temperature."""
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ConfigurationError("zero-norm embedding has no confidence")
    cos = np.clip(directions @ (x / norm), -1.0, 1.0)
    return softmax(cos / temperature)


def plain_inter_inconsistency(embeddings: np.ndarray, observed: np.ndarray,
                              class_ids: list[int], confidences) -> np.ndarray:
    """1 - confidence(x)[observed class], in dataset order; the maximal
    score 1.0 for a zero-norm embedding or a class the classifier lacks."""
    index_of = {c: i for i, c in enumerate(class_ids)}
    bad = (np.linalg.norm(embeddings, axis=1) == 0.0) | ~np.isin(observed, class_ids)
    scores = np.full(len(observed), 1.0)
    for i in np.flatnonzero(~bad).tolist():
        p = confidences(embeddings[i])
        total, lowest = float(np.sum(p)), float(np.min(p))
        if abs(total - 1.0) > 1e-6 or lowest < 0.0:
            raise AssertionError(f"not a probability vector (sum {total!r}, min {lowest!r})")
        scores[i] = 1.0 - float(p[index_of[int(observed[i])]])
    return scores


def read_trials_csv(path) -> Trials:
    """The trials in a CSV written by ``evaluation.write_trials_csv``."""
    enrolls: list[int] = []
    tests: list[int] = []
    targets: list[bool] = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != "enroll_id,test_id,is_target":
            raise ParseError(f"{path}: unexpected trials header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 3 or parts[2] not in ("true", "false"):
                raise ParseError(f"{path}:{lineno}: malformed trial row {line!r}")
            try:
                enroll, test = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer utterance id") from exc
            if not (-2**63 <= enroll < 2**63 and -2**63 <= test < 2**63):
                raise ParseError(f"{path}:{lineno}: utterance id outside the 64-bit range")
            enrolls.append(enroll)
            tests.append(test)
            targets.append(parts[2] == "true")
    return Trials(enrolls, tests, targets)


# ----------------------------------------------------------------------
# The centroid bank as dicts keyed by class: ``compute_centroids``,
# ``intra_inconsistency`` and ``build_centroid_classifier`` as they were
# before the bank became a (class_count, d) array. The bodies are kept as
# they were; the embeddings are a required argument, the grouping is
# ``ids_by_observed_class`` above, and the degenerate-score warning is
# left out.


@dataclass
class DictCentroidBank:
    """Mean embedding and member count per observed class."""

    centroids: dict[int, np.ndarray]
    counts: dict[int, int]
    embed_dim: int
    skipped_classes: list[int]


def dict_compute_centroids(emb: np.ndarray, ds: Dataset) -> DictCentroidBank:
    """Arithmetic mean of embeddings per observed class, noisy ones included.

    Classes with no utterances are excluded and recorded in
    ``skipped_classes``.
    """
    groups = ids_by_observed_class(ds)
    centroids: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for c in sorted(groups):
        pos = groups[c]
        centroids[c] = emb[pos].mean(axis=0)
        counts[c] = len(pos)
    skipped = [c for c in range(ds.class_count) if c not in groups]
    if skipped:
        logger.warning("centroid bank: %d empty class(es) excluded: %s", len(skipped), skipped)
    return DictCentroidBank(
        centroids=centroids,
        counts=counts,
        embed_dim=emb.shape[1],
        skipped_classes=skipped,
    )


def dict_intra_inconsistency(emb: np.ndarray, ds: Dataset, bank: DictCentroidBank) -> np.ndarray:
    """1 - cos(embedding, own observed-class centroid), in dataset order."""
    if len(ds) == 0:
        return np.empty(0)
    # a class missing from the bank gets a zero centroid, hence the maximal score
    classes, row_class = np.unique(ds.observed_class, return_inverse=True)
    zero = np.zeros(emb.shape[1])
    cent = np.stack([bank.centroids.get(c, zero) for c in classes.tolist()])[row_class]
    # sqrt of the row self-dot has the bits of np.linalg.norm on each row
    xn = np.sqrt(row_dot(emb, emb))
    cn = np.sqrt(row_dot(cent, cent))
    bad = (xn == 0.0) | (cn == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = row_dot(emb, cent) / (xn * cn)
    return np.where(bad, 2.0, 1.0 - np.clip(cos, -1.0, 1.0))


def dict_build_centroid_classifier(bank: DictCentroidBank,
                                   temperature: float) -> CentroidClassifier:
    """Manually constructed classifier from class centroids (GE2E path)."""
    if temperature <= 0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    if not bank.centroids:
        raise ConfigurationError("centroid bank is empty")
    ids, rows = [], []
    for c in sorted(bank.centroids):
        v = bank.centroids[c]
        n = np.linalg.norm(v)
        if n == 0.0:
            logger.warning("centroid classifier: class %d has zero-norm centroid, excluded", c)
            continue
        ids.append(c)
        rows.append(v / n)
    if not ids:
        raise ConfigurationError("all centroids have zero norm")
    return CentroidClassifier(class_ids=ids, directions=np.stack(rows), temperature=temperature)


# ----------------------------------------------------------------------
# The four CSV writers as they were before ``jsonutil.write_text``, with
# the context manager they wrote through: one ``fh.write`` per row (a
# ``writelines`` for trials) and ``format(v, ".17g")`` for floats. The
# ``write_text`` writers must give the same bytes.


@contextlib.contextmanager
def _replacing_file(path):
    """An ASCII text file that takes the place of ``path`` once written.

    The text goes to a temporary sibling that is renamed over ``path``
    when the block ends; an error removes it and leaves ``path`` as it
    was, so a crash mid-write never leaves a truncated artifact.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_scores_csv(scores: np.ndarray, ds: Dataset, method: str, path) -> None:
    """CSV columns: utt_id,method,score,is_noisy_truth (sorted by utt_id)."""
    order = np.argsort(ds.utt_id, kind="stable")
    with _replacing_file(path) as fh:
        fh.write("utt_id,method,score,is_noisy_truth\n")
        for utt_id, score, noisy in zip(ds.utt_id[order].tolist(),
                                        np.asarray(scores)[order].tolist(),
                                        ds.is_noisy[order].tolist()):
            fh.write("%d,%s,%s,%s\n"
                     % (utt_id, method, format(score, ".17g"), "true" if noisy else "false"))


def write_histogram_csv(rows: list[tuple[float, float, int, int]], path) -> None:
    """CSV columns: bin_lo,bin_hi,clean_count,noisy_count."""
    with _replacing_file(path) as fh:
        fh.write("bin_lo,bin_hi,clean_count,noisy_count\n")
        for lo, hi, clean, noisy in rows:
            fh.write("%s,%s,%d,%d\n" % (format(lo, ".17g"), format(hi, ".17g"), clean, noisy))


def write_trials_csv(trials: Trials, path) -> None:
    """CSV columns: enroll_id,test_id,is_target."""
    labels = np.where(trials.is_target, "true", "false")
    with _replacing_file(path) as fh:
        fh.write("enroll_id,test_id,is_target\n")
        fh.writelines("%d,%d,%s\n" % row for row in zip(
            trials.enroll_id.tolist(), trials.test_id.tolist(), labels.tolist()))


def write_loss_curve(curve: list[tuple[int, float]], path) -> None:
    """CSV columns: step,loss."""
    with _replacing_file(path) as fh:
        fh.write("step,loss\n")
        for step, value in curve:
            fh.write("%d,%s\n" % (step, format(value, ".17g")))
