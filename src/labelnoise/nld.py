"""Noisy-label detection by inconsistency ranking.

Two per-utterance inconsistency scores over a trained embedder:

* intra-class: one minus the cosine between an utterance's embedding and
  the mean embedding (centroid) of its observed class;
* inter-class: one minus the classifier's confidence in the observed
  label (for GE2E, a classifier is built from the class centroids).

Scores are ranked dataset-wide, the top q% largest are predicted noisy,
and the prediction is compared against ground-truth flags to obtain
precision (and recall as an added diagnostic).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .embedder import TrainedModel, embed_batch
from .errors import ConfigurationError, InternalError
from .jsonutil import write_json17
from .losses import CEConfig, GE2EConfig, classify_confidence
from .numerics import l2_normalize_rows, row_dot, softmax
from .synthdata import Dataset

logger = logging.getLogger(__name__)

METHOD_INTRA = "intra"
METHOD_INTER = "inter"

# Raw cosines live in [-1, 1]; softmax at temperature 1 over many classes
# is nearly uniform there, so the centroid classifier sharpens by default.
DEFAULT_CENTROID_TEMPERATURE = 0.1

MAX_INTRA_SCORE = 2.0
MAX_INTER_SCORE = 1.0


@dataclass
class CentroidBank:
    """Mean embedding and member count per observed class."""

    centroids: dict[int, np.ndarray]
    counts: dict[int, int]
    embed_dim: int
    skipped_classes: list[int]


@dataclass
class DetectionResult:
    predicted_noisy: set[int]
    q_used: float
    precision: float | None = None
    recall: float | None = None

    @property
    def selected_count(self) -> int:
        return len(self.predicted_noisy)


def embed_dataset(model: TrainedModel, ds: Dataset) -> np.ndarray:
    """Embeddings for every utterance, in dataset order."""
    return embed_batch(model.embedder, ds.features)


def compute_centroids(model: TrainedModel, ds: Dataset,
                      embeddings: np.ndarray | None = None) -> CentroidBank:
    """Arithmetic mean of embeddings per observed class, noisy ones included.

    Classes with no utterances are excluded and recorded in
    ``skipped_classes``. ``embeddings`` may be passed to reuse a
    previously computed embedding matrix (dataset order).
    """
    emb = embed_dataset(model, ds) if embeddings is None else embeddings
    groups = ds.ids_by_observed_class()
    centroids: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for c in sorted(groups):
        pos = groups[c]
        centroids[c] = emb[pos].mean(axis=0)
        counts[c] = len(pos)
    skipped = [c for c in range(ds.class_count) if c not in groups]
    if skipped:
        logger.warning("centroid bank: %d empty class(es) excluded: %s", len(skipped), skipped)
    return CentroidBank(
        centroids=centroids,
        counts=counts,
        embed_dim=emb.shape[1],
        skipped_classes=skipped,
    )


# utt_ids quoted in a degenerate-score warning; the count covers the rest
_WARN_IDS = 5


def _warn_degenerate(ds: Dataset, bad: np.ndarray, what: str, method: str) -> None:
    ids = ds.utt_id[bad]
    if len(ids):
        logger.warning("%d utterance(s): %s, assigning maximal %s score (utt_id %s%s)",
                       len(ids), what, method, ", ".join(map(str, ids[:_WARN_IDS].tolist())),
                       ", ..." if len(ids) > _WARN_IDS else "")


def intra_inconsistency(model: TrainedModel, ds: Dataset, bank: CentroidBank,
                        embeddings: np.ndarray | None = None) -> np.ndarray:
    """1 - cos(embedding, own observed-class centroid), in dataset order.

    A zero-norm embedding or centroid yields the maximal score 2.0 with a
    warning rather than failing the run: a degenerate embedding is itself
    maximally inconsistent evidence.
    """
    emb = embed_dataset(model, ds) if embeddings is None else embeddings
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
    _warn_degenerate(ds, bad, "degenerate embedding/centroid", "intra-class")
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = row_dot(emb, cent) / (xn * cn)
    return np.where(bad, MAX_INTRA_SCORE, 1.0 - np.clip(cos, -1.0, 1.0))


class ParametricClassifier:
    """Confidence from trained CE/AAM/AAMSC parameters, margin and scale off.

    The cosine classifiers' weight rows are normalized once, here, not
    once per scored embedding.
    """

    def __init__(self, model: TrainedModel):
        cfg = model.loss_config
        if isinstance(cfg, GE2EConfig):
            raise ConfigurationError("GE2E models need the centroid classifier")
        self._params = model.classifier
        self._cfg = cfg
        self._unit_weight = (None if isinstance(cfg, CEConfig)
                             else l2_normalize_rows(model.classifier.weight, "weight")[0])
        self.class_ids = list(range(cfg.class_count))

    def confidences(self, x: np.ndarray) -> np.ndarray:
        return classify_confidence(x, self._params, self._cfg, self._unit_weight)


class CentroidClassifier:
    """Softmax over cosine(x, class centroid) / temperature."""

    def __init__(self, class_ids: list[int], directions: np.ndarray, temperature: float):
        self.class_ids = class_ids
        self._directions = directions  # unit rows
        self._temperature = temperature

    def confidences(self, x: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise ConfigurationError("zero-norm embedding has no confidence")
        cos = np.clip(self._directions @ (x / norm), -1.0, 1.0)
        return softmax(cos / self._temperature)


def build_centroid_classifier(bank: CentroidBank,
                              temperature: float = DEFAULT_CENTROID_TEMPERATURE
                              ) -> CentroidClassifier:
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


def make_inter_classifier(model: TrainedModel, ds: Dataset,
                          temperature: float = DEFAULT_CENTROID_TEMPERATURE,
                          embeddings: np.ndarray | None = None):
    """The inter-class confidence source for a model: parametric for
    CE/AAM/AAMSC, centroid-built for GE2E."""
    if isinstance(model.loss_config, GE2EConfig):
        bank = compute_centroids(model, ds, embeddings=embeddings)
        return build_centroid_classifier(bank, temperature)
    return ParametricClassifier(model)


def inter_inconsistency(model: TrainedModel, ds: Dataset, classifier,
                        embeddings: np.ndarray | None = None) -> np.ndarray:
    """1 - confidence in the observed label, in dataset order.

    A classifier output that is not a probability vector (a negative
    entry, or a sum away from 1) is an internal error.
    """
    emb = embed_dataset(model, ds) if embeddings is None else embeddings
    index_of = {c: i for i, c in enumerate(classifier.class_ids)}
    bad = (np.sqrt(row_dot(emb, emb)) == 0.0) | ~np.isin(ds.observed_class, classifier.class_ids)
    _warn_degenerate(ds, bad, "no usable confidence (degenerate embedding or missing class)",
                     "inter-class")
    observed = ds.observed_class.tolist()
    scores = np.full(len(ds), MAX_INTER_SCORE)
    for i in np.flatnonzero(~bad).tolist():
        p = classifier.confidences(emb[i])
        total, lowest = float(np.sum(p)), float(np.min(p))
        if abs(total - 1.0) > 1e-6 or lowest < 0.0:
            raise InternalError(
                f"classifier output is not a probability vector (sum {total!r}, min {lowest!r})"
            )
        scores[i] = 1.0 - float(p[index_of[observed[i]]])
    return scores


def rank_and_select(scores: np.ndarray, utt_id: np.ndarray, q: float) -> DetectionResult:
    """Predict the ceil(q/100 * n) utterances with the largest scores.

    ``scores`` and ``utt_id`` are parallel arrays. Boundary ties break
    toward ascending utt_id. ``q = 0`` produces an empty (valid)
    prediction.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"q must be in [0, 100], got {q}")
    scores = np.asarray(scores, dtype=np.float64)
    utt_id = np.asarray(utt_id)
    if scores.shape != utt_id.shape:
        raise ConfigurationError(
            f"expected one score per utterance ({len(utt_id)}), got {len(scores)}"
        )
    if q == 0.0:
        return DetectionResult(predicted_noisy=set(), q_used=q)
    # tiny slack keeps ceil() immune to float round-up on exact multiples
    k = math.ceil(q * len(scores) / 100.0 - 1e-9)
    ranked = np.lexsort((utt_id, -scores))
    return DetectionResult(predicted_noisy=set(utt_id[ranked[:k]].tolist()), q_used=q)


def detection_precision(result: DetectionResult, ds: Dataset) -> DetectionResult:
    """Fill in precision (and recall) against the dataset's ground truth."""
    noisy = ds.noisy_ids()
    hit = len(result.predicted_noisy & noisy)
    precision = hit / len(result.predicted_noisy) if result.predicted_noisy else None
    recall = hit / len(noisy) if noisy else None
    return replace(result, precision=precision, recall=recall)


def export_score_histogram(scores: np.ndarray, ds: Dataset, bins: int
                           ) -> list[tuple[float, float, int, int]]:
    """Min-max normalize scores (dataset order) to [0, 1] and count
    clean/noisy per bin.

    Bins are right-closed ((lo, hi], with 0 falling into the first bin).
    Identical scores degenerate to a single all-containing bin, with a
    warning.
    """
    if bins < 2:
        raise ConfigurationError(f"need at least 2 bins, got {bins}")
    values = np.asarray(scores, dtype=np.float64)
    flags = ds.is_noisy
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        logger.warning("all %d scores identical (%.6g); emitting a single bin", len(scores), lo)
        return [(0.0, 1.0, int(np.sum(~flags)), int(np.sum(flags)))]
    norm = (values - lo) / (hi - lo)
    idx = np.clip(np.ceil(norm * bins).astype(int) - 1, 0, bins - 1)
    clean = np.bincount(idx[~flags], minlength=bins).tolist()
    noisy = np.bincount(idx[flags], minlength=bins).tolist()
    return [(b / bins, (b + 1) / bins, clean[b], noisy[b]) for b in range(bins)]


def write_scores_csv(scores: np.ndarray, ds: Dataset, method: str, path) -> None:
    """CSV columns: utt_id,method,score,is_noisy_truth (sorted by utt_id)."""
    order = np.argsort(ds.utt_id, kind="stable")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("utt_id,method,score,is_noisy_truth\n")
        for utt_id, score, noisy in zip(ds.utt_id[order].tolist(),
                                        np.asarray(scores)[order].tolist(),
                                        ds.is_noisy[order].tolist()):
            fh.write("%d,%s,%s,%s\n"
                     % (utt_id, method, format(score, ".17g"), "true" if noisy else "false"))


def write_detection_json(result: DetectionResult, method: str, seed: int,
                         config_digest: str, path) -> None:
    payload = {
        "method": method,
        "q": result.q_used,
        "selected_count": result.selected_count,
        "precision": result.precision,
        "recall": result.recall,
        "seed": seed,
        "config_digest": config_digest,
        "predicted_noisy": sorted(result.predicted_noisy),
    }
    write_json17(payload, path)


def write_histogram_csv(rows: list[tuple[float, float, int, int]], path) -> None:
    """CSV columns: bin_lo,bin_hi,clean_count,noisy_count."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("bin_lo,bin_hi,clean_count,noisy_count\n")
        for lo, hi, clean, noisy in rows:
            fh.write("%s,%s,%d,%d\n" % (format(lo, ".17g"), format(hi, ".17g"), clean, noisy))
