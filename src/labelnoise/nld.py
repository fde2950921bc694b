"""Noisy-label detection by inconsistency ranking.

Two per-utterance inconsistency scores over a trained embedder:

* intra-class: one minus the cosine between an utterance's embedding and
  the mean embedding (centroid) of its observed class;
* inter-class: one minus the classifier's confidence in the observed
  label: the trained head for CE/AAM/AAMSC (``ParametricClassifier``) or,
  for GE2E, a softmax over centroid cosines (``CentroidClassifier``, built
  from the same centroid bank as the intra-class score). The cosine
  classifiers take their logits from one kernel, ``losses._cosine_logits``.

Scores are ranked dataset-wide, the top q% largest are predicted noisy,
and the prediction is compared against ground-truth flags to obtain
precision (and recall as an added diagnostic). The score and histogram
CSVs are written through ``jsonutil.write_rows``.
"""

from __future__ import annotations

import logging
import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .embedder import TrainedModel, embed_batch
from .errors import ConfigurationError, InternalError
from .jsonutil import json_field, read_json_object, write_json17, write_rows
from .losses import CEConfig, _cosine_logits, classify_confidence
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
    """Per observed class ``c``: ``centroids[c]`` is the mean embedding of
    its members (a zero row for an empty class) and ``counts[c]`` their
    number."""

    centroids: np.ndarray
    counts: np.ndarray


@dataclass
class DetectionResult:
    """``predicted_noisy`` holds the flagged utt_ids, sorted, as int64."""

    predicted_noisy: np.ndarray
    q_used: float
    precision: float | None = None
    recall: float | None = None

    @property
    def selected_count(self) -> int:
        return len(self.predicted_noisy)


def embed_dataset(model: TrainedModel, ds: Dataset) -> np.ndarray:
    """Every utterance's embedding, in dataset order; a non-finite norm is refused."""
    return embed_batch(model.embedder, ds.features, ds.utt_id, model.source)


def compute_centroids(emb: np.ndarray, ds: Dataset) -> CentroidBank:
    """Arithmetic mean of embeddings (``emb``, dataset order) per observed
    class, noisy ones included.

    The sums start from +0.0 and add the rows in dataset order, which
    gives each mean the bits of ``emb[members].mean(axis=0)``.
    """
    counts = np.bincount(ds.observed_class, minlength=ds.class_count)
    sums = np.zeros((ds.class_count, emb.shape[1]))
    np.add.at(sums, ds.observed_class, emb)
    empty = np.flatnonzero(counts == 0).tolist()
    if empty:
        logger.warning("centroid bank: %d empty class(es): %s", len(empty), empty)
    return CentroidBank(centroids=sums / np.maximum(counts, 1)[:, None], counts=counts)


# utt_ids quoted in a degenerate-score warning; the count covers the rest
_WARN_IDS = 5


def _warn_degenerate(ds: Dataset, bad: np.ndarray, what: str, method: str) -> None:
    ids = ds.utt_id[bad]
    if len(ids):
        logger.warning("%d utterance(s): %s, assigning maximal %s score (utt_id %s%s)",
                       len(ids), what, method, ", ".join(map(str, ids[:_WARN_IDS].tolist())),
                       ", ..." if len(ids) > _WARN_IDS else "")


def intra_inconsistency(emb: np.ndarray, ds: Dataset, bank: CentroidBank) -> np.ndarray:
    """1 - cos(embedding, own observed-class centroid), in dataset order.

    A zero-norm embedding or centroid yields the maximal score 2.0 with a
    warning rather than failing the run: a degenerate embedding is itself
    maximally inconsistent evidence.
    """
    cent = bank.centroids[ds.observed_class]
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
        self._params = model.classifier
        self._cfg = cfg = model.loss_config
        self._unit_weight = (None if isinstance(cfg, CEConfig)
                             else l2_normalize_rows(model.classifier.weight, "weight")[0])
        self.class_ids = list(range(cfg.class_count))

    def confidences(self, x: np.ndarray) -> np.ndarray:
        return classify_confidence(x, self._params, self._cfg, self._unit_weight)


class CentroidClassifier:
    """Softmax over cosine(x, class centroid) / temperature (GE2E path).

    Built from a centroid bank. Empty classes are left out, and so, with a
    warning each, are classes whose centroid has zero norm.
    """

    def __init__(self, bank: CentroidBank, temperature: float):
        cent = bank.centroids
        # the bits of np.linalg.norm and of the division, row by row
        norms = np.sqrt(row_dot(cent, cent))
        for c in np.flatnonzero((norms == 0.0) & (bank.counts > 0)).tolist():
            logger.warning("centroid classifier: class %d has zero-norm centroid, excluded", c)
        ids = np.flatnonzero(norms != 0.0)
        if not len(ids):
            raise ConfigurationError("all centroids have zero norm")
        self.class_ids = ids.tolist()
        self._directions = cent[ids] / norms[ids, None]  # unit rows
        self._temperature = temperature

    def confidences(self, x: np.ndarray) -> np.ndarray:
        return softmax(_cosine_logits(x, self._directions, 1, self._temperature))


# probability rows checked and scored at once: (256, C) float64, 400 KB at C = 200
_SCORE_BLOCK = 256


def inter_inconsistency(emb: np.ndarray, ds: Dataset, classifier) -> np.ndarray:
    """1 - confidence in the observed label, in dataset order.

    The classifier is called once per scorable utterance. Its outputs are
    gathered into a block of rows; the probability check and the pick of
    the observed class's column then run over the whole block. A classifier
    output of the wrong length, or one that is not a probability vector (a
    negative or NaN entry, or a sum away from 1), is an internal error.
    """
    ids = np.asarray(classifier.class_ids, dtype=np.int64)
    bad = (np.sqrt(row_dot(emb, emb)) == 0.0) | ~np.isin(ds.observed_class, ids)
    _warn_degenerate(ds, bad, "no usable confidence (degenerate embedding or missing class)",
                     "inter-class")
    column_of = np.zeros(ids.max(initial=-1) + 1, dtype=np.intp)
    column_of[ids] = np.arange(len(ids))  # ids in the classifier's order, sorted or not
    rows = np.flatnonzero(~bad)
    width, confidences = len(ids), classifier.confidences
    probs = np.empty((min(_SCORE_BLOCK, len(rows)), width))
    scores = np.full(len(ds), MAX_INTER_SCORE)
    for start in range(0, len(rows), _SCORE_BLOCK):
        block = rows[start:start + _SCORE_BLOCK]
        p = probs[:len(block)]
        for r, i in enumerate(block.tolist()):
            p_row = confidences(emb[i])
            if len(p_row) != width:
                raise InternalError(f"classifier output has {len(p_row)} entries, "
                                    f"expected {width} (one per class id)")
            p[r] = p_row
        total, lowest = np.add.reduce(p, axis=1), np.minimum.reduce(p, axis=1)
        # negated tests, so that a NaN sum or minimum fails them too
        if (off := np.flatnonzero(~(np.abs(total - 1.0) <= 1e-6) | ~(lowest >= 0.0))).size:
            raise InternalError("classifier output is not a probability vector "
                                f"(sum {float(total[off[0]])!r}, min {float(lowest[off[0]])!r})")
        scores[block] = 1.0 - p[np.arange(len(block)), column_of[ds.observed_class[block]]]
    return scores


def rank_and_select(scores: np.ndarray, utt_id: np.ndarray, q: float) -> DetectionResult:
    """Predict the ceil(q/100 * n) utterances with the largest scores.

    ``scores`` (float64) and ``utt_id`` (int64) are parallel arrays.
    Boundary ties break toward ascending utt_id. ``q = 0`` produces an
    empty (valid) prediction.
    """
    # tiny slack keeps ceil() immune to float round-up on exact multiples
    k = math.ceil(q * len(scores) / 100.0 - 1e-9)
    ranked = np.lexsort((utt_id, -scores))
    return DetectionResult(predicted_noisy=np.sort(utt_id[ranked[:k]]), q_used=q)


def detection_precision(result: DetectionResult, ds: Dataset) -> DetectionResult:
    """Fill in precision (and recall) against the dataset's ground truth."""
    predicted = np.asarray(result.predicted_noisy, dtype=np.int64)
    noisy = ds.is_noisy
    hit = int(np.count_nonzero(noisy[np.isin(ds.utt_id, predicted)]))
    precision = hit / len(predicted) if len(predicted) else None
    recall = hit / int(np.count_nonzero(noisy)) if noisy.any() else None
    return replace(result, precision=precision, recall=recall)


def export_score_histogram(scores: np.ndarray, ds: Dataset, bins: int
                           ) -> list[tuple[float, float, int, int]]:
    """Min-max normalize scores (dataset order) to [0, 1] and count
    clean/noisy per bin.

    Bins are right-closed ((lo, hi], with 0 falling into the first bin).
    Identical scores degenerate to a single all-containing bin, with a
    warning.
    """
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
    flags = np.where(ds.is_noisy[order], "true", "false")
    write_rows(path, "utt_id,method,score,is_noisy_truth\n",
               "%d," + method.replace("%", "%%") + ",%.17g,%s\n",
               [ds.utt_id[order].tolist(), np.asarray(scores)[order].tolist(), flags.tolist()])


def write_detection_json(result: DetectionResult, method: str, seed: int,
                         config_digest: str, path) -> None:
    write_json17({"method": method, "q": result.q_used, "selected_count": result.selected_count,
                  "precision": result.precision, "recall": result.recall, "seed": seed,
                  "config_digest": config_digest,
                  "predicted_noisy": result.predicted_noisy.tolist()}, path)


def load_detection(path) -> tuple[str, DetectionResult, str]:
    """A ``write_detection_json`` file's method, result and config digest;
    the ids are taken as written, a repeat or an id of no utterance included.
    A fault raises a LabelNoiseError reading ``PATH: detection...``."""
    return read_json_object(path, "detection", _detection_from_dict)


def _detection_from_dict(d: dict) -> tuple[str, DetectionResult, str]:
    precision, recall = (json_field(d, k, float, "detection", nullable=True, bounds=(0, 1))
                         for k in ("precision", "recall"))
    method = json_field(d, "method", str, "detection")
    if method not in (METHOD_INTRA, METHOD_INTER):
        raise ConfigurationError("detection.method must be one of "
                                 f"{[METHOD_INTRA, METHOD_INTER]}, got {reprlib.repr(method)}")
    ids = json_field(d, "predicted_noisy", list, "detection")
    if bad := [i for i in ids if type(i) is not int or not -2**63 <= i < 2**63]:  # no bools
        raise ConfigurationError("detection.predicted_noisy must list 64-bit integers, "
                                 f"got {reprlib.repr(bad[0])}")
    q = json_field(d, "q", float, "detection", bounds=(0, 100))
    return (method, DetectionResult(np.array(ids, dtype=np.int64), q, precision, recall),
            json_field(d, "config_digest", str, "detection"))


def write_histogram_csv(rows: list[tuple[float, float, int, int]], path) -> None:
    """CSV columns: bin_lo,bin_hi,clean_count,noisy_count."""
    write_rows(path, "bin_lo,bin_hi,clean_count,noisy_count\n", "%.17g,%.17g,%d,%d\n",
               list(zip(*rows)))
