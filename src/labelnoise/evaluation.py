"""Verification-style evaluation: trial generation, EER, and retraining.

A trained embedder is scored on a held-out dataset via cosine similarity
over enroll/test utterance pairs. The equal error rate is found by
sweeping every distinct score as a threshold and linearly interpolating
between the two adjacent operating points where FAR - FRR changes sign.

Trials take the same-class pool one class size at a time (one
``np.triu_indices`` and one gather per distinct size, not per class), keep
the rows scoring gathers by, and are written by ``jsonutil.write_rows``.
No step calls ``np.lexsort`` or ``np.unique``, which imports ``numpy.ma``.

``retrain_after_removal`` closes the loop: drop the utterances a
detection pass flagged, retrain with the same configuration and seed,
and set the retrained model's held-out EER beside the baseline's, which
``eval`` computed on the same trials and ``load_eer`` reads back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .embedder import TrainConfig, TrainedModel, embed_batch, train
from .errors import ConfigurationError, DomainError
from .jsonutil import json_field, read_json_object, write_json17, write_rows
from .numerics import row_dot
from .seeding import named_rng
from .synthdata import Dataset

logger = logging.getLogger(__name__)

_TRIAL_BLOCK = 4096


@dataclass(eq=False)
class Trials:
    """Enroll/test utterance pairs as columns: row ``i`` of each array is
    trial ``i``. ``enroll_id`` and ``test_id`` are int64 utterance ids
    and ``is_target`` is bool; ``len`` is the number of trials. ``rows`` are
    the pairs' ``(2, len)`` int64 dataset rows, -1 (no row) when left out."""

    enroll_id: np.ndarray
    test_id: np.ndarray
    is_target: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.enroll_id = np.asarray(self.enroll_id, dtype=np.int64)
        self.test_id = np.asarray(self.test_id, dtype=np.int64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        rows = np.full((2, len(self.enroll_id)), -1) if self.rows is None else self.rows
        self.rows = np.asarray(rows, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.enroll_id)


@dataclass(frozen=True)
class EERResult:
    eer: float
    threshold_at_eer: float
    trial_count: int


@dataclass
class RetrainOutcome:
    before: EERResult
    after: EERResult
    removed_count: int
    dropped_classes: list[int]
    after_model: TrainedModel


def generate_trials(ds: Dataset, pairs_per_kind: int, seed: int) -> Trials:
    """Sample balanced target/nontarget utterance pairs from a clean dataset.

    Targets are drawn without replacement from all same-class pairs;
    nontargets are rejection-sampled cross-class pairs, also distinct.
    Raises ConfigurationError when the dataset cannot supply enough of
    either kind.
    """
    if not ds.is_clean:
        raise ConfigurationError("trials must come from a clean dataset")
    rng = named_rng(seed, "trials")

    by_id = np.argsort(ds.utt_id)  # ids are unique, so any sort gives this order
    target = _same_class_pairs(by_id, ds.observed_class)
    pool_size = target.shape[1]
    if pool_size < pairs_per_kind:
        raise ConfigurationError(
            f"dataset supplies only {pool_size} same-class pairs, need {pairs_per_kind}"
        )
    n = len(ds)
    cross_total = n * (n - 1) // 2 - pool_size
    if cross_total < pairs_per_kind:
        raise ConfigurationError(
            f"dataset supplies only {cross_total} cross-class pairs, "
            f"need {pairs_per_kind}"
        )

    pick = np.sort(rng.choice(pool_size, size=pairs_per_kind, replace=False))
    cross = _cross_class_pairs(ds.observed_class, pairs_per_kind, rng)
    # np.lexsort's (enroll id, test id) order from one sort: with rank[r] row r's place
    # in id order, the keys are distinct and below n**2
    rank = np.argsort(by_id)
    order = np.argsort(rank[cross[0]] * n + rank[cross[1]])
    rows = np.concatenate([target[:, pick], cross[:, order]], axis=1)
    ids = ds.utt_id[rows]
    return Trials(ids[0], ids[1], np.arange(2 * pairs_per_kind) < pairs_per_kind, rows)


def _same_class_pairs(by_id: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Every same-class pair of rows ``(enroll, test)`` as a ``(2, pairs)``
    array, ``enroll`` before ``test`` in the class's ascending ids (``by_id``
    lists the rows in id order): class by class in ascending order, each
    class's pairs in ``np.triu_indices`` order. The classes of one size share
    one ``triu_indices`` and one gather from their ``(classes, size)`` member
    matrix, written into each class's slot of the pool.
    """
    members = by_id[np.argsort(observed[by_id], kind="stable")]
    labels = observed[members]
    starts = np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
    sizes = np.diff(np.append(starts, len(labels)))
    counts = sizes * (sizes - 1) // 2
    slots = np.cumsum(counts) - counts
    pairs = np.empty((2, int(counts.sum())), dtype=np.int64)
    # ``np.unique`` would import ``numpy.ma``, 12-17 ms in a fresh process
    for size in sorted(set(sizes.tolist()) - {0, 1}):
        of_size = sizes == size
        i, j = np.triu_indices(size, 1)
        block = members[starts[of_size][:, None] + np.arange(size)]
        at = slots[of_size][:, None] + np.arange(len(i))
        pairs[0, at], pairs[1, at] = block[:, i], block[:, j]
    return pairs


def _cross_class_pairs(observed: np.ndarray, count: int, rng: np.random.Generator
                       ) -> np.ndarray:
    """The first ``count`` distinct cross-class row pairs ``(lo, hi)``, ``lo <
    hi``, in the order ``rng`` draws them, as a ``(2, count)`` array.

    Candidates are drawn in blocks by ``rng.integers(n, size=(block, 2))``,
    which makes the same bounded draws, in the same order, as a loop of
    scalar ``rng.integers(n)`` calls, so the pairs kept are the ones that
    loop keeps. Unlike the loop, a block draws past the last pair kept;
    that is harmless only because the caller discards ``rng`` afterwards.
    The block doubles until enough distinct pairs are found, so drawing
    out every cross pair of a small dataset stays cheap.
    """
    n = len(observed)
    keys = np.empty(0, dtype=np.int64)
    block = 2 * count
    while True:
        a, b = rng.integers(n, size=(block, 2)).T
        cross = observed[a] != observed[b]  # also rules out a == b
        lo, hi = np.minimum(a, b)[cross], np.maximum(a, b)[cross]
        keys = np.concatenate([keys, lo * n + hi])
        first = _first_indices(keys)
        if len(first) >= count:
            break
        block *= 2
    return np.stack(np.divmod(keys[np.sort(first)[:count]], n))


def _first_indices(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys, return_index=True)[1]`` without its stable sort: the
    least index in each run of equal sorted keys, in whatever order it ran."""
    order = np.argsort(keys)
    s = keys[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    return np.minimum.reduceat(order, np.flatnonzero(new))


def score_trials(model: TrainedModel, trials: Trials, ds: Dataset
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Cosine score per trial; returns (scores, is_target, dropped_count).

    Embeddings are gathered by the trials' rows, which must hold their ids in
    ``ds``; a trial with a zero-norm embedding is dropped with a warning, not
    given an arbitrary score, and one whose norm is not finite is refused.
    """
    emb = embed_batch(model.embedder, ds.features, ds.utt_id, model.source)
    rows, ids = trials.rows, np.stack([trials.enroll_id, trials.test_id])
    held = (rows >= 0) & (rows < len(ds))
    held[held] = ds.utt_id[rows[held]] == ids[held]
    if (absent := ~held.all(axis=0)).any():
        bad = int(np.argmax(absent))
        raise ConfigurationError(f"{int(np.count_nonzero(absent))} trial(s) reference utterances "
                                 f"absent from their rows, first: enroll {ids[0, bad]} at row "
                                 f"{rows[0, bad]}, test {ids[1, bad]} at row {rows[1, bad]}")
    i, j = rows
    norms = np.linalg.norm(emb, axis=1)
    keep = (norms[i] != 0.0) & (norms[j] != 0.0)
    dropped = int(np.count_nonzero(~keep))
    if dropped:
        logger.warning("dropped %d trial(s) with zero-norm embeddings", dropped)
    i, j = i[keep], j[keep]
    # gather the embedding pairs in blocks to bound the memory they take
    dots = np.empty(len(i))
    for k in range(0, len(i), _TRIAL_BLOCK):
        block = slice(k, k + _TRIAL_BLOCK)
        dots[block] = row_dot(emb[i[block]], emb[j[block]])
    return np.clip(dots / (norms[i] * norms[j]), -1.0, 1.0), trials.is_target[keep], dropped


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D NaN-free array, bit for bit (its sort picks which
    zero stands for both), without its first-call import of ``numpy.ma``."""
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def compute_eer(scores: np.ndarray, is_target: np.ndarray) -> EERResult:
    """Equal error rate by threshold sweep with linear interpolation.

    ``FAR(t)`` is the fraction of nontarget scores >= t and ``FRR(t)``
    the fraction of target scores < t; both are evaluated at every
    distinct score (plus a sentinel above the maximum, where FAR = 0 and
    FRR = 1). Perfect separation yields exactly 0.0; an EER above 0.5
    (inverted scorer) is reported as-is with a warning.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    if scores.shape != is_target.shape or scores.ndim != 1:
        raise DomainError("scores and is_target must be equal-length 1-D arrays")
    tar = np.sort(scores[is_target])
    non = np.sort(scores[~is_target])
    if tar.size == 0 or non.size == 0:
        raise DomainError("EER needs at least one target and one nontarget trial")
    thresholds = _distinct_sorted(scores)
    if thresholds.size < 2:
        raise DomainError("EER is undefined when every trial has the same score")
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)

    far = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    diff = far - frr
    # diff starts at 1 (threshold at the global minimum) and ends at -1
    # (sentinel), so a sign change always exists.
    k = int(np.argmax(diff <= 0.0))
    if diff[k] == 0.0:
        eer, thr = float(far[k]), float(thresholds[k])
    else:
        alpha = diff[k - 1] / (diff[k - 1] - diff[k])
        eer = float(far[k - 1] + alpha * (far[k] - far[k - 1]))
        thr = float(thresholds[k - 1] + alpha * (thresholds[k] - thresholds[k - 1]))
    if eer > 0.5:
        logger.warning("EER %.4f exceeds 0.5: the scorer ranks nontargets above targets", eer)
    return EERResult(eer=eer, threshold_at_eer=thr, trial_count=int(scores.size))


def remove_predicted(ds: Dataset, predicted: np.ndarray) -> Dataset:
    """Dataset minus the utterances whose ids are in ``predicted`` (same
    metadata). Ids absent from the dataset are ignored."""
    keep = ~np.isin(ds.utt_id, np.asarray(predicted, dtype=np.int64))
    if not keep.any():
        raise ConfigurationError("removal would leave an empty dataset")
    return ds.subset(keep)


def retrain_after_removal(ds: Dataset, predicted: np.ndarray, cfg: TrainConfig,
                          heldout: Dataset, trials: Trials, before: EERResult) -> RetrainOutcome:
    """Retrain on ``ds`` minus the predicted-noisy utterances with the
    baseline's config and seed, and report the retrained model's held-out
    EER on ``trials`` beside ``before``, the baseline's EER on them.

    Classes left with fewer than ``utts_per_speaker`` utterances are
    dropped from sampling; if fewer than ``batch_speakers`` classes stay
    eligible, the retrain batch width is clamped down with a warning, and
    refused when fewer classes stay than the loss needs (two for GE2E).
    """
    filtered = remove_predicted(ds, predicted)
    removed = len(ds) - len(filtered)

    sizes = np.bincount(filtered.observed_class, minlength=ds.class_count)
    observed = np.bincount(ds.observed_class, minlength=ds.class_count) > 0
    dropped = np.flatnonzero(observed & (sizes < cfg.utts_per_speaker)).tolist()
    if dropped:
        logger.warning("removal left %d class(es) below %d utterance(s): %s",
                       len(dropped), cfg.utts_per_speaker, dropped)
    eligible = int(np.count_nonzero(sizes >= cfg.utts_per_speaker))
    cfg_after = cfg
    if eligible < cfg.batch_speakers:
        try:
            cfg_after = replace(cfg, batch_speakers=eligible)
        except ConfigurationError as exc:
            raise ConfigurationError(f"removal left {eligible} class(es) with >= "
                                     f"{cfg.utts_per_speaker} utterance(s): {exc}") from None
        logger.warning("clamping batch classes from %d to %d eligible after removal",
                       cfg.batch_speakers, eligible)

    after_model, _ = train(filtered, cfg_after)
    scores, labels, _ = score_trials(after_model, trials, heldout)
    return RetrainOutcome(before=before, after=compute_eer(scores, labels),
                          removed_count=removed, dropped_classes=dropped,
                          after_model=after_model)


def write_trials_csv(trials: Trials, path) -> None:
    """CSV columns: enroll_id,test_id,is_target."""
    labels = ["true" if t else "false" for t in trials.is_target.tolist()]
    write_rows(path, "enroll_id,test_id,is_target\n", "%d,%d,%s\n",
               [trials.enroll_id.tolist(), trials.test_id.tolist(), labels])


def _eer_fields(result: EERResult) -> dict:
    return {"eer": result.eer, "threshold": result.threshold_at_eer,
            "trial_count": result.trial_count}


def write_eer_json(result: EERResult, model_digest: str, config_digest: str, path) -> None:
    write_json17({**_eer_fields(result), "model_digest": model_digest,
                  "config_digest": config_digest}, path)


def load_eer(path) -> tuple[EERResult, str, str]:
    """A ``write_eer_json`` file's result, model digest and config digest; a
    fault raises a LabelNoiseError reading ``PATH: EER report...``."""
    return read_json_object(path, "EER report", _eer_from_dict)


def _eer_from_dict(d: dict) -> tuple[EERResult, str, str]:
    result = EERResult(json_field(d, "eer", float, "EER report", bounds=(0, 1)),
                       json_field(d, "threshold", float, "EER report"),
                       json_field(d, "trial_count", int, "EER report"))
    return (result, *(json_field(d, k, str, "EER report")
                      for k in ("model_digest", "config_digest")))


def write_retrain_json(outcome: RetrainOutcome, method: str, seed: int,
                       config_digest: str, path) -> None:
    payload = {
        "detection_method": method,
        "seed": seed,
        "config_digest": config_digest,
        "removed_count": outcome.removed_count,
        "dropped_classes": outcome.dropped_classes,
        "before": _eer_fields(outcome.before),
        "after": _eer_fields(outcome.after),
    }
    write_json17(payload, path)
