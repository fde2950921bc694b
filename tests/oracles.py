"""Independent brute-force reference implementations used as test oracles.

Deliberately written with plain Python loops and naive formulas so they
share no code path with the package implementations they check. The
per-pair ``cosine_similarity`` is the one-row-at-a-time form that the
package's batched cosines must reproduce.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np

from labelnoise.errors import DomainError


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


def cosine_similarity(a, b) -> float:
    """Cosine of one vector pair by np.dot and 1-D norms, clamped to [-1, 1].

    The per-pair reference for the batched cosines in detection and trial
    scoring. Raises DomainError on dimension mismatch or a zero-norm
    argument, naming which argument is degenerate.
    """
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
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
