"""Small dense vector operations and stable elementary functions.

Vectors are 1-D float64 numpy arrays throughout the package; matrices are
2-D row-major float64 arrays. All functions here are pure and operate in
64-bit arithmetic. ``softmax`` and ``log_sum_exp`` work along the last
axis, so the losses evaluate a 2-D array of logits row by row.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_UNDERFLOW_NORM = 1e-150


def softmax(z) -> np.ndarray:
    """Stable softmax along the last axis (max-shifted before exponentiation).

    The max and the sum call ``np.maximum.reduce`` and ``np.add.reduce``
    directly: ``x.max`` and ``e.sum`` are thin wrappers around exactly
    these reductions, so the bits are theirs without the wrapper's cost.
    """
    x = np.asarray(z, dtype=np.float64)
    if x.size == 0:
        raise DomainError("softmax input must be non-empty")
    if not np.isfinite(x).all():
        raise DomainError("softmax input contains non-finite entries")
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def log_sum_exp(z):
    """max(z) + log(sum(exp(z - max(z)))) along the last axis and ``softmax(z)``,
    with its bits, from one check, max and exp."""
    x = np.asarray(z, dtype=np.float64)
    if x.size == 0:
        raise DomainError("log_sum_exp input must be non-empty")
    if not np.isfinite(x).all():
        raise DomainError("log_sum_exp input contains non-finite entries")
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    lse = m.squeeze(-1) + np.log(s.squeeze(-1))
    e /= s
    return lse, e


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``.

    Evaluated as a stack of (1 x d) @ (d x 1) products, which gives the
    same bits as ``np.dot`` on each row pair; ``(a * b).sum(axis=1)`` and
    ``einsum`` round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def l2_normalize_rows(m: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a 2-D array; returns (normalized rows, original norms).

    Raises DomainError naming ``what`` and the row index if any row has
    zero norm.
    """
    x = np.asarray(m, dtype=np.float64)
    # the expression ``np.linalg.norm(x, axis=1)`` evaluates, without its wrapper
    norms = np.sqrt(np.add.reduce(x * x, axis=1))
    # Below this norm the squared entries underflow and the norm loses its
    # precision; such rows are measured again after scaling by their peak.
    # A zero row is one of them. ``fmin`` skips NaN norms, as the
    # comparisons below do.
    if np.fmin.reduce(norms, initial=np.inf) < _UNDERFLOW_NORM:
        small = np.flatnonzero(norms < _UNDERFLOW_NORM)
        peak = np.max(np.abs(x[small]), axis=1)
        scaled = x[small] / np.where(peak > 0.0, peak, 1.0)[:, None]
        norms[small] = peak * np.sqrt(np.add.reduce(scaled * scaled, axis=1))
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DomainError(f"{what} row {int(bad[0])} has zero norm")
    return x / norms[:, None], norms
