"""Training losses with exact analytic gradients.

Three loss families over a batch of embeddings:

* ``ce_loss`` — plain softmax cross-entropy through a fully-connected
  layer with bias.
* ``aamsc_loss`` — sub-center additive angular margin softmax:
  embeddings and weight rows are unit-normalized, each class owns ``K``
  weight rows and contributes the maximum sub-center cosine (gradients
  flow through the selected sub-center only; ties take the lowest
  index; a NaN cosine in any sub-center is refused), the target class
  cosine is rotated by a margin ``m`` and all cosines are scaled by
  ``s``. ``AAMConfig`` is the ``K = 1`` case (AAM), and NSL is AAM with
  ``m = 0``.
* ``ge2e_loss`` — batch-contrastive loss on N speaker groups of M
  utterances, scoring each utterance against per-speaker centroids (the
  own-speaker centroid excludes the utterance itself) through a learned
  affine ``w * cos + b``.

All three end in one softmax cross-entropy, ``_softmax_cross_entropy``,
which takes each row's log-sum-exp and softmax from one ``log_sum_exp`` call.
At detection time ``classify_confidence`` gives the trained head's
probabilities; its AAM/AAMSC logits come from ``_cosine_logits``, the
cosine kernel that ``nld``'s centroid classifier shares.
Every loss returns the scalar value together with gradients for the
batch embeddings and for all classifier parameters; the gradients are
exact derivatives of the returned value (verified against central
finite differences in the test suite).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, DomainError
from .jsonutil import json_field
from .numerics import l2_normalize_rows, log_sum_exp, softmax

GE2E_INIT_W = 10.0
GE2E_INIT_B = -5.0


class _TaggedConfig:
    """A loss config whose ``to_dict`` is its fields under its ``kind``."""

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class CEConfig(_TaggedConfig):
    class_count: int

    kind = "ce"

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigurationError(f"class_count must be >= 2, got {self.class_count}")


@dataclass(frozen=True)
class AAMConfig(_TaggedConfig):
    """Additive angular margin; ``AAMSCConfig`` gives each class ``subcenters`` rows."""

    class_count: int
    scale: float
    margin: float
    easy_margin: bool = False

    kind = "aam"
    subcenters = 1

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigurationError(f"class_count must be >= 2, got {self.class_count}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigurationError(f"margin must be in [0, pi/2), got {self.margin}")
        if self.subcenters < 1:
            raise ConfigurationError(f"subcenters must be >= 1, got {self.subcenters}")


def nsl_config(class_count: int, scale: float) -> AAMConfig:
    """Normalized softmax loss: the zero-margin case of AAM."""
    return AAMConfig(class_count=class_count, scale=scale, margin=0.0)


@dataclass(frozen=True)
class AAMSCConfig(AAMConfig):
    # a field without a default of its own would take the base class's 1
    subcenters: int = field(kw_only=True)

    kind = "aamsc"


@dataclass(frozen=True)
class GE2EConfig(_TaggedConfig):
    """Initial values of the learned affine similarity terms."""

    init_w: float = GE2E_INIT_W
    init_b: float = GE2E_INIT_B

    kind = "ge2e"


LossConfig = CEConfig | AAMConfig | GE2EConfig  # AAMSCConfig is an AAMConfig


# Loss kind -> (constructor, run-config fields as key -> (JSON kind, default,
# minimum)). "nsl" is the zero-margin "aam" and is stored as such.
LOSS_KINDS = {
    "ce": (CEConfig, {}),
    "nsl": (nsl_config, {"scale": (float, 30.0, None)}),
    "aam": (AAMConfig, {"scale": (float, 30.0, None), "margin": (float, 0.1, None)}),
    "aamsc": (AAMSCConfig, {"scale": (float, 30.0, None), "margin": (float, 0.1, None),
                            "subcenters": (int, 3, 1)}),
    "ge2e": (GE2EConfig, {"init_w": (float, GE2E_INIT_W, None),
                          "init_b": (float, GE2E_INIT_B, None)}),
}


def loss_config_from_dict(d: dict, path: str = "loss_config") -> LossConfig:
    """Parse ``LossConfig.to_dict`` output, checking every field's JSON type."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path} must be an object, got {type(d).__name__}")
    kind = d.get("kind")
    entry = LOSS_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None or getattr(entry[0], "kind", None) != kind:  # "nsl" is stored as "aam"
        raise ConfigurationError(f"unknown loss kind {kind!r}")
    make, config_fields = entry
    kinds = {"class_count": int, "easy_margin": bool,
             **{key: spec[0] for key, spec in config_fields.items()}}
    # easy_margin last: of several bad fields, the first in run-config order is named
    order = sorted(fields(make), key=lambda f: f.name == "easy_margin")
    return make(**{f.name: json_field(d, f.name, kinds[f.name], path) for f in order})


@dataclass
class ClassifierParams:
    """Trainable classifier-side parameters.

    ``weight`` holds (C * K) x embed_dim rows for CE/AAM/AAMSC (K = 1
    except AAMSC, sub-centers of class j at rows j*K .. j*K+K-1), ``bias``
    is present for CE only, and GE2E owns the two affine scalars instead.
    The same container doubles as the gradient carrier in LossOutput.
    """

    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    ge2e_w: float | None = None
    ge2e_b: float | None = None


@dataclass
class LossOutput:
    value: float
    grad_embeddings: np.ndarray
    grad_params: ClassifierParams


def _check_labels(labels, class_count: int, batch_size: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise DomainError(f"labels must be 1-D, got shape {y.shape}")
    if y.size == 0:
        raise DomainError("batch must be non-empty")
    if y.min() < 0 or y.max() >= class_count:
        raise DomainError(f"label out of range [0, {class_count})")
    if y.shape[0] != batch_size:
        raise DomainError(f"batch size mismatch: {batch_size} embeddings, {y.shape[0]} labels")
    return y.astype(np.intp, copy=False)


def _softmax_cross_entropy(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of ``log_sum_exp(row) - target logit`` over the rows of C-order
    ``logits``, with each row's target at its flat index in ``target``, and
    the gradient of that mean, ``(softmax - one-hot) / rows``, both from one
    ``log_sum_exp`` call."""
    rows = logits.shape[0]
    loss, grad = log_sum_exp(logits)
    loss -= logits.take(target)
    value = float(np.add.reduce(loss) / rows)
    grad.put(target, grad.take(target) - 1.0)
    grad /= rows
    return value, grad


def ce_loss(embeddings: np.ndarray, labels, params: ClassifierParams) -> LossOutput:
    """Mean softmax cross-entropy of W x + bias against the labels."""
    x = np.ascontiguousarray(embeddings, dtype=np.float64)
    w, b = np.ascontiguousarray(params.weight, dtype=np.float64), params.bias
    n, c = x.shape[0], w.shape[0]
    y = _check_labels(labels, c, n)

    value, dlogits = _softmax_cross_entropy(x @ w.T + b, np.arange(0, n * c, c) + y)
    return LossOutput(
        value=value,
        grad_embeddings=dlogits @ w,
        grad_params=ClassifierParams(weight=dlogits.T @ x, bias=np.add.reduce(dlogits, axis=0)),
    )


def _margin_cross_entropy(cos: np.ndarray, y: np.ndarray, scale: float, margin: float,
                          easy_margin: bool) -> tuple[float, np.ndarray]:
    """Cross-entropy over margin-adjusted scaled cosines.

    The target-class cosine is replaced by cos(phi + m), computed as
    cos*cos(m) - sin*sin(m). Outside the monotone range (standard mode:
    cos <= cos(pi - m); easy mode: cos <= 0) the target falls back to the
    linearized cos - m*sin(m), or to the raw cosine respectively. Returns
    the mean loss and its gradient with respect to every cosine entry.
    ``cos`` lies in [-1, 1]; every target entry is read and written
    through one flat index.
    """
    n, c = cos.shape
    flat = np.arange(0, n * c, c) + y
    cos_y = cos.take(flat)
    # 1 - cos_y**2 lies in [0, 1] for cos_y in [-1, 1], so it needs no clip
    sin_y = np.sqrt(1.0 - cos_y * cos_y)
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
    else:
        active = cos_y > math.cos(math.pi - margin)
        target = np.where(active, phi, cos_y - margin * sin_m)
    dtarget = np.where(active, dphi, 1.0)

    logits = scale * cos
    logits.put(flat, scale * target)
    value, dcos = _softmax_cross_entropy(logits, flat)
    dcos *= scale
    dcos.put(flat, dcos.take(flat) * dtarget)
    return value, dcos


def _cosine_backward(dcos: np.ndarray, cos: np.ndarray, xhat: np.ndarray, xnorm: np.ndarray,
                     what: np.ndarray, wnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a gradient on the cosine matrix back to raw x rows and w rows."""
    dc_cos = dcos * cos
    grad_x = dcos @ what
    grad_x -= np.add.reduce(dc_cos, axis=1, keepdims=True) * xhat
    grad_x /= xnorm[:, None]
    grad_w = dcos.T @ xhat
    grad_w -= np.add.reduce(dc_cos, axis=0)[:, None] * what
    grad_w /= wnorm[:, None]
    return grad_x, grad_w


def aamsc_loss(embeddings: np.ndarray, labels, params: ClassifierParams,
               cfg: AAMConfig) -> LossOutput:
    """Sub-center AAM: per class, the maximum sub-center cosine competes
    (plain AAM for an ``AAMConfig``, whose classes have one sub-center)."""
    x = np.ascontiguousarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    y = _check_labels(labels, cfg.class_count, n)
    c, k = cfg.class_count, cfg.subcenters
    if params.weight.shape[0] != c * k:
        raise ConfigurationError(f"weight has {params.weight.shape[0]} rows, expected {c * k}")
    xhat, xnorm = l2_normalize_rows(x, "embedding")
    what, wnorm = l2_normalize_rows(np.ascontiguousarray(params.weight, np.float64), "weight")

    cos_flat = xhat @ what.T
    np.minimum(cos_flat, 1.0, out=cos_flat)
    np.maximum(cos_flat, -1.0, out=cos_flat)
    cos_sub = cos_flat.reshape(n, c, k)
    # Per class, the maximum over its K sub-centers; a NaN in any of them
    # makes it NaN, which the cross-entropy refuses, as argmax picks it.
    cos = cos_sub[:, :, 0]
    for j in range(1, k):
        cos = np.maximum(cos, cos_sub[:, :, j])

    value, dcos = _margin_cross_entropy(cos, y, cfg.scale, cfg.margin, cfg.easy_margin)

    # The selected sub-center of row i, class j is flat entry (i*C + j)*K
    # plus the first column equal to the maximum (argmax's tie break): one
    # for every leading column that differs from it.
    pick = np.arange(0, n * c * k, k).reshape(n, c)
    differs = np.ones((n, c), dtype=bool)
    for j in range(k - 1):
        differs &= cos_sub[:, :, j] != cos
        pick += differs
    dcos_sub = np.zeros((n, c * k))
    dcos_sub.reshape(-1)[pick] = dcos
    grad_x, grad_w = _cosine_backward(dcos_sub, cos_flat, xhat, xnorm, what, wnorm)
    return LossOutput(value=value, grad_embeddings=grad_x,
                      grad_params=ClassifierParams(weight=grad_w))


@functools.lru_cache(maxsize=16)
def _ge2e_diagonal(n: int, m: int) -> np.ndarray:
    """Read-only flat index of each entry (j, i, j) of an N x M x N array."""
    diag = np.arange(0, n * m * n, n).reshape(n, m) + np.arange(n)[:, None]
    diag.flags.writeable = False
    return diag


def ge2e_loss(embeddings: np.ndarray, params: ClassifierParams) -> LossOutput:
    """Contrastive (GE2E) loss on N x M grouped embeddings.

    Each utterance scores against every speaker's batch centroid (its own
    speaker's centroid excludes the utterance itself) via
    w * cos + b, followed by softmax cross-entropy against the own-speaker
    slot. Gradients cover the embeddings (including centroid paths) and
    the scalars w, b. Norms skip the ``np.linalg.norm`` wrapper and the
    diagonal takes one flat index. The contractions are 2-D BLAS products
    on (N*M, ...) views: cosines ``ehat @ chat.T`` and gradients
    ``dcos @ chat`` (embeddings) and ``dcos.T @ ehat`` (centroids); the
    bits do not depend on the memory layout of ``embeddings``.
    """
    e = np.ascontiguousarray(embeddings, dtype=np.float64)
    if e.ndim != 3:
        raise ConfigurationError(f"expected N x M x dim embeddings, got shape {e.shape}")
    n, m, dim = e.shape
    if m < 2:
        raise ConfigurationError(f"GE2E needs M >= 2 utterances per speaker, got {m}")
    w, b = float(params.ge2e_w), float(params.ge2e_b)

    enorm = np.sqrt(np.add.reduce(e * e, axis=2))
    csum = np.add.reduce(e, axis=1)
    cent = csum / m
    cnorm = np.sqrt(np.add.reduce(cent * cent, axis=1))
    cex = (csum[:, None, :] - e) / (m - 1)
    cexnorm = np.sqrt(np.add.reduce(cex * cex, axis=2))
    # all three norms first, then the checks in their order; a NaN norm passes
    if not enorm.all():
        j, i = np.argwhere(enorm == 0.0)[0]
        raise DomainError(f"embedding ({j}, {i}) has zero norm")
    if not cnorm.all():
        raise DomainError(f"speaker {np.flatnonzero(cnorm == 0.0)[0]} has a zero-norm centroid")
    if not cexnorm.all():
        j, i = np.argwhere(cexnorm == 0.0)[0]
        raise DomainError(f"self-excluded centroid ({j}, {i}) has zero norm")
    ehat = e / enorm[:, :, None]
    chat = np.divide(cent, cnorm[:, None], out=cent)
    cexhat = np.divide(cex, cexnorm[:, :, None], out=cex)

    # cosmat[j, i, k]: utterance (j, i) against speaker k's centroid,
    # self-excluded on the diagonal k == j, which is flat entry diag[j, i].
    diag = _ge2e_diagonal(n, m)
    cosmat = (ehat.reshape(n * m, dim) @ chat.T).reshape(n, m, n)
    diag_cos = np.einsum("jid,jid->ji", ehat, cexhat)
    cosmat.put(diag, diag_cos)
    np.maximum(np.minimum(cosmat, 1.0, out=cosmat), -1.0, out=cosmat)

    scores = w * cosmat + b
    value, g = _softmax_cross_entropy(scores.reshape(n * m, n), diag.reshape(-1))
    g = g.reshape(n, m, n)

    grad_w = float(np.add.reduce(g * cosmat, axis=None))
    grad_b = float(np.add.reduce(g, axis=None))

    dcos = np.multiply(g, w, out=g)
    dcos_diag = dcos.take(diag)

    # first-argument path of every cosine; then dcos and cosmat lose their diagonals
    sum_dc = np.add.reduce(dcos * cosmat, axis=2)
    dcos.put(diag, 0.0)
    cosmat.put(diag, 0.0)
    grad_e = (dcos.reshape(n * m, n) @ chat).reshape(n, m, dim)
    grad_e += dcos_diag[:, :, None] * cexhat
    grad_e -= sum_dc[:, :, None] * ehat
    grad_e /= enorm[:, :, None]

    # full-centroid path, distributed evenly over the speaker's utterances
    dcent = dcos.reshape(n * m, n).T @ ehat.reshape(n * m, dim)
    dcent -= np.einsum("jik,jik->k", dcos, cosmat)[:, None] * chat
    dcent /= cnorm[:, None]
    grad_e += dcent[:, None, :] / m

    # self-excluded centroid path: utterance (j, i)'s own-speaker score
    # touches every e[j, m] except m == i
    dcex = dcos_diag[:, :, None] * (ehat - diag_cos[:, :, None] * cexhat)
    dcex /= cexnorm[:, :, None]
    grad_e += (np.add.reduce(dcex, axis=1, keepdims=True) - dcex) / (m - 1)

    return LossOutput(value=value, grad_embeddings=grad_e,
                      grad_params=ClassifierParams(ge2e_w=grad_w, ge2e_b=grad_b))


def _cosine_logits(v: np.ndarray, unit_rows: np.ndarray, subcenters: int,
                   temperature: float) -> np.ndarray:
    """The cosines of ``v`` with the unit rows, each class taking the
    maximum over its ``subcenters`` consecutive rows, divided by
    ``temperature``: the logits of the AAM/AAMSC head (temperature 1) and
    of the GE2E centroid classifier (one row per class), which each caller
    turns into probabilities with ``softmax``.

    Each step keeps the bits of its plain numpy form: ``np.linalg.norm``
    of a 1-D vector is ``sqrt(v.dot(v))``; clipping to [-1, 1] is an
    in-place ``minimum`` then ``maximum``; and the per-class maximum over
    the K sub-center columns, taken one column at a time, is
    ``reshape(C, K).max(axis=1)``, since the maximum of finite values
    does not depend on the order it is taken in. Division by temperature 1
    is exact.
    """
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        raise DomainError("embedding has zero norm")
    cos = unit_rows @ (v / norm)
    np.minimum(cos, 1.0, out=cos)
    np.maximum(cos, -1.0, out=cos)
    # out of place: writing the maximum into a view of ``cos`` measured slower
    best = cos[::subcenters]
    for j in range(1, subcenters):
        best = np.maximum(best, cos[j::subcenters])
    return best / temperature


def classify_confidence(x: np.ndarray, params: ClassifierParams, cfg: CEConfig | AAMConfig,
                        unit_weight: np.ndarray | None) -> np.ndarray:
    """Probability over classes from the trained classifier, margin/scale off.

    CE keeps its full affine layer; AAM/AAMSC apply softmax to each
    class's maximum sub-center cosine (the only one when K = 1), with
    ``unit_weight``, ``params.weight`` with unit rows, normalized once by
    the caller that scores many embeddings (CE ignores it). GE2E has no
    parametric classifier: ``nld.ParametricClassifier`` refuses a GE2E
    model, whose detection uses the centroid classifier instead.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"expected a single embedding vector, got shape {v.shape}")
    if isinstance(cfg, AAMConfig):
        return softmax(_cosine_logits(v, unit_weight, cfg.subcenters, 1.0))
    if v.dot(v) == 0.0:  # a zero norm, as in _cosine_logits
        raise DomainError("embedding has zero norm")
    return softmax(params.weight @ v + params.bias)
