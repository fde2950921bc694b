"""Training losses with exact analytic gradients.

Four loss families over a batch of embeddings:

* ``ce_loss`` — plain softmax cross-entropy through a fully-connected
  layer with bias.
* ``aam_loss`` — additive angular margin softmax: embeddings and weight
  rows are unit-normalized, the target class cosine is rotated by a
  margin ``m`` and all cosines are scaled by ``s``. With ``m = 0`` this is
  the normalized softmax loss (NSL).
* ``aamsc_loss`` — the sub-center variant: each class owns ``K`` weight
  rows and contributes the maximum sub-center cosine; gradients flow
  through the selected sub-center only (ties take the lowest index).
* ``ge2e_loss`` — batch-contrastive loss on N speaker groups of M
  utterances, scoring each utterance against per-speaker centroids (the
  own-speaker centroid excludes the utterance itself) through a learned
  affine ``w * cos + b``.

Every loss returns the scalar value together with gradients for the batch
embeddings and for all classifier parameters; the gradients are exact
derivatives of the returned value (verified against central finite
differences in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigurationError, DomainError
from .jsonutil import json_field
from .numerics import l2_normalize_rows, log_sum_exp, softmax

GE2E_INIT_W = 10.0
GE2E_INIT_B = -5.0


@dataclass(frozen=True)
class CEConfig:
    class_count: int

    kind = "ce"

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigurationError(f"class_count must be >= 2, got {self.class_count}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class AAMConfig:
    class_count: int
    scale: float
    margin: float
    easy_margin: bool = False

    kind = "aam"

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigurationError(f"class_count must be >= 2, got {self.class_count}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigurationError(f"margin must be in [0, pi/2), got {self.margin}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


def nsl_config(class_count: int, scale: float) -> AAMConfig:
    """Normalized softmax loss: the zero-margin case of AAM."""
    return AAMConfig(class_count=class_count, scale=scale, margin=0.0)


@dataclass(frozen=True)
class AAMSCConfig:
    class_count: int
    scale: float
    margin: float
    subcenters: int
    easy_margin: bool = False

    kind = "aamsc"

    def __post_init__(self):
        if self.class_count < 2:
            raise ConfigurationError(f"class_count must be >= 2, got {self.class_count}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigurationError(f"margin must be in [0, pi/2), got {self.margin}")
        if self.subcenters < 1:
            raise ConfigurationError(f"subcenters must be >= 1, got {self.subcenters}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class GE2EConfig:
    """Initial values of the learned affine similarity terms."""

    init_w: float = GE2E_INIT_W
    init_b: float = GE2E_INIT_B

    kind = "ge2e"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


LossConfig = CEConfig | AAMConfig | AAMSCConfig | GE2EConfig


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
    return make(**{f.name: json_field(d, f.name, kinds[f.name], path) for f in fields(make)})


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


def init_classifier(cfg: LossConfig, embed_dim: int, rng: np.random.Generator) -> ClassifierParams:
    """Fresh classifier parameters for a loss config.

    FC-style weights (and the CE bias) are uniform in
    [-1/sqrt(embed_dim), 1/sqrt(embed_dim)]; GE2E starts from its
    configured affine scalars.
    """
    bound = 1.0 / math.sqrt(embed_dim)
    if isinstance(cfg, CEConfig):
        w = rng.uniform(-bound, bound, size=(cfg.class_count, embed_dim))
        b = rng.uniform(-bound, bound, size=cfg.class_count)
        return ClassifierParams(weight=w, bias=b)
    if isinstance(cfg, AAMConfig):
        w = rng.uniform(-bound, bound, size=(cfg.class_count, embed_dim))
        return ClassifierParams(weight=w)
    if isinstance(cfg, AAMSCConfig):
        w = rng.uniform(-bound, bound, size=(cfg.class_count * cfg.subcenters, embed_dim))
        return ClassifierParams(weight=w)
    if isinstance(cfg, GE2EConfig):
        return ClassifierParams(ge2e_w=cfg.init_w, ge2e_b=cfg.init_b)
    raise ConfigurationError(f"unknown loss config {type(cfg).__name__}")


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


def ce_loss(embeddings: np.ndarray, labels, params: ClassifierParams) -> LossOutput:
    """Mean softmax cross-entropy of W x + bias against the labels."""
    x = np.asarray(embeddings, dtype=np.float64)
    w, b = params.weight, params.bias
    n = x.shape[0]
    y = _check_labels(labels, w.shape[0], n)

    logits = x @ w.T + b
    rows = np.arange(n)
    value = float(np.mean(log_sum_exp(logits, axis=1) - logits[rows, y]))

    dlogits = softmax(logits, axis=1)
    dlogits[rows, y] -= 1.0
    dlogits /= n
    return LossOutput(
        value=value,
        grad_embeddings=dlogits @ w,
        grad_params=ClassifierParams(weight=dlogits.T @ x, bias=dlogits.sum(axis=0)),
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
    target_logit = scale * target
    logits.reshape(-1)[flat] = target_logit
    value = float((log_sum_exp(logits, axis=1) - target_logit).sum() / n)

    dcos = softmax(logits, axis=1)
    dflat = dcos.reshape(-1)
    d_target = (dflat[flat] - 1.0) / n
    dcos /= n
    dcos *= scale
    dflat[flat] = scale * d_target * dtarget
    return value, dcos


def _cosine_backward(dcos: np.ndarray, cos: np.ndarray, xhat: np.ndarray, xnorm: np.ndarray,
                     what: np.ndarray, wnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a gradient on the cosine matrix back to raw x rows and w rows."""
    dc_cos = dcos * cos
    grad_x = dcos @ what
    grad_x -= dc_cos.sum(axis=1, keepdims=True) * xhat
    grad_x /= xnorm[:, None]
    grad_w = dcos.T @ xhat
    grad_w -= dc_cos.sum(axis=0)[:, None] * what
    grad_w /= wnorm[:, None]
    return grad_x, grad_w


def aam_loss(embeddings: np.ndarray, labels, params: ClassifierParams,
             cfg: AAMConfig) -> LossOutput:
    """Additive angular margin softmax over unit-normalized embeddings/weights."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = _check_labels(labels, cfg.class_count, x.shape[0])
    if params.weight.shape[0] != cfg.class_count:
        raise ConfigurationError(
            f"weight has {params.weight.shape[0]} rows, expected {cfg.class_count}"
        )
    xhat, xnorm = l2_normalize_rows(x, "embedding")
    what, wnorm = l2_normalize_rows(params.weight, "weight")
    cos = np.clip(xhat @ what.T, -1.0, 1.0)

    value, dcos = _margin_cross_entropy(cos, y, cfg.scale, cfg.margin, cfg.easy_margin)
    grad_x, grad_w = _cosine_backward(dcos, cos, xhat, xnorm, what, wnorm)
    return LossOutput(value=value, grad_embeddings=grad_x,
                      grad_params=ClassifierParams(weight=grad_w))


def aamsc_loss(embeddings: np.ndarray, labels, params: ClassifierParams,
               cfg: AAMSCConfig) -> LossOutput:
    """Sub-center AAM: per class, the maximum sub-center cosine competes."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    y = _check_labels(labels, cfg.class_count, n)
    c, k = cfg.class_count, cfg.subcenters
    if params.weight.shape[0] != c * k:
        raise ConfigurationError(f"weight has {params.weight.shape[0]} rows, expected {c * k}")
    xhat, xnorm = l2_normalize_rows(x, "embedding")
    what, wnorm = l2_normalize_rows(params.weight, "weight")

    cos_flat = xhat @ what.T
    np.clip(cos_flat, -1.0, 1.0, out=cos_flat)
    cos_sub = cos_flat.reshape(n, c, k)
    # Per class, the first maximum over its K sub-centers (argmax's tie
    # break): a later sub-center replaces it only when strictly greater.
    cos, pick = cos_sub[:, :, 0], 0
    for j in range(1, k):
        better = cos_sub[:, :, j] > cos
        cos = np.where(better, cos_sub[:, :, j], cos)
        pick = np.where(better, j, pick)

    value, dcos = _margin_cross_entropy(cos, y, cfg.scale, cfg.margin, cfg.easy_margin)

    # the selected sub-center of row i, class j is flat entry (i*C + j)*K + pick
    pick = np.arange(0, n * c * k, k).reshape(n, c) + pick
    dcos_sub = np.zeros((n, c * k))
    dcos_sub.reshape(-1)[pick] = dcos
    grad_x, grad_w = _cosine_backward(dcos_sub, cos_flat, xhat, xnorm, what, wnorm)
    return LossOutput(value=value, grad_embeddings=grad_x,
                      grad_params=ClassifierParams(weight=grad_w))


def ge2e_loss(embeddings: np.ndarray, params: ClassifierParams,
              cfg: GE2EConfig) -> LossOutput:
    """Contrastive (GE2E) loss on N x M grouped embeddings.

    Each utterance scores against every speaker's batch centroid (its own
    speaker's centroid excludes the utterance itself) via
    w * cos + b, followed by softmax cross-entropy against the own-speaker
    slot. Gradients cover the embeddings (including centroid paths) and
    the scalars w, b.
    """
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
        raise DomainError(f"speaker {int(np.argwhere(cnorm == 0.0)[0])} has a zero-norm centroid")
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
    lse = log_sum_exp(scores, axis=2)
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


def classify_confidence(x: np.ndarray, params: ClassifierParams, cfg: LossConfig,
                        unit_weight: np.ndarray | None = None) -> np.ndarray:
    """Probability over classes from the trained classifier, margin/scale off.

    CE keeps its full affine layer; AAM applies softmax to raw weight/
    embedding cosines; AAMSC reduces each class to its maximum sub-center
    cosine first. GE2E has no parametric classifier (a centroid classifier
    is constructed in the detection module instead). ``unit_weight`` is
    ``params.weight`` with unit rows, for callers that score many
    embeddings with one classifier; AAM/AAMSC compute it when it is omitted.
    """
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
            unit_weight, _ = l2_normalize_rows(params.weight, "weight")
        cos = np.clip(unit_weight @ (v / norm), -1.0, 1.0)
        if isinstance(cfg, AAMSCConfig):
            cos = cos.reshape(cfg.class_count, cfg.subcenters).max(axis=1)
        return softmax(cos)
    if isinstance(cfg, GE2EConfig):
        raise ConfigurationError("GE2E has no parametric classifier; use the centroid classifier")
    raise ConfigurationError(f"unknown loss config {type(cfg).__name__}")
