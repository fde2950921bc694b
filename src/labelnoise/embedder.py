"""Feed-forward embedder, Adam optimizer, and the balanced training loop.

The embedder is a small MLP (affine layers with tanh on the hidden ones,
final layer linear) mapping raw features to embeddings. Training draws
speaker-balanced batches (N distinct observed classes, M utterances each),
evaluates one of the metric-learning losses, and applies Adam with a fixed
learning rate. Everything is deterministic given (dataset, config).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError
from .jsonutil import digest_config, json_field, read_json, write_json17, write_text
from .losses import (
    AAMConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    LossConfig,
    aamsc_loss,
    ce_loss,
    ge2e_loss,
    init_classifier,
    loss_config_from_dict,
)
from .seeding import named_rng
from .synthdata import ClassTable, Dataset

MODEL_FORMAT_VERSION = 1
GE2E_W_FLOOR = 1e-4


@dataclass
class MlpParams:
    """Per-layer weight matrices (out x in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


def init_mlp(layer_dims: tuple[int, ...], rng: np.random.Generator) -> MlpParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] for weights and biases."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigurationError(f"invalid layer dims {layer_dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass on (n, d) features; returns (output, per-layer inputs for backward)."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.weights[0].shape[1]:
        raise DomainError(
            f"expected batch of dim-{params.weights[0].shape[1]} features, got shape {h.shape}"
        )
    cache = [h]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T
        h += b
        if i != last:
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def mlp_backward(
    params: MlpParams, cache: list[np.ndarray], grad_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of a scalar loss given d(loss)/d(output).

    Returns (weight grads, bias grads). The gradient with respect to the
    input batch is not formed: the features are not trained.
    """
    last = len(params.weights) - 1
    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    d = np.asarray(grad_out, dtype=np.float64)
    for i in range(last, -1, -1):
        if i != last:
            d = d @ params.weights[i + 1]
            d *= 1.0 - cache[i + 1] ** 2  # tanh'
        grad_w[i] = d.T @ cache[i]
        grad_b[i] = d.sum(axis=0)
    return grad_w, grad_b


def embed_batch(params: MlpParams, features: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(params, features)
    return out


@dataclass
class AdamState:
    """First/second-moment accumulators for one flat parameter vector,
    and two scratch vectors of the same shape for the update. The decay
    rates and epsilon are fixed."""

    m: np.ndarray
    v: np.ndarray
    step_count: int
    learning_rate: float
    _scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @staticmethod
    def fresh(params: np.ndarray, learning_rate: float) -> "AdamState":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), step_count=0,
                         learning_rate=learning_rate)

    @classmethod
    def hyperparameters(cls) -> dict:
        """The fixed ``beta1``, ``beta2`` and ``epsilon``, by name."""
        return {"beta1": cls.beta1, "beta2": cls.beta2, "epsilon": cls.epsilon}


def _first_non_finite(vec: np.ndarray, blocks: list[tuple[str, slice]] | None) -> str:
    """Name of the first block of ``vec`` holding a non-finite entry."""
    return next(name for name, sl in blocks or [("parameter vector", slice(None))]
                if not np.all(np.isfinite(vec[sl])))


def adam_step(
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
    if not np.isfinite(grads).all():
        label = _first_non_finite(grads, blocks)
        raise DivergenceError(f"non-finite gradient in parameter block {label!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    # params -= lr * (m/bc1) / (sqrt(v/bc2) + eps), evaluated in this
    # order into the two scratch vectors. Once bc1 rounds to 1.0 the
    # division by it is exact and is left out.
    a, b = state._scratch
    state.m *= state.beta1
    state.m += np.multiply(1.0 - state.beta1, grads, out=a)
    state.v *= state.beta2
    np.multiply(1.0 - state.beta2, grads, out=a)
    state.v += np.multiply(a, grads, out=a)
    if bc1 == 1.0:
        np.multiply(state.m, state.learning_rate, out=a)
    else:
        np.divide(state.m, bc1, out=a)
        a *= state.learning_rate
    np.divide(state.v, bc2, out=b)
    np.sqrt(b, out=b)
    b += state.epsilon
    a /= b
    params -= a
    return params, state


def _sample_positions(
    table: ClassTable, n_speakers: int, m_utts: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw N distinct eligible classes (uniform, no replacement) and M
    positions from each (uniform, no replacement); returns the (N, M)
    dataset positions and the N class labels.

    If fewer than N classes are eligible the batch is infeasible. The
    positions come from one ``rng.integers`` call that makes the same
    bounded draws, in the same order, as one ``rng.choice(members, M,
    replace=False)`` per class, so both forms give the same batches and
    leave ``rng`` in the same state (see ``_choice_offsets``).
    """
    if len(table.labels) < n_speakers:
        raise ConfigurationError(
            f"need {n_speakers} classes with >= {m_utts} utterances, "
            f"only {len(table.labels)} eligible"
        )
    chosen = rng.choice(len(table.labels), size=n_speakers, replace=False)
    starts, sizes = table.starts[chosen], table.sizes[chosen]
    if m_utts == 1:
        offsets = rng.integers(0, sizes)[:, None]
    else:
        offsets = _choice_offsets(sizes, m_utts, rng)
    return table.flat[starts[:, None] + offsets], table.labels[chosen]


def _choice_offsets(sizes: np.ndarray, m_utts: int, rng: np.random.Generator) -> np.ndarray:
    """M distinct offsets in ``[0, P)`` per class of P = ``sizes[row]``
    members, in random order: the (N, M) result of one ``rng.choice(P, M,
    replace=False)`` per row.

    For these sizes numpy's ``choice`` runs Floyd's algorithm (Bentley &
    Floyd, CACM 1987): for t = 0..M-1 it draws v in ``[0, P-M+t]`` and
    keeps v, or P-M+t if v is already kept; then it shuffles the M picks,
    swapping slot i with a draw in ``[0, i]`` for i = M-1..1. Each draw is
    one bounded Lemire draw, as ``rng.integers`` makes, so one
    ``rng.integers(0, highs)`` over the rows' highs ``P-M+1 .. P, M .. 2``
    makes every draw of the per-row calls, in the same order; the picks
    and swaps are then replayed on whole columns. numpy leaves Floyd for
    a class of more than 10,000 members when M > P // 50; there the
    replay no longer matches ``choice`` but is still a uniform ordered
    draw without replacement.
    """
    n, m = len(sizes), m_utts
    col = np.arange(2 * m - 1)
    draws = rng.integers(0, np.where(col < m, sizes[:, None] + (1 - m + col), 2 * m - col))
    picks = draws[:, :m].copy()
    for t in range(1, m):
        taken = (picks[:, :t] == picks[:, t:t + 1]).any(axis=1)
        picks[taken, t] = sizes[taken] - (m - t)
    flat, starts = picks.reshape(-1), np.arange(0, n * m, m)
    for i in range(m - 1, 0, -1):
        slot, other = starts + i, starts + draws[:, 2 * m - 1 - i]
        flat[slot], flat[other] = flat[other], flat[slot]
    return picks


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    total_steps: int = 5000
    batch_speakers: int = 64
    utts_per_speaker: int = 1
    easy_margin_fraction: float = 0.125
    seed: int = 0
    learning_rate: float = 1e-4
    hidden_dims: tuple[int, ...] = (64, 64)
    embed_dim: int = 32

    def __post_init__(self):
        if self.total_steps < 0:
            raise ConfigurationError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.batch_speakers < 1 or self.utts_per_speaker < 1:
            raise ConfigurationError("batch_speakers and utts_per_speaker must be >= 1")
        if isinstance(self.loss, GE2EConfig):
            if self.utts_per_speaker < 2:
                raise ConfigurationError("GE2E needs utts_per_speaker >= 2")
        elif self.utts_per_speaker != 1:
            raise ConfigurationError(
                f"{self.loss.kind} uses utts_per_speaker = 1, got {self.utts_per_speaker}"
            )
        if not 0.0 <= self.easy_margin_fraction <= 1.0:
            raise ConfigurationError(
                f"easy_margin_fraction must be in [0, 1], got {self.easy_margin_fraction}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.embed_dim < 1:
            raise ConfigurationError(f"embed_dim must be >= 1, got {self.embed_dim}")

    def to_dict(self) -> dict:
        return {**asdict(self), **AdamState.hyperparameters(), "loss": self.loss.to_dict(),
                "hidden_dims": list(self.hidden_dims)}


@dataclass
class TrainedModel:
    embedder: MlpParams
    classifier: ClassifierParams
    loss_config: LossConfig
    train_manifest: dict


def easy_margin_boundary(cfg: TrainConfig) -> int:
    """First step index at which the easy margin is switched off."""
    return math.ceil(cfg.easy_margin_fraction * cfg.total_steps)


# Trainable classifier fields, in parameter-vector order, with their block names.
_CLASSIFIER_BLOCKS = (("classifier.weight", "weight"), ("classifier.bias", "bias"),
                      ("ge2e.w", "ge2e_w"), ("ge2e.b", "ge2e_b"))


def _flatten(mlp: MlpParams, clf: ClassifierParams) -> tuple[np.ndarray, list, list]:
    """Copy every trainable block into one contiguous float64 vector.

    The blocks go in the order mlp.weight{i}, mlp.bias{i} per layer, then
    whichever classifier fields exist. The fields of ``mlp`` and ``clf``
    are rebound as views of the vector (GE2E's scalars as 0-d views), so an
    in-place update of the vector updates the model. Returns the vector,
    the (name, slice) of every block and the views, in block order.
    """
    n = len(mlp.weights)
    fields = [(name, f) for name, f in _CLASSIFIER_BLOCKS if getattr(clf, f) is not None]
    names = [f"mlp.{kind}{i}" for i in range(n) for kind in ("weight", "bias")]
    names += [name for name, _ in fields]
    arrays = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    arrays += [np.asarray(getattr(clf, f), dtype=np.float64) for _, f in fields]
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays]).tolist()
    blocks = [(name, slice(end - a.size, end)) for name, a, end in zip(names, arrays, ends)]
    views = [flat[sl].reshape(a.shape) for (_, sl), a in zip(blocks, arrays)]
    mlp.weights, mlp.biases = views[0:2 * n:2], views[1:2 * n:2]
    for (_, f), view in zip(fields, views[2 * n:]):
        setattr(clf, f, view)
    return flat, blocks, views


def train(ds: Dataset, cfg: TrainConfig) -> tuple[TrainedModel, list[tuple[int, float]]]:
    """Run the full training loop; returns the model and the loss curve.

    Each step samples a balanced batch, runs the embedder forward, the
    configured loss forward/backward, backpropagates into the MLP, and
    applies one Adam update. For AAM/AAMSC the easy margin is enabled for
    the first ceil(easy_margin_fraction * total_steps) steps. Parameters
    are checked finite after every step.
    """
    loss_cfg = cfg.loss
    if not isinstance(loss_cfg, GE2EConfig) and loss_cfg.class_count != ds.class_count:
        raise ConfigurationError(
            f"loss class_count {loss_cfg.class_count} != dataset class_count {ds.class_count}"
        )
    digest = digest_config(cfg.to_dict())

    init_rng = named_rng(cfg.seed, "init")
    batch_rng = named_rng(cfg.seed, "batches")
    layer_dims = (ds.feature_dim, *cfg.hidden_dims, cfg.embed_dim)
    mlp = init_mlp(layer_dims, init_rng)
    clf = init_classifier(loss_cfg, cfg.embed_dim, init_rng)

    params, blocks, views = _flatten(mlp, clf)
    grads = np.empty_like(params)
    # views of ``grads`` shaped like the parameter blocks, in block order
    grad_views = [grads[sl].reshape(v.shape) for (_, sl), v in zip(blocks, views)]
    clf_fields = [f for _, f in _CLASSIFIER_BLOCKS if getattr(clf, f) is not None]
    state = AdamState.fresh(params, cfg.learning_rate)
    is_ge2e = isinstance(loss_cfg, GE2EConfig)

    n_spk, m_utt = cfg.batch_speakers, cfg.utts_per_speaker
    table = ds.class_table(m_utt)
    boundary = easy_margin_boundary(cfg)
    if isinstance(loss_cfg, AAMConfig):
        # indexed by ``step < boundary``
        margin_cfgs = (replace(loss_cfg, easy_margin=False), replace(loss_cfg, easy_margin=True))

    curve: list[tuple[int, float]] = []
    for step in range(cfg.total_steps):
        positions, labels = _sample_positions(table, n_spk, m_utt, batch_rng)
        emb, cache = mlp_forward(mlp, ds.features.take(positions.reshape(-1), axis=0))

        if isinstance(loss_cfg, CEConfig):
            out = ce_loss(emb, np.repeat(labels, m_utt), clf)
        elif isinstance(loss_cfg, AAMConfig):
            out = aamsc_loss(emb, np.repeat(labels, m_utt), clf, margin_cfgs[step < boundary])
        else:
            out = ge2e_loss(emb.reshape(n_spk, m_utt, -1), clf, loss_cfg)

        if not math.isfinite(out.value):
            raise DivergenceError(f"loss diverged at step {step} (config digest {digest})")

        gw, gb = mlp_backward(mlp, cache, out.grad_embeddings.reshape(emb.shape))
        clf_grads = (getattr(out.grad_params, f) for f in clf_fields)
        for view, g in zip(grad_views, chain(*zip(gw, gb), clf_grads)):
            view[...] = g
        adam_step(params, grads, state, blocks)

        if is_ge2e:
            clf.ge2e_w[...] = max(float(clf.ge2e_w), GE2E_W_FLOOR)
        if not np.isfinite(params).all():
            raise DivergenceError(
                f"non-finite parameter in block {_first_non_finite(params, blocks)!r} "
                f"after step {step} (config digest {digest})"
            )
        curve.append((step, out.value))

    if is_ge2e:
        clf.ge2e_w, clf.ge2e_b = float(clf.ge2e_w), float(clf.ge2e_b)
    manifest = {
        "seed": cfg.seed,
        "config_digest": digest,
        "total_steps": cfg.total_steps,
        "easy_margin_boundary": boundary,
        "adam": {**AdamState.hyperparameters(), "learning_rate": cfg.learning_rate},
        "loss_kind": loss_cfg.kind,
    }
    model = TrainedModel(embedder=mlp, classifier=clf, loss_config=loss_cfg,
                         train_manifest=manifest)
    return model, curve


def model_to_dict(model: TrainedModel) -> dict:
    clf = model.classifier
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": list(model.embedder.layer_dims),
        "mlp": {
            "weights": [w.tolist() for w in model.embedder.weights],
            "biases": [b.tolist() for b in model.embedder.biases],
        },
        "classifier": {
            "weight": None if clf.weight is None else clf.weight.tolist(),
            "bias": None if clf.bias is None else clf.bias.tolist(),
            "ge2e_w": clf.ge2e_w,
            "ge2e_b": clf.ge2e_b,
        },
        "loss_config": model.loss_config.to_dict(),
        "train_manifest": model.train_manifest,
    }


def save_model(model: TrainedModel, path) -> None:
    write_json17(model_to_dict(model), path)


def _number_array(value, ndim: int, path: str) -> np.ndarray:
    """A JSON list (ndim 1) or list of equal-length lists (ndim 2) of finite numbers."""
    rows = [value] if ndim == 1 else value
    if isinstance(value, list) and all(
            isinstance(r, list) and set(map(type, r)) <= {int, float} for r in rows):
        with contextlib.suppress(OverflowError, ValueError):  # beyond float64, ragged rows
            arr = np.asarray(value, dtype=np.float64)
            if arr.ndim == ndim and arr.size and np.all(np.isfinite(arr)):
                return arr
    shape = "list" if ndim == 1 else "list of equal-length lists"
    raise ConfigurationError(f"{path} must be a non-empty {shape} of finite numbers")


def model_from_dict(d: dict) -> TrainedModel:
    """Rebuild a model from ``model_to_dict`` output, checking every field."""
    version = d.get("format_version") if isinstance(d, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ConfigurationError(f"unsupported model format_version {version!r}")
    raw = json_field(d, "mlp", dict, "model")
    weights, biases = (json_field(raw, key, list, "model.mlp") for key in ("weights", "biases"))
    if not weights or len(weights) != len(biases):
        raise ConfigurationError("model.mlp needs as many biases as weights, at least one")
    mlp = MlpParams(
        weights=[_number_array(w, 2, f"model.mlp.weights[{i}]") for i, w in enumerate(weights)],
        biases=[_number_array(b, 1, f"model.mlp.biases[{i}]") for i, b in enumerate(biases)],
    )
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if b.shape != w.shape[:1] or (i > 0 and w.shape[1] != mlp.weights[i - 1].shape[0]):
            raise ConfigurationError(f"model.mlp layer {i}: weight shape {w.shape} and bias "
                                     f"shape {b.shape} do not chain onto the previous layer")
    c = json_field(d, "classifier", dict, "model")
    weight, bias = (json_field(c, key, list, "model.classifier", nullable=True)
                    for key in ("weight", "bias"))
    clf = ClassifierParams(
        weight=None if weight is None else _number_array(weight, 2, "model.classifier.weight"),
        bias=None if bias is None else _number_array(bias, 1, "model.classifier.bias"),
        ge2e_w=json_field(c, "ge2e_w", float, "model.classifier", nullable=True),
        ge2e_b=json_field(c, "ge2e_b", float, "model.classifier", nullable=True),
    )
    loss_cfg = loss_config_from_dict(json_field(d, "loss_config", dict, "model"),
                                     "model.loss_config")
    owned = (("ge2e_w", "ge2e_b") if isinstance(loss_cfg, GE2EConfig)
             else ("weight", "bias") if isinstance(loss_cfg, CEConfig) else ("weight",))
    for _, key in _CLASSIFIER_BLOCKS:  # the fields a loss kind owns are set, the others null
        if (getattr(clf, key) is None) == (key in owned):
            need = "must not be null" if key in owned else "must be null"
            raise ConfigurationError(f"model.classifier.{key} {need} for loss kind "
                                     f"{loss_cfg.kind!r}")
    if not isinstance(loss_cfg, GE2EConfig):
        rows = loss_cfg.class_count
        if isinstance(loss_cfg, AAMConfig):
            rows *= loss_cfg.subcenters
        expected = (rows, mlp.layer_dims[-1])
        if clf.weight.shape != expected:
            raise ConfigurationError(f"classifier weight shape {clf.weight.shape} inconsistent "
                                     f"with loss config (expected {expected})")
        if isinstance(loss_cfg, CEConfig) and clf.bias.shape != (rows,):
            raise ConfigurationError(f"model.classifier.bias must hold {rows} numbers")
    return TrainedModel(embedder=mlp, classifier=clf, loss_config=loss_cfg,
                        train_manifest=json_field(d, "train_manifest", dict, "model"))


def load_model(path) -> TrainedModel:
    return model_from_dict(read_json(path, "model"))


def write_loss_curve(curve: list[tuple[int, float]], path) -> None:
    """CSV columns: step,loss."""
    write_text(path, chain(["step,loss\n"], map("%d,%.17g\n".__mod__, curve)))
