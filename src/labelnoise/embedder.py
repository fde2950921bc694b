"""Feed-forward embedder, Adam optimizer, and the balanced training loop.

The embedder is a small MLP (affine layers with tanh on the hidden ones,
final layer linear) mapping raw features to embeddings. Training draws
speaker-balanced batches (N distinct observed classes, M utterances each),
evaluates one of the metric-learning losses, and applies Adam with a fixed
learning rate. Everything is deterministic given (dataset, config).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError
from .jsonutil import digest_config, dump_json17
from .losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    LossConfig,
    aam_loss,
    aamsc_loss,
    ce_loss,
    ge2e_loss,
    init_classifier,
    loss_config_from_dict,
)
from .seeding import named_rng
from .synthdata import Dataset

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
        z = h @ w.T + b
        h = z if i == last else np.tanh(z)
        cache.append(h)
    return h, cache


def mlp_backward(
    params: MlpParams, cache: list[np.ndarray], grad_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(output).

    Returns (weight grads, bias grads, gradient with respect to the input
    batch).
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


def embed_batch(params: MlpParams, features: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(params, features)
    return out


@dataclass
class AdamState:
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
              beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step_count=0,
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    names: list[str] | None = None,
) -> tuple[list[np.ndarray], AdamState]:
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


def _sample_positions(
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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

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

    @property
    def batch_size(self) -> int:
        return self.batch_speakers * self.utts_per_speaker

    def to_dict(self) -> dict:
        return {
            "loss": self.loss.to_dict(),
            "total_steps": self.total_steps,
            "batch_speakers": self.batch_speakers,
            "utts_per_speaker": self.utts_per_speaker,
            "easy_margin_fraction": self.easy_margin_fraction,
            "seed": self.seed,
            "learning_rate": self.learning_rate,
            "hidden_dims": list(self.hidden_dims),
            "embed_dim": self.embed_dim,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "epsilon": self.epsilon,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return TrainConfig(
            loss=loss_config_from_dict(d["loss"]),
            total_steps=int(d.get("total_steps", 5000)),
            batch_speakers=int(d.get("batch_speakers", 64)),
            utts_per_speaker=int(d.get("utts_per_speaker", 1)),
            easy_margin_fraction=float(d.get("easy_margin_fraction", 0.125)),
            seed=int(d.get("seed", 0)),
            learning_rate=float(d.get("learning_rate", 1e-4)),
            hidden_dims=tuple(int(h) for h in d.get("hidden_dims", (64, 64))),
            embed_dim=int(d.get("embed_dim", 32)),
            beta1=float(d.get("beta1", 0.9)),
            beta2=float(d.get("beta2", 0.999)),
            epsilon=float(d.get("epsilon", 1e-8)),
        )


@dataclass
class TrainedModel:
    embedder: MlpParams
    classifier: ClassifierParams
    loss_config: LossConfig
    train_manifest: dict


def easy_margin_boundary(cfg: TrainConfig) -> int:
    """First step index at which the easy margin is switched off."""
    return math.ceil(cfg.easy_margin_fraction * cfg.total_steps)


def _collect_params(mlp: MlpParams, clf: ClassifierParams) -> tuple[list[np.ndarray], list[str]]:
    params: list[np.ndarray] = []
    names: list[str] = []
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        params += [w, b]
        names += [f"mlp.weight{i}", f"mlp.bias{i}"]
    if clf.weight is not None:
        params.append(clf.weight)
        names.append("classifier.weight")
    if clf.bias is not None:
        params.append(clf.bias)
        names.append("classifier.bias")
    return params, names


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

    is_ge2e = isinstance(loss_cfg, GE2EConfig)
    if is_ge2e:
        ge2e_scalars = [
            np.asarray(float(clf.ge2e_w)),
            np.asarray(float(clf.ge2e_b)),
        ]
    params, names = _collect_params(mlp, clf)
    if is_ge2e:
        params += ge2e_scalars
        names += ["ge2e.w", "ge2e.b"]
    state = AdamState.fresh(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon)

    groups = ds.ids_by_observed_class()
    boundary = easy_margin_boundary(cfg)
    n_spk, m_utt = cfg.batch_speakers, cfg.utts_per_speaker

    curve: list[tuple[int, float]] = []
    for step in range(cfg.total_steps):
        positions, labels = _sample_positions(groups, n_spk, m_utt, batch_rng)
        emb, cache = mlp_forward(mlp, ds.features[positions.reshape(-1)])

        if isinstance(loss_cfg, CEConfig):
            out = ce_loss(emb, np.repeat(labels, m_utt), clf)
            clf_grads = [out.grad_params.weight, out.grad_params.bias]
        elif isinstance(loss_cfg, AAMConfig):
            step_cfg = replace(loss_cfg, easy_margin=step < boundary)
            out = aam_loss(emb, np.repeat(labels, m_utt), clf, step_cfg)
            clf_grads = [out.grad_params.weight]
        elif isinstance(loss_cfg, AAMSCConfig):
            step_cfg = replace(loss_cfg, easy_margin=step < boundary)
            out = aamsc_loss(emb, np.repeat(labels, m_utt), clf, step_cfg)
            clf_grads = [out.grad_params.weight]
        else:
            clf.ge2e_w = float(ge2e_scalars[0])
            clf.ge2e_b = float(ge2e_scalars[1])
            out = ge2e_loss(emb.reshape(n_spk, m_utt, -1), clf, loss_cfg)
            clf_grads = [np.asarray(out.grad_params.ge2e_w), np.asarray(out.grad_params.ge2e_b)]

        if not math.isfinite(out.value):
            raise DivergenceError(f"loss diverged at step {step} (config digest {digest})")

        grad_emb = out.grad_embeddings.reshape(emb.shape)
        gw, gb, _ = mlp_backward(mlp, cache, grad_emb)
        grads: list[np.ndarray] = []
        for w_g, b_g in zip(gw, gb):
            grads += [w_g, b_g]
        grads += clf_grads
        adam_step(params, grads, state, names)

        if is_ge2e:
            ge2e_scalars[0][...] = max(float(ge2e_scalars[0]), GE2E_W_FLOOR)
            clf.ge2e_w = float(ge2e_scalars[0])
            clf.ge2e_b = float(ge2e_scalars[1])

        for p, name in zip(params, names):
            if not np.all(np.isfinite(p)):
                raise DivergenceError(
                    f"non-finite parameter in block {name!r} after step {step} "
                    f"(config digest {digest})"
                )
        curve.append((step, out.value))

    manifest = {
        "seed": cfg.seed,
        "config_digest": digest,
        "total_steps": cfg.total_steps,
        "easy_margin_boundary": boundary,
        "adam": {"beta1": cfg.beta1, "beta2": cfg.beta2, "epsilon": cfg.epsilon,
                 "learning_rate": cfg.learning_rate},
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
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dump_json17(model_to_dict(model)))
        fh.write("\n")


def model_from_dict(d: dict) -> TrainedModel:
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigurationError(f"unsupported model format_version {d.get('format_version')!r}")
    mlp = MlpParams(
        weights=[np.asarray(w, dtype=np.float64) for w in d["mlp"]["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in d["mlp"]["biases"]],
    )
    c = d["classifier"]
    clf = ClassifierParams(
        weight=None if c["weight"] is None else np.asarray(c["weight"], dtype=np.float64),
        bias=None if c["bias"] is None else np.asarray(c["bias"], dtype=np.float64),
        ge2e_w=None if c["ge2e_w"] is None else float(c["ge2e_w"]),
        ge2e_b=None if c["ge2e_b"] is None else float(c["ge2e_b"]),
    )
    loss_cfg = loss_config_from_dict(d["loss_config"])
    embed_dim = mlp.layer_dims[-1]
    if isinstance(loss_cfg, (CEConfig, AAMConfig)):
        expected_rows = loss_cfg.class_count
    elif isinstance(loss_cfg, AAMSCConfig):
        expected_rows = loss_cfg.class_count * loss_cfg.subcenters
    else:
        expected_rows = None
    if expected_rows is not None:
        if clf.weight is None or clf.weight.shape != (expected_rows, embed_dim):
            got = None if clf.weight is None else clf.weight.shape
            raise ConfigurationError(
                f"classifier weight shape {got} inconsistent with loss config "
                f"(expected {(expected_rows, embed_dim)})"
            )
    return TrainedModel(embedder=mlp, classifier=clf, loss_config=loss_cfg,
                        train_manifest=dict(d.get("train_manifest", {})))


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed model file {path}: {exc.msg}") from exc
    return model_from_dict(payload)


def write_loss_curve(curve: list[tuple[int, float]], path) -> None:
    """CSV columns: step,loss."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("step,loss\n")
        for step, value in curve:
            fh.write("%d,%s\n" % (step, format(value, ".17g")))
