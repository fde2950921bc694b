"""Feed-forward embedder, Adam optimizer, and the balanced training loop.

The embedder is a small MLP (affine layers with tanh on the hidden ones,
final layer linear) mapping raw features to embeddings. Training draws
speaker-balanced batches (N distinct observed classes, M utterances each),
a chunk of steps at a time with the same ``choice``/``integers`` calls in
the same order as one draw per step, evaluates one of the metric-learning
losses, and applies Adam with a fixed learning rate. Everything is
deterministic given (dataset, config).

Training updates one flat float64 vector laid out by ``parameter_layout``
and drawn block by block by ``init_parameters``; the backward pass writes
into views of a gradient vector of the same layout. A model file stores
that vector, as the base64 text of its little-endian float64 bytes, next
to the layer dims and loss config that fix its layout, so the loader
checks only that text, its length and its finiteness.
The loss curve is written through ``jsonutil.write_rows``.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate, chain

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, LabelNoiseError
from .jsonutil import digest_config, json_field, read_json, write_json17, write_rows
from .losses import (
    AAMConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    LossConfig,
    aamsc_loss,
    ce_loss,
    ge2e_loss,
    loss_config_from_dict,
)
from .numerics import row_dot
from .seeding import named_rng
from .synthdata import ClassTable, Dataset

MODEL_FORMAT_VERSION = 3
GE2E_W_FLOOR = 1e-4
CHUNK = 128  # steps whose batches are drawn at once; bounds the memory they take


@dataclass
class MlpParams:
    """Per-layer weight matrices (out x in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


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


def mlp_backward(params: MlpParams, cache: list[np.ndarray], grad_out: np.ndarray,
                 out: MlpParams) -> None:
    """Gradients of a scalar loss given d(loss)/d(output), written into the
    weights and biases of ``out``. The gradient with respect to the input
    batch is not formed: the features are not trained."""
    last = len(params.weights) - 1
    d = np.asarray(grad_out, dtype=np.float64)
    for i in range(last, -1, -1):
        if i != last:
            d = d @ params.weights[i + 1]
            d *= 1.0 - cache[i + 1] ** 2  # tanh'
        np.matmul(d.T, cache[i], out=out.weights[i])
        np.add.reduce(d, axis=0, out=out.biases[i])


def embed_batch(params: MlpParams, features: np.ndarray, utt_id: np.ndarray,
                source: str | None) -> np.ndarray:
    """Embeddings of the rows of ``features``; one whose norm is not finite, which no
    score can use, is refused, named by its ``utt_id`` entry and the model file
    ``source`` (None for a model trained in this process)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = mlp_forward(params, features)
        finite = np.isfinite(row_dot(out, out))
    if not finite.all():
        row = int(np.argmin(finite))
        where = "" if source is None else f"model file {source}: "
        raise DomainError(f"{where}utterance {utt_id[row]} has a non-finite embedding norm")
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


def _first_non_finite(vec: np.ndarray, blocks: list[tuple[str, slice]]) -> str:
    """Name of the first block of ``vec`` holding a non-finite entry."""
    return next(name for name, sl in blocks if not np.all(np.isfinite(vec[sl])))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              blocks: list[tuple[str, slice]]) -> None:
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


def _sample_chunk(
    table: ClassTable, n_speakers: int, m_utts: int, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``steps`` consecutive batches, each of N distinct eligible
    classes (uniform, no replacement) and M positions from each (uniform,
    no replacement); returns the (steps, N, M) dataset positions and the
    (steps, N) class labels.

    If fewer than N classes are eligible the batch is infeasible. Step by
    step, one ``rng.choice`` call draws the classes and one
    ``rng.integers`` call makes the same bounded draws, in the same order,
    as one ``rng.choice(members, M, replace=False)`` per class. So the
    batches, and the state ``rng`` is left in, are those of drawing one
    step at a time, or one class at a time.

    For these sizes numpy's ``choice`` runs Floyd's algorithm (Bentley &
    Floyd, CACM 1987): for t = 0..M-1 it draws v in ``[0, P-M+t]`` and
    keeps v, or P-M+t if v is already kept; then it shuffles the M picks,
    swapping slot i with a draw in ``[0, i]`` for i = M-1..1. Each draw is
    one bounded Lemire draw, as ``rng.integers`` makes, so one
    ``rng.integers(0, highs)`` over the chosen classes' highs
    ``P-M+1 .. P, M .. 2`` (tabulated once per class) makes every draw of
    the per-class calls. The picks and swaps are then replayed on whole
    columns of all the steps' rows at once. numpy leaves Floyd for a class
    of more than 10,000 members when M > P // 50; there the replay no
    longer matches ``choice`` but is still a uniform ordered draw without
    replacement.
    """
    n_classes, n, m = len(table.labels), n_speakers, m_utts
    if n_classes < n:
        raise ConfigurationError(
            f"need {n} classes with >= {m} utterances, only {n_classes} eligible")
    col = np.arange(2 * m - 1)
    highs = np.where(col < m, table.sizes[:, None] + (1 - m + col), 2 * m - col)
    chosen, draws = [], []
    for _ in range(steps):
        chosen.append(rng.choice(n_classes, size=n, replace=False))
        draws.append(rng.integers(0, highs[chosen[-1]]))
    chosen, draws = np.array(chosen), np.concatenate(draws)
    sizes, picks = table.sizes[chosen].reshape(-1), draws[:, :m].copy()
    for t in range(1, m):
        taken = (picks[:, :t] == picks[:, t:t + 1]).any(axis=1)
        picks[taken, t] = sizes[taken] - (m - t)
    flat, starts = picks.reshape(-1), np.arange(0, steps * n * m, m)
    for i in range(m - 1, 0, -1):
        slot, other = starts + i, starts + draws[:, 2 * m - 1 - i]
        flat[slot], flat[other] = flat[other], flat[slot]
    picks += table.starts[chosen].reshape(-1, 1)
    return table.flat[picks].reshape(steps, n, m), table.labels[chosen]


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
            if self.batch_speakers < 2 or self.utts_per_speaker < 2:
                raise ConfigurationError(
                    f"GE2E needs batch_speakers >= 2 and utts_per_speaker >= 2, got "
                    f"{self.batch_speakers} and {self.utts_per_speaker}")
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
        if self.embed_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ConfigurationError(f"layer dims must be >= 1, got hidden_dims "
                                     f"{self.hidden_dims}, embed_dim {self.embed_dim}")

    def to_dict(self) -> dict:
        return {**asdict(self), **AdamState.hyperparameters(), "loss": self.loss.to_dict(),
                "hidden_dims": list(self.hidden_dims)}


@dataclass
class TrainedModel:
    embedder: MlpParams
    classifier: ClassifierParams
    loss_config: LossConfig
    train_manifest: dict
    # the model file it was read from; None for a model trained in this process
    source: str | None = field(default=None, compare=False)


def easy_margin_boundary(cfg: TrainConfig) -> int:
    """First step index at which the easy margin is switched off."""
    return math.ceil(cfg.easy_margin_fraction * cfg.total_steps)


# The classifier blocks of the parameter vector, by the ClassifierParams field each fills.
_CLASSIFIER_FIELDS = {"classifier.weight": "weight", "classifier.bias": "bias",
                      "ge2e.w": "ge2e_w", "ge2e.b": "ge2e_b"}


def parameter_layout(layer_dims, loss_cfg: LossConfig) -> list[tuple[str, tuple, slice]]:
    """Name, shape and slice of every block of a model's flat parameter vector.

    The blocks go mlp.weight{i} (out x in) and mlp.bias{i} per layer, then
    the classifier's: classifier.weight (C * K rows, K = 1 but for AAMSC)
    and, for CE only, classifier.bias; or GE2E's scalars ge2e.w and ge2e.b.
    """
    shapes = [(f"mlp.{kind}{i}", shape)
              for i, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:]))
              for kind, shape in (("weight", (fan_out, fan_in)), ("bias", (fan_out,)))]
    if isinstance(loss_cfg, GE2EConfig):
        shapes += [("ge2e.w", ()), ("ge2e.b", ())]
    else:
        rows = loss_cfg.class_count * getattr(loss_cfg, "subcenters", 1)
        shapes.append(("classifier.weight", (rows, layer_dims[-1])))
        if isinstance(loss_cfg, CEConfig):
            shapes.append(("classifier.bias", (rows,)))
    ends = accumulate(math.prod(shape) for _, shape in shapes)
    return [(name, shape, slice(end - math.prod(shape), end))
            for (name, shape), end in zip(shapes, ends)]


def init_parameters(layout, loss_cfg: LossConfig, rng: np.random.Generator) -> np.ndarray:
    """A fresh flat parameter vector, drawn block by block in layout order: a
    2-D block uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], a 1-D block (the
    bias after its weight) with that weight's bound, GE2E's ``init_w``, ``init_b``."""
    flat = np.empty(layout[-1][2].stop)
    for name, shape, sl in layout:
        if len(shape) == 2:
            bound = 1.0 / math.sqrt(shape[1])
        if shape:
            flat[sl] = rng.uniform(-bound, bound, size=sl.stop - sl.start)
        else:
            flat[sl] = loss_cfg.init_w if name == "ge2e.w" else loss_cfg.init_b
    return flat


def _unflatten(flat: np.ndarray, layout) -> tuple[MlpParams, ClassifierParams]:
    """The model's blocks as views of ``flat``, GE2E's scalars as 0-d views,
    so an in-place update of ``flat`` updates the model."""
    views = [flat[sl].reshape(shape) for _, shape, sl in layout]
    n = sum(name.startswith("mlp.") for name, _, _ in layout)
    clf = {_CLASSIFIER_FIELDS[name]: v for (name, _, _), v in zip(layout[n:], views[n:])}
    return MlpParams(weights=views[0:n:2], biases=views[1:n:2]), ClassifierParams(**clf)


def _trained_model(flat: np.ndarray, layout, loss_cfg: LossConfig, manifest: dict) -> TrainedModel:
    """The model held in ``flat``; GE2E's scalars become Python floats."""
    mlp, clf = _unflatten(flat, layout)
    if isinstance(loss_cfg, GE2EConfig):
        clf.ge2e_w, clf.ge2e_b = float(clf.ge2e_w), float(clf.ge2e_b)
    return TrainedModel(embedder=mlp, classifier=clf, loss_config=loss_cfg,
                        train_manifest=manifest)


def train(ds: Dataset, cfg: TrainConfig) -> tuple[TrainedModel, list[tuple[int, float]]]:
    """Run the full training loop; returns the model and the loss curve.

    Each step takes a balanced batch, runs the embedder forward, the
    configured loss forward/backward, backpropagates into the MLP, and
    applies one Adam update. The batches are drawn ``CHUNK`` steps at a
    time (``_sample_chunk``), with the same generator calls in the same
    order as one draw per step. For AAM/AAMSC the easy margin is enabled for
    the first ceil(easy_margin_fraction * total_steps) steps. Parameters
    are checked finite after every step.
    """
    loss_cfg = cfg.loss
    digest = digest_config(cfg.to_dict())

    batch_rng = named_rng(cfg.seed, "batches")
    layer_dims = (ds.feature_dim, *cfg.hidden_dims, cfg.embed_dim)
    layout = parameter_layout(layer_dims, loss_cfg)
    params = init_parameters(layout, loss_cfg, named_rng(cfg.seed, "init"))
    mlp, clf = _unflatten(params, layout)
    blocks = [(name, sl) for name, _, sl in layout]
    # each step writes every block: the MLP's in mlp_backward, the classifier's below
    grads = np.empty_like(params)
    grad_mlp, grad_clf = _unflatten(grads, layout)
    grad_clf_blocks = {name: v for name, v in vars(grad_clf).items() if v is not None}
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
        k = step % CHUNK
        if k == 0:
            positions, labels = _sample_chunk(table, n_spk, m_utt,
                                              min(CHUNK, cfg.total_steps - step), batch_rng)
        emb, cache = mlp_forward(mlp, ds.features.take(positions[k].reshape(-1), axis=0))

        if isinstance(loss_cfg, CEConfig):
            out = ce_loss(emb, labels[k], clf)
        elif isinstance(loss_cfg, AAMConfig):
            out = aamsc_loss(emb, labels[k], clf, margin_cfgs[step < boundary])
        else:
            out = ge2e_loss(emb.reshape(n_spk, m_utt, -1), clf)

        if not math.isfinite(out.value):
            raise DivergenceError(f"loss diverged at step {step} (config digest {digest})")

        mlp_backward(mlp, cache, out.grad_embeddings.reshape(emb.shape), grad_mlp)
        for name, view in grad_clf_blocks.items():
            view[...] = getattr(out.grad_params, name)
        adam_step(params, grads, state, blocks)

        if is_ge2e:
            clf.ge2e_w[...] = max(float(clf.ge2e_w), GE2E_W_FLOOR)
        if not np.isfinite(params).all():
            raise DivergenceError(
                f"non-finite parameter in block {_first_non_finite(params, blocks)!r} "
                f"after step {step} (config digest {digest})"
            )
        curve.append((step, out.value))

    manifest = {
        "seed": cfg.seed,
        "config_digest": digest,
        "total_steps": cfg.total_steps,
        "easy_margin_boundary": boundary,
        "adam": {**AdamState.hyperparameters(), "learning_rate": cfg.learning_rate},
        "loss_kind": loss_cfg.kind,
    }
    return _trained_model(params, layout, loss_cfg, manifest), curve


def parameter_vector(model: TrainedModel) -> np.ndarray:
    """The model's blocks raveled into one new float64 vector in its ``parameter_layout``."""
    mlp, clf = model.embedder, model.classifier
    clf_layout = parameter_layout(mlp.layer_dims, model.loss_config)[2 * len(mlp.weights):]
    arrays = chain(*zip(mlp.weights, mlp.biases),
                   (getattr(clf, _CLASSIFIER_FIELDS[name]) for name, _, _ in clf_layout))
    return np.concatenate([np.ravel(a) for a in arrays])


def model_to_dict(model: TrainedModel) -> dict:
    """The model as JSON values: its layer dims and loss config, which fix
    the ``parameter_layout``, and the flat parameter vector in that layout
    as the base64 text of its little-endian float64 bytes."""
    vec = parameter_vector(model)
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": list(model.embedder.layer_dims),
        "loss_config": model.loss_config.to_dict(),
        "train_manifest": model.train_manifest,
        "parameters": base64.b64encode(vec.astype("<f8").tobytes()).decode("ascii"),
    }


def save_model(model: TrainedModel, path) -> None:
    write_json17(model_to_dict(model), path)


def model_from_dict(d: dict) -> TrainedModel:
    """Rebuild a model from ``model_to_dict`` output.

    The header fields are checked first; ``parameters`` must then be the
    canonical base64 text (the one ``b64encode`` writes) of exactly as
    many finite little-endian float64 values as their layout holds.
    """
    version = d.get("format_version") if isinstance(d, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ConfigurationError(f"unsupported format_version {version!r}")
    dims = json_field(d, "layer_dims", list, "model")
    if len(dims) < 2 or any(type(n) is not int or n < 1 for n in dims):  # no bools
        raise ConfigurationError("model.layer_dims must list two or more ints >= 1")
    loss_cfg = loss_config_from_dict(json_field(d, "loss_config", dict, "model"),
                                     "model.loss_config")
    manifest = json_field(d, "train_manifest", dict, "model")
    layout = parameter_layout(dims, loss_cfg)
    text = json_field(d, "parameters", str, "model")
    size, flat = layout[-1][2].stop, None
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raw = None
    # b64decode takes unused low bits in the last character (``AB==`` reads
    # as ``AA==``); only the text b64encode writes for the bytes is taken
    if raw is not None and len(raw) == 8 * size and base64.b64encode(raw).decode() == text:
        flat = np.frombuffer(raw, "<f8").astype(np.float64)
    if flat is None or not np.isfinite(flat).all():
        raise ConfigurationError(f"model.parameters must be the base64 of {size} finite "
                                 "little-endian float64 values")
    return _trained_model(flat, layout, loss_cfg, manifest)


def load_model(path) -> TrainedModel:
    """Read a model file, kept as the model's ``source``; a fault in its
    content raises a LabelNoiseError reading ``model file PATH: <what>``."""
    d = read_json(path, "model")
    try:
        return replace(model_from_dict(d), source=str(path))
    except LabelNoiseError as exc:
        raise type(exc)(f"model file {path}: {exc}") from None


def write_loss_curve(curve: list[tuple[int, float]], path) -> None:
    """CSV columns: step,loss."""
    write_rows(path, "step,loss\n", "%d,%.17g\n", list(zip(*curve)))
