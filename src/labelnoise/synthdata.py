"""Synthetic labeled datasets and label-noise injection.

A dataset is a set of feature vectors with class labels. Each class owns a
unit latent direction on the sphere; an utterance's features are a fixed
random linear mix of (direction + isotropic Gaussian jitter). Two noise
models corrupt a clean dataset:

* permute noise: an utterance keeps its features but its observed label is
  replaced by a uniformly random *different* class;
* open-set noise: an utterance keeps its label but its features are
  replaced by those of an utterance from an auxiliary dataset whose
  classes do not overlap the main dataset's.

Each path draws a block at a time, yet consumes its named stream as the
one-draw-at-a-time loops in ``tests/oracles.py`` do. The noise replay
mirrors numpy's PCG64: ``next_double`` (``(w >> 11) * 2**-53``), the
buffered ``next_uint32`` (a word's low half, then its high half at the next
call), Lemire's bound (``(h * bound) >> 32``, redrawn while the low 32 bits
are below ``(2**32 - bound) % bound``) and no draw at bound 1.

A dataset file is one JSON header line (``C``, ``d``, ``format_version``,
``provenance``), then the ``np.save`` bytes of one structured array with a
row per utterance, so every value reads back with the same bits.
``load_dataset`` takes exactly that layout and checks every column.
"""

from __future__ import annotations

import io
import json
import math
import reprlib
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InternalError, LabelNoiseError, ParseError, ValidationError
from .jsonutil import dump_json17, json_field, json_problem, write_text
from .numerics import row_dot
from .seeding import named_rng

FORMAT_VERSION = 2

# Rejection threshold used to keep auxiliary class directions away from
# in-distribution ones ("no class overlap"), and the draws allowed per direction.
MAX_OVERLAP_COS = 0.95
MAX_DIRECTION_TRIES = 10000

# Default within-class jitter scale: small enough that classes are
# learnable at desk scale, large enough that clean utterances are not
# trivially separable from label noise.
DEFAULT_WITHIN_CLASS_SPREAD = 0.2

# Rows per block of the temporaries: candidate directions, jitter rows, raw
# generator words and copied feature rows.
_DIRECTION_BLOCK, _JITTER_ROWS, _RAW_BLOCK, _COPY_ROWS = 64, 1024, 2048, 512

# The noise replay's state before a raw word: a double next with no half
# buffered (0), with an accepted (1) or a rejected (2) half buffered, or an
# integer's word next (3). ``_NEXT_STATE[4 * flag + 2 * low_ok + high_ok, state]``
# is the state after the word.
_DOUBLE, _INTEGER = 0, 3
_NEXT_STATE = np.array([[0, 1, 2, 3], [0, 1, 2, 0], [0, 1, 2, 2], [0, 1, 2, 1],
                        [3, 0, 3, 3], [3, 0, 3, 0], [3, 0, 3, 2], [3, 0, 3, 1]], dtype=np.intp)

PERMUTE = "permute"
OPEN_SET = "open_set"


@dataclass(frozen=True)
class NoiseSpec:
    """How a dataset was (or should be) corrupted."""

    kind: str
    level_q: float
    seed: int

    def __post_init__(self):
        if self.kind not in (PERMUTE, OPEN_SET):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.level_q <= 100.0:
            raise ConfigurationError(f"noise level must be in [0, 100], got {self.level_q}")


class ClassTable(NamedTuple):
    """Observed classes and their members, from ``Dataset.class_table``.

    ``labels`` are the kept classes in ascending order; the members of
    ``labels[i]`` are ``flat[starts[i]:starts[i] + sizes[i]]`` (dataset
    positions, in dataset order).
    """

    labels: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    flat: np.ndarray


@dataclass(eq=False)
class Dataset:
    """Utterances as columns: row ``i`` of every array is utterance ``i``.

    ``features`` is ``(n, d)`` float64; ``utt_id``, ``true_class`` and
    ``observed_class`` are int64 and ``is_ood`` is bool, all of length
    ``n``. ``directions`` holds the ``(C, latent)`` unit class directions
    when the dataset was generated in-process; it does not survive
    serialization and is excluded from equality.
    """

    features: np.ndarray
    utt_id: np.ndarray
    true_class: np.ndarray
    observed_class: np.ndarray
    is_ood: np.ndarray
    class_count: int
    feature_dim: int
    provenance: NoiseSpec | str = "clean"
    directions: np.ndarray | None = None

    def __post_init__(self):
        self.utt_id = np.asarray(self.utt_id, dtype=np.int64)
        self.true_class = np.asarray(self.true_class, dtype=np.int64)
        self.observed_class = np.asarray(self.observed_class, dtype=np.int64)
        self.is_ood = np.asarray(self.is_ood, dtype=bool)
        n = len(self.utt_id)
        self.features = np.asarray(self.features, dtype=np.float64)
        if n == 0:
            self.features = self.features.reshape(0, self.feature_dim)
        columns = (self.true_class, self.observed_class, self.is_ood)
        if (self.features.shape != (n, self.feature_dim)
                or any(c.shape != (n,) for c in (self.utt_id, *columns))):
            raise ConfigurationError(
                f"dataset columns disagree: {n} utterances, features {self.features.shape}"
            )

    def __len__(self) -> int:
        return len(self.utt_id)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.class_count == other.class_count
            and self.feature_dim == other.feature_dim
            and self.provenance == other.provenance
            and all(np.array_equal(getattr(self, k), getattr(other, k))
                    for k in ("utt_id", "true_class", "observed_class", "is_ood", "features"))
        )

    @property
    def is_noisy(self) -> np.ndarray:
        """Ground truth: relabeled or replaced by an out-of-distribution row."""
        return (self.observed_class != self.true_class) | self.is_ood

    @property
    def is_clean(self) -> bool:
        return self.provenance == "clean" and not self.is_noisy.any()

    def class_table(self, min_members: int) -> "ClassTable":
        """Dataset positions grouped by observed class, keeping the classes
        with at least ``min_members`` members."""
        flat = np.argsort(self.observed_class, kind="stable")
        labels, starts, sizes = np.unique(self.observed_class[flat], return_index=True,
                                          return_counts=True)
        keep = sizes >= min_members
        return ClassTable(labels[keep].astype(np.intp), sizes[keep], starts[keep], flat)

    def subset(self, rows) -> "Dataset":
        """The rows selected by a boolean mask or index array, same metadata."""
        return replace(
            self,
            features=self.features[rows],
            utt_id=self.utt_id[rows],
            true_class=self.true_class[rows],
            observed_class=self.observed_class[rows],
            is_ood=self.is_ood[rows],
        )


def sample_unit_directions(
    count: int,
    dim: int,
    rng: np.random.Generator,
    avoid: np.ndarray | None = None,
) -> np.ndarray:
    """Draw ``count`` unit vectors uniformly on the sphere.

    When ``avoid`` (rows of unit vectors) is given, candidates with
    |cosine| above ``MAX_OVERLAP_COS`` to any avoided direction are
    redrawn, up to ``MAX_DIRECTION_TRIES`` draws per direction.

    Candidates are drawn ``_DIRECTION_BLOCK`` at a time and taken in draw
    order; ``row_dot`` and the stacked product round as ``np.linalg.norm``
    and ``avoid @ v`` do. The last block may draw past the last candidate
    needed, harmless only because every caller discards ``rng``.
    """
    out = np.empty((count, dim), dtype=np.float64)
    filled, tries = 0, 0  # tries: the failed draws so far for direction ``filled``
    while filled < count:
        v = rng.standard_normal((_DIRECTION_BLOCK, dim))
        norms = np.sqrt(row_dot(v, v))
        good = norms >= 1e-12
        v /= np.where(good, norms, 1.0)[:, None]
        if avoid is not None and avoid.size:
            cos = np.matmul(avoid[None], v[:, :, None])[:, :, 0]  # ``avoid @ v`` per candidate
            good &= ~(np.abs(cos) > MAX_OVERLAP_COS).any(axis=1)
        taken = np.flatnonzero(good)[:count - filled]
        spent = np.diff(taken, prepend=-1 - tries)  # the draws each accepted direction took
        tries = _DIRECTION_BLOCK - 1 - taken[-1] if taken.size else tries + _DIRECTION_BLOCK
        late = np.flatnonzero(spent > MAX_DIRECTION_TRIES)
        if late.size or (filled + len(taken) < count and tries >= MAX_DIRECTION_TRIES):
            i = filled + (late[0] if late.size else len(taken))
            raise ConfigurationError(
                f"could not place class direction {i} away from {len(avoid)} "
                f"existing directions after {MAX_DIRECTION_TRIES} tries"
            )
        out[filled:filled + len(taken)] = v[taken]
        filled += len(taken)
    return out


def generate_dataset(
    class_count: int,
    per_class: int,
    latent_dim: int,
    feature_dim: int,
    within_class_spread: float,
    seed: int,
    *,
    mix_seed: int,
    avoid_directions: np.ndarray | None = None,
) -> Dataset:
    """Generate a clean dataset of ``class_count * per_class`` utterances.

    Each class gets a unit latent direction; utterance features are
    ``Mix @ (direction + eps)`` with isotropic Gaussian ``eps`` of standard
    deviation ``within_class_spread`` and one fixed random mixing matrix.
    ``mix_seed`` pins the mixing matrix independently of ``seed`` so that
    related datasets (auxiliary, held-out) can share the same feature
    space. ``avoid_directions``
    makes the direction sampler reject candidates that nearly coincide
    with the given unit rows. The jitter of up to ``_JITTER_ROWS`` rows is
    one draw and one stacked product, with the per-class calls' bits.
    """
    rng_dirs = named_rng(seed, "class-directions")
    rng_mix = named_rng(mix_seed, "mixing-matrix")
    rng_feat = named_rng(seed, "feature-jitter")

    directions = sample_unit_directions(class_count, latent_dim, rng_dirs, avoid=avoid_directions)
    mix = rng_mix.standard_normal((feature_dim, latent_dim)) / math.sqrt(latent_dim)

    n = class_count * per_class
    features = np.empty((n, feature_dim), dtype=np.float64)
    block = max(1, _JITTER_ROWS // max(1, per_class))  # classes per jitter draw
    for c in range(0, class_count, block):
        eps = rng_feat.standard_normal((min(block, class_count - c), per_class, latent_dim))
        eps *= within_class_spread
        eps += directions[c:c + len(eps), None]
        # one BLAS product per class, as a 2-D ``@`` per class would make
        np.matmul(eps, mix.T, out=features[c * per_class:(c + len(eps)) * per_class]
                  .reshape(eps.shape[:2] + (feature_dim,)))
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    return Dataset(
        features=features,
        utt_id=np.arange(n, dtype=np.int64),
        true_class=labels,
        observed_class=labels.copy(),
        is_ood=np.zeros(n, dtype=bool),
        class_count=class_count,
        feature_dim=feature_dim,
        directions=directions,
    )


def _replay_flag_draws(rng: np.random.Generator, n: int, p: float, bound: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The flagged ``i`` (intp) and their ``k`` (int64) of ``for i in range(n):
    if rng.random() < p: k = rng.integers(bound)``, from raw PCG64 words.

    Whether a word is read as a double or as an integer's halves depends on
    every word before it, so each block of ``_RAW_BLOCK`` words composes its
    ``_NEXT_STATE`` maps by a prefix scan; the accepted halves are the ``k``. The last block may
    read past the loop, harmless only because every caller discards ``rng``.
    Another bit generator, a half already buffered or a bound outside
    ``[1, 2**32)`` is a stream this does not model: an internal error.
    """
    bitgen = rng.bit_generator
    if (not isinstance(bitgen, np.random.PCG64) or not 1 <= bound < 2 ** 32
            or bitgen.state["has_uint32"]):
        raise InternalError(f"no replay of bounded draws from {type(bitgen).__name__} "
                            f"at bound {bound}")
    threshold, low = (2 ** 32 - bound) % bound, np.uint64(2 ** 32 - 1)
    base = np.arange(0, 4 * _RAW_BLOCK, 4)[:, None]
    state, done = _DOUBLE, 0
    flags, halves = [], []
    while True:
        w = bitgen.random_raw(_RAW_BLOCK)
        flagged = (w >> np.uint64(11)) * 2.0 ** -53 < p
        m = np.stack([w & low, w >> np.uint64(32)], axis=1) * np.uint64(bound)
        ok = (m & low) >= threshold
        # after[j, s]: the state after word j from state s before the block
        after = _NEXT_STATE[4 * (flagged & (bound > 1)) + 2 * ok[:, 0] + ok[:, 1]]
        for step in 2 ** np.arange(_RAW_BLOCK.bit_length() - 1):  # a doubling prefix scan
            after[step:] = after.ravel()[base[step:] + after[:-step]]
        double = np.concatenate(([state], after[:-1, state])) != _INTEGER
        utterance = done + np.cumsum(double) - 1
        end = np.searchsorted(utterance, n)  # the first double past the loop
        double, integer = double[:end], ~double[:end]
        flags.append(utterance[:end][double & flagged[:end]])
        halves.append(m[:end][integer][ok[:end][integer]] >> np.uint64(32))
        if end < _RAW_BLOCK:
            break
        state, done = after[-1, state], int(utterance[-1]) + 1
    flags = np.concatenate(flags)
    k = np.concatenate(halves)[:len(flags)] if bound > 1 else np.zeros(len(flags), np.uint64)
    return flags, k.astype(np.int64)


def apply_permute_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Flag each utterance with probability q/100 and permute its label.

    Flagged utterances get an observed class drawn uniformly from the
    other ``C - 1`` classes; features are untouched. ``q = 0`` returns the
    input unchanged. The draws replay one ``random()`` per utterance and
    one ``integers(C - 1)`` per flag.
    """
    if spec.level_q == 0.0:
        return ds

    rng = named_rng(spec.seed, "permute-noise")
    flags, k = _replay_flag_draws(rng, len(ds), spec.level_q / 100.0, ds.class_count - 1)
    observed = ds.observed_class.copy()
    observed[flags] = k + (k >= ds.true_class[flags])
    return replace(ds, observed_class=observed, provenance=spec)


def apply_openset_noise(ds: Dataset, aux: Dataset, spec: NoiseSpec) -> Dataset:
    """Flag each utterance with probability q/100 and swap in auxiliary features.

    Flagged utterances keep their observed label but take the features of
    a uniformly drawn auxiliary utterance; they are marked out of
    distribution. ``q = 0`` returns the input unchanged. The draws replay
    one ``random()`` per utterance and one ``integers(len(aux))`` per flag.
    """
    if spec.level_q == 0.0:
        return ds

    rng = named_rng(spec.seed, "open-set-noise")
    flags, source = _replay_flag_draws(rng, len(ds), spec.level_q / 100.0, len(aux))
    features = ds.features.copy()
    for start in range(0, len(flags), _COPY_ROWS):
        block = slice(start, start + _COPY_ROWS)
        features[flags[block]] = aux.features[source[block]]
    is_ood = ds.is_ood.copy()
    is_ood[flags] = True
    return replace(ds, features=features, is_ood=is_ood, provenance=spec)


def _row_dtype(feature_dim: int) -> np.dtype:
    """A stored dataset row; ``is_noisy`` is derived, not stored."""
    return np.dtype([("utt_id", "<i8"), ("true_class", "<i8"), ("observed_class", "<i8"),
                     ("is_ood", "?"), ("features", "<f8", (feature_dim,))])


def _array_header(dtype: np.dtype, n: int) -> bytes:
    """The bytes ``np.save`` writes ahead of a 1-D C-order array of ``n`` rows."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(fh, {"descr": np.lib.format.dtype_to_descr(dtype),
                                               "fortran_order": False, "shape": (n,)})
    return fh.getvalue()


def save_dataset(ds: Dataset, path) -> None:
    """Write one JSON header line, then the ``np.save`` bytes of the rows.

    The rows are one 1-D structured array, so every value reads back with
    the same bits, and a dataset always gives the same bytes.
    ``write_text`` replaces ``path`` once the file is whole.
    """
    rows = np.zeros(len(ds), _row_dtype(ds.feature_dim))
    for name in rows.dtype.names:
        rows[name] = getattr(ds, name)
    provenance = ds.provenance if isinstance(ds.provenance, str) else asdict(ds.provenance)
    header = {"C": ds.class_count, "d": ds.feature_dim, "format_version": FORMAT_VERSION,
              "provenance": provenance}
    write_text(path, (dump_json17(header) + "\n", _array_header(rows.dtype, len(rows)), rows))


def load_dataset(path) -> Dataset:
    """Read a dataset file, checking its header, its array and every column; any
    fault raises a LabelNoiseError reading ``dataset file PATH: <what>``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ConfigurationError(f"dataset file not found: {path}") from None
    try:
        return _parse_dataset(data)
    except LabelNoiseError as exc:
        raise type(exc)(f"dataset file {path}: {exc}") from None


def _provenance(prov) -> NoiseSpec | str:
    if prov == "clean":
        return "clean"
    # derived seeds are unsigned 64-bit integers, so json_field cannot read the seed
    if (not isinstance(prov, dict) or set(prov) != {"kind", "level_q", "seed"}
            or type(prov["seed"]) is not int):
        raise ValidationError(f"unknown provenance {reprlib.repr(prov)}")
    return NoiseSpec(prov["kind"], json_field(prov, "level_q", float, "provenance"), prov["seed"])


def _parse_dataset(data: bytes) -> Dataset:
    """The Dataset in a file's bytes; raises LabelNoiseError for any fault."""
    end = data.find(b"\n")
    if end < 0:
        raise ParseError("no header line")
    try:
        text = data[:end].decode("ascii")
        header = json.loads(text)
    except UnicodeDecodeError:
        raise ParseError("header line: non-ASCII byte") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"header line: {json_problem(exc, text)[0]}") from None
    if not isinstance(header, dict):
        raise ParseError("header line must be a JSON object")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {reprlib.repr(version)}")
    class_count, feature_dim = (json_field(header, key, int, "header") for key in ("C", "d"))
    if class_count < 1 or feature_dim < 1:
        raise ValidationError(f"C and d must be positive, got {class_count}, {feature_dim}")
    provenance = _provenance(header.get("provenance"))
    try:
        dtype = _row_dtype(feature_dim)
    except ValueError:  # numpy caps a row at 2**31 bytes
        raise ValidationError(f"d = {feature_dim} is too large") from None

    # The array header is exactly np.save's for its row count, which holds
    # the dtype, one dimension and C order; the rows then end the file.
    start = end + 1
    digits = start + _array_header(dtype, 0).rindex(b"(0,)") + 1
    count = data[digits:digits + 24].partition(b",)")[0]
    head = _array_header(dtype, int(count)) if count.isdigit() else None
    if head is None or not data.startswith(head, start):
        raise ValidationError(f"rows are not a 1-D C-order np.save array of dtype {dtype.descr}")
    n, offset = int(count), start + len(head)
    if len(data) != offset + n * dtype.itemsize:
        raise ValidationError(f"{n} rows need {offset + n * dtype.itemsize} bytes, "
                              f"the file has {len(data)}")
    rows = np.frombuffer(data, dtype, count=n, offset=offset)
    # copies: C-contiguous and writeable, whatever the rows' strides
    columns = {name: rows[name].copy() for name in dtype.names}

    for name in ("true_class", "observed_class"):
        outside = (columns[name] < 0) | (columns[name] >= class_count)
        if outside.any():
            raise ValidationError(f"{name} {columns[name][outside][0]} out of [0, {class_count})")
    ids = np.sort(columns["utt_id"])
    if (repeated := ids[1:][ids[1:] == ids[:-1]]).size:
        raise ValidationError(f"duplicate utt_id {repeated[0]}")
    if (columns["is_ood"].view(np.uint8) > 1).any():
        raise ValidationError("is_ood must be a byte 0 or 1")
    if not np.isfinite(columns["features"]).all():
        raise ValidationError("non-finite feature value")
    return Dataset(**columns, class_count=class_count, feature_dim=feature_dim,
                   provenance=provenance)
