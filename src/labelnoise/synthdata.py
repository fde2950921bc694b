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

Datasets serialize to JSON-Lines with a header line; feature values are
written with 17 significant digits and negative zero as ``-0.0``, so the
round trip is lossless: every float64 reads back with the same bits.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ParseError, ValidationError
from .jsonutil import dump_json17, json_problem, write_text
from .seeding import named_rng

FORMAT_VERSION = 1

# Rejection threshold used to keep auxiliary class directions away from
# in-distribution ones ("no class overlap").
MAX_OVERLAP_COS = 0.95

# Default within-class jitter scale: small enough that classes are
# learnable at desk scale, large enough that clean utterances are not
# trivially separable from label noise.
DEFAULT_WITHIN_CLASS_SPREAD = 0.2

PERMUTE = "permute"
OPEN_SET = "open_set"

# Values of the JSONL "origin" field; a row is out of distribution when
# open-set noise replaced its features.
ORIGIN_IN = "in_distribution"
ORIGIN_OUT = "out_of_distribution"


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "level_q": self.level_q, "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "NoiseSpec":
        return NoiseSpec(kind=d["kind"], level_q=float(d["level_q"]), seed=int(d["seed"]))


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

    def class_table(self, min_members: int = 1) -> "ClassTable":
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
    max_abs_cos: float = MAX_OVERLAP_COS,
    max_tries: int = 10000,
) -> np.ndarray:
    """Draw ``count`` unit vectors uniformly on the sphere.

    When ``avoid`` (rows of unit vectors) is given, candidates with
    |cosine| above ``max_abs_cos`` to any avoided direction are redrawn.
    """
    out = np.empty((count, dim), dtype=np.float64)
    for i in range(count):
        for _ in range(max_tries):
            v = rng.standard_normal(dim)
            n = np.linalg.norm(v)
            if n < 1e-12:
                continue
            v /= n
            if avoid is not None and avoid.size and np.max(np.abs(avoid @ v)) > max_abs_cos:
                continue
            out[i] = v
            break
        else:
            raise ConfigurationError(
                f"could not place class direction {i} away from {len(avoid)} "
                f"existing directions after {max_tries} tries"
            )
    return out


def generate_dataset(
    class_count: int,
    per_class: int,
    latent_dim: int,
    feature_dim: int,
    within_class_spread: float,
    seed: int,
    *,
    mix_seed: int | None = None,
    avoid_directions: np.ndarray | None = None,
) -> Dataset:
    """Generate a clean dataset of ``class_count * per_class`` utterances.

    Each class gets a unit latent direction; utterance features are
    ``Mix @ (direction + eps)`` with isotropic Gaussian ``eps`` of standard
    deviation ``within_class_spread`` and one fixed random mixing matrix.
    ``mix_seed`` pins the mixing matrix independently of ``seed`` so that
    related datasets (auxiliary, held-out) can share the same feature
    space; by default it is derived from ``seed``. ``avoid_directions``
    makes the direction sampler reject candidates that nearly coincide
    with the given unit rows.
    """
    if class_count < 2:
        raise ConfigurationError(f"need at least 2 classes, got {class_count}")
    if per_class < 2:
        raise ConfigurationError(f"need at least 2 utterances per class, got {per_class}")
    if feature_dim < latent_dim:
        raise ConfigurationError(
            f"feature_dim ({feature_dim}) must be >= latent_dim ({latent_dim})"
        )
    if latent_dim < 1:
        raise ConfigurationError(f"latent_dim must be positive, got {latent_dim}")
    if within_class_spread < 0:
        raise ConfigurationError(f"within_class_spread must be >= 0, got {within_class_spread}")

    rng_dirs = named_rng(seed, "class-directions")
    rng_mix = named_rng(seed if mix_seed is None else mix_seed, "mixing-matrix")
    rng_feat = named_rng(seed, "feature-jitter")

    directions = sample_unit_directions(class_count, latent_dim, rng_dirs, avoid=avoid_directions)
    mix = rng_mix.standard_normal((feature_dim, latent_dim)) / math.sqrt(latent_dim)

    n = class_count * per_class
    features = np.empty((n, feature_dim), dtype=np.float64)
    for c in range(class_count):
        eps = rng_feat.standard_normal((per_class, latent_dim)) * within_class_spread
        features[c * per_class:(c + 1) * per_class] = (directions[c] + eps) @ mix.T
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


def _require_clean(ds: Dataset, op: str) -> None:
    if not ds.is_clean:
        raise ConfigurationError(f"{op} requires a clean dataset, got provenance {ds.provenance!r}")


def apply_permute_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Flag each utterance with probability q/100 and permute its label.

    Flagged utterances get an observed class drawn uniformly from the
    other ``C - 1`` classes; features are untouched. ``q = 0`` returns the
    input unchanged.
    """
    if spec.kind != PERMUTE:
        raise ConfigurationError(f"expected permute noise spec, got {spec.kind!r}")
    _require_clean(ds, "apply_permute_noise")
    if spec.level_q == 0.0:
        return ds
    if ds.class_count < 2:
        raise ConfigurationError("permute noise needs at least 2 classes")

    rng = named_rng(spec.seed, "permute-noise")
    p = spec.level_q / 100.0
    observed = ds.observed_class.copy()
    for i, true_class in enumerate(ds.true_class.tolist()):
        if rng.random() < p:
            k = int(rng.integers(ds.class_count - 1))
            observed[i] = k + 1 if k >= true_class else k
    return replace(ds, observed_class=observed, provenance=spec)


def apply_openset_noise(ds: Dataset, aux: Dataset, spec: NoiseSpec) -> Dataset:
    """Flag each utterance with probability q/100 and swap in auxiliary features.

    Flagged utterances keep their observed label but take the features of
    a uniformly drawn auxiliary utterance; they are marked out of
    distribution. ``q = 0`` returns the input unchanged.
    """
    if spec.kind != OPEN_SET:
        raise ConfigurationError(f"expected open-set noise spec, got {spec.kind!r}")
    _require_clean(ds, "apply_openset_noise")
    if spec.level_q == 0.0:
        return ds
    if len(aux) == 0:
        raise ConfigurationError("open-set noise needs a non-empty auxiliary dataset")
    if aux.feature_dim != ds.feature_dim:
        raise ConfigurationError(
            f"auxiliary feature_dim {aux.feature_dim} != dataset feature_dim {ds.feature_dim}"
        )
    if ds.directions is not None and aux.directions is not None:
        worst = float(np.max(np.abs(aux.directions @ ds.directions.T)))
        if worst > MAX_OVERLAP_COS:
            raise ConfigurationError(
                f"auxiliary classes overlap the dataset's (max |cos| = {worst:.4f})"
            )

    rng = named_rng(spec.seed, "open-set-noise")
    p = spec.level_q / 100.0
    features = ds.features.copy()
    is_ood = ds.is_ood.copy()
    for i in range(len(ds)):
        if rng.random() < p:
            features[i] = aux.features[int(rng.integers(len(aux)))]
            is_ood[i] = True
    return replace(ds, features=features, is_ood=is_ood, provenance=spec)


# Rows formatted per write in save_dataset, and bytes (some 256 rows of
# 20 features) parsed per block in load_dataset: the per-row Python
# objects of one block stay small next to the dataset's arrays.
_WRITE_ROWS = 256
_READ_BYTES = 1 << 17

# An utterance line up to its features: save_dataset fills in the fields,
# and load_dataset's bulk pattern puts a group in each.
_ROW_PREFIX = ('{"utt_id": %s, "true_class": %s, "observed_class": %s, '
               '"is_noisy": %s, "origin": "%s", "features": [')

# "%.17g" writes negative zero, and nothing else, as "-0", which JSON
# reads back as the integer 0; the file says "-0.0" instead
_NEGATIVE_ZERO = re.compile(r"(?<=[\[,])-0(?=[,\]])")


def save_dataset(ds: Dataset, path) -> None:
    """Write JSON-Lines: one header line, then one line per utterance.

    Features carry 17 significant digits and negative zero is written
    ``-0.0``, so the round trip keeps every bit. ``write_text`` replaces
    ``path`` once the last block is written.
    """
    row = _ROW_PREFIX + ",".join(["%.17g"] * ds.feature_dim) + "]}\n"
    noisy = ds.is_noisy

    def blocks():
        yield ('{"format_version": %d, "C": %d, "d": %d, "provenance": %s}\n'
               % (FORMAT_VERSION, ds.class_count, ds.feature_dim, dump_json17(
                   ds.provenance if isinstance(ds.provenance, str) else ds.provenance.to_dict())))
        for start in range(0, len(ds), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            block = ds.features[rows]
            text = "".join(map(row.__mod__, zip(
                ds.utt_id[rows].tolist(), ds.true_class[rows].tolist(),
                ds.observed_class[rows].tolist(), np.where(noisy[rows], "true", "false").tolist(),
                np.where(ds.is_ood[rows], ORIGIN_OUT, ORIGIN_IN).tolist(),
                *block.T.tolist())))
            if np.signbit(block[block == 0.0]).any():
                text = _NEGATIVE_ZERO.sub("-0.0", text)
            yield text

    write_text(path, blocks())


def _parse_line(text: str, lineno: int) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"line {lineno}: {json_problem(exc, text)[0]}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"line {lineno}: expected a JSON object")
    return obj


# JSON numbers; bool is a subclass of int, but ``type`` keeps it out
_NUMBER_TYPES = frozenset((float, int))


def _field(obj: dict, key: str, lineno: int):
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"line {lineno}: missing field {key!r}") from None


def _int_field(obj: dict, key: str, lineno: int) -> int:
    v = _field(obj, key, lineno)
    if type(v) is not int or not -2**63 <= v < 2**63:
        raise ValidationError(f"line {lineno}: {key} must be a 64-bit integer, got {v!r}")
    return v


def _provenance(prov, lineno: int) -> NoiseSpec | str:
    if prov == "clean":
        return "clean"
    if (not isinstance(prov, dict) or set(prov) != {"kind", "level_q", "seed"}
            or type(prov["level_q"]) not in _NUMBER_TYPES or type(prov["seed"]) is not int):
        raise ValidationError(f"line {lineno}: unknown provenance {prov!r}")
    try:
        return NoiseSpec.from_dict(prov)
    except (ConfigurationError, OverflowError) as exc:
        raise ValidationError(f"line {lineno}: provenance: {exc}") from exc


def _read_header(text: str) -> tuple[int, int, NoiseSpec | str]:
    """Class count, feature dimension and provenance from line 1."""
    header = _parse_line(text, 1)
    for key in ("format_version", "C", "d", "provenance"):
        _field(header, key, 1)
    if type(header["format_version"]) is not int or header["format_version"] != FORMAT_VERSION:
        raise ValidationError(f"line 1: unsupported format_version {header['format_version']!r}")
    class_count = _int_field(header, "C", 1)
    feature_dim = _int_field(header, "d", 1)
    if class_count < 1 or feature_dim < 1:
        raise ValidationError(f"line 1: C and d must be positive, got {class_count}, {feature_dim}")
    return class_count, feature_dim, _provenance(header["provenance"], 1)


def load_dataset(path) -> Dataset:
    """Read a dataset file, validating field types, structure and invariants.

    A file laid out as ``save_dataset`` writes it is parsed in bulk; any
    other file, and any file failing a check, is read line by line, which
    gives the same Dataset or raises the located error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    ds = _load_bulk(data)
    return _load_by_line(data) if ds is None else ds


# One utterance line exactly as save_dataset writes it. Integers follow
# JSON's grammar with at most 18 digits, so they fit in int64. The
# features are a run of number characters and commas; the comma count
# and the JSON parse of the block decide whether they are d numbers.
_INT = "(-?(?:0|[1-9][0-9]{0,17}))"
_ROW = re.compile((
    "^" + re.escape(_ROW_PREFIX) % (_INT, _INT, _INT, "(true|false)",
                                    f"({ORIGIN_IN}|{ORIGIN_OUT})")
    + r"([-+.0-9eE,]*)\]\}$").encode("ascii"), re.MULTILINE)


def _load_bulk(data: bytes) -> Dataset | None:
    """The Dataset of a file in ``save_dataset``'s exact layout, else None.

    Each block of lines goes through one regex ``findall``, which checks
    the layout and captures the fields, and one ``json.loads`` of all its
    numbers, which applies JSON's number grammar and int/float semantics
    (``-0`` reads as +0.0). The remaining checks run on whole columns.
    Anything the per-line reader might decide otherwise returns None.
    Blocks are read in place, so the file's bytes are never copied whole.
    """
    if not data.isascii():
        return None
    start = data.find(b"\n") + 1 or len(data)
    head = data[:start].decode("ascii").removesuffix("\n")
    if head.splitlines() != [head]:  # empty, or ended by another line break
        return None
    class_count, feature_dim, provenance = _read_header(head)
    ints, flags, features = [np.empty((3, 0), np.int64)], [np.empty((2, 0), bool)], [np.empty(0)]
    while start < len(data):
        end = data.find(b"\n", start + _READ_BYTES) + 1 or len(data)
        fields = _ROW.findall(data, start, end)
        if len(fields) != data.count(b"\n", start, end) + (not data.endswith(b"\n", start, end)):
            return None
        start = end
        ids, true_class, observed, noisy, origin, feats = zip(*fields)
        if set(map(bytes.count, feats, repeat(b","))) != {feature_dim - 1}:
            return None
        try:
            numbers = json.loads(b"[" + b",".join(ids + true_class + observed + feats) + b"]")
            features.append(np.array(numbers[3 * len(fields):], dtype=np.float64))
        except (ValueError, OverflowError):  # not a JSON number, or beyond the float range
            return None
        ints.append(np.array(numbers[:3 * len(fields)], dtype=np.int64).reshape(3, -1))
        flags.append(np.array([noisy, origin]) == [[b"true"], [ORIGIN_OUT.encode("ascii")]])

    utt_id, true_class, observed = np.concatenate(ints, axis=1)
    is_noisy, is_ood = np.concatenate(flags, axis=1)
    features = np.concatenate(features).reshape(-1, feature_dim)
    labels = np.concatenate((true_class, observed))
    if not ((0 <= labels).all() and (labels < class_count).all()
            and np.array_equal(is_noisy, (observed != true_class) | is_ood)
            and np.isfinite(features).all()
            and len(np.unique(utt_id)) == len(utt_id)):
        return None
    return Dataset(
        features=features,
        utt_id=utt_id,
        true_class=true_class,
        observed_class=observed,
        is_ood=is_ood,
        class_count=class_count,
        feature_dim=feature_dim,
        provenance=provenance,
    )


def _load_by_line(data: bytes) -> Dataset:
    """The dataset file ``data``, parsed and checked one line at a time."""
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {lineno}: non-ASCII byte") from None
    if not lines:
        raise ParseError("line 1: empty file, missing header")

    class_count, feature_dim, provenance = _read_header(lines[0])

    ids: list[int] = []
    true_classes: list[int] = []
    observed_classes: list[int] = []
    ood: list[bool] = []
    flat = array("d")  # features, row after row, as compact C doubles
    seen_ids: set[int] = set()
    for i, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        obj = _parse_line(text, i)
        utt_id = _int_field(obj, "utt_id", i)
        true_class = _int_field(obj, "true_class", i)
        observed = _int_field(obj, "observed_class", i)
        is_noisy = _field(obj, "is_noisy", i)
        origin = _field(obj, "origin", i)
        feats = _field(obj, "features", i)
        if not isinstance(is_noisy, bool):
            raise ValidationError(f"line {i}: is_noisy must be true or false, got {is_noisy!r}")
        if not isinstance(feats, list) or not _NUMBER_TYPES.issuperset(map(type, feats)):
            raise ValidationError(f"line {i}: features must be a list of numbers")
        if origin not in (ORIGIN_IN, ORIGIN_OUT):
            raise ValidationError(f"line {i}: unknown origin {origin!r}")
        if utt_id in seen_ids:
            raise ValidationError(f"line {i}: duplicate utt_id {utt_id}")
        seen_ids.add(utt_id)
        if not 0 <= observed < class_count:
            raise ValidationError(f"line {i}: observed_class {observed} out of [0, {class_count})")
        if not 0 <= true_class < class_count:
            raise ValidationError(f"line {i}: true_class {true_class} out of [0, {class_count})")
        if len(feats) != feature_dim:
            raise ValidationError(f"line {i}: expected {feature_dim} features, got {len(feats)}")
        try:
            finite = all(map(math.isfinite, feats))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValidationError(f"line {i}: non-finite feature value")
        if is_noisy != (observed != true_class or origin == ORIGIN_OUT):
            raise ValidationError(f"line {i}: is_noisy flag inconsistent with labels/origin")
        ids.append(utt_id)
        true_classes.append(true_class)
        observed_classes.append(observed)
        ood.append(origin == ORIGIN_OUT)
        flat.extend(feats)
    return Dataset(
        features=np.array(flat, dtype=np.float64).reshape(len(ids), feature_dim),
        utt_id=ids,
        true_class=true_classes,
        observed_class=observed_classes,
        is_ood=ood,
        class_count=class_count,
        feature_dim=feature_dim,
        provenance=provenance,
    )
