"""Synthetic data generation, label noising, and dataset serialization."""

import dataclasses
import hashlib
import io
import json
import math
import reprlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import BYTE_EDITS, TINY_DATASET, WIDE_DATASET, edit_bytes, make_dataset
from labelnoise import jsonutil, synthdata
from labelnoise.cli import main
from labelnoise.embedder import write_loss_curve
from labelnoise.errors import (
    ConfigurationError,
    InternalError,
    LabelNoiseError,
    ParseError,
    ValidationError,
)
from labelnoise.evaluation import Trials, write_trials_csv
from labelnoise.nld import write_histogram_csv, write_scores_csv
from labelnoise.seeding import named_rng
from labelnoise.synthdata import (
    MAX_DIRECTION_TRIES,
    MAX_OVERLAP_COS,
    OPEN_SET,
    PERMUTE,
    Dataset,
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
    load_dataset,
    sample_unit_directions,
    save_dataset,
)
from oracles import (
    bytesio_dataset_bytes,
    per_class_features,
    scalar_flag_draws,
    scalar_openset_noise,
    scalar_permute_noise,
    scalar_sample_unit_directions,
)


def small_clean(seed=0, class_count=5, per_class=6, latent=3, feature=4, spread=0.1):
    return generate_dataset(class_count, per_class, latent, feature, spread, seed=seed,
                            mix_seed=seed)


# ----------------------------------------------------------------------
# generate_dataset


def test_generate_counts_and_labels():
    ds = generate_dataset(2, 3, 2, 4, 0.1, seed=0, mix_seed=0)
    assert len(ds) == 6
    assert ds.observed_class.tolist() == [0, 0, 0, 1, 1, 1]
    assert ds.true_class.tolist() == [0, 0, 0, 1, 1, 1]
    assert ds.utt_id.tolist() == list(range(6))
    assert not ds.is_noisy.any()
    assert not ds.is_ood.any()
    assert ds.features.shape == (6, 4) and ds.features.dtype == np.float64
    assert ds.feature_dim == 4 and ds.class_count == 2
    assert ds.is_clean


def test_generate_zero_spread_collapses_classes():
    ds = generate_dataset(3, 4, 2, 5, 0.0, seed=1, mix_seed=1)
    for c in range(3):
        members = ds.features[ds.true_class == c]
        for f in members[1:]:
            assert np.array_equal(f, members[0])


def test_generate_deterministic():
    a = generate_dataset(4, 3, 2, 6, 0.2, seed=7, mix_seed=7)
    b = generate_dataset(4, 3, 2, 6, 0.2, seed=7, mix_seed=7)
    assert a == b
    assert np.array_equal(a.features, b.features)


def test_generate_seed_changes_data():
    a = generate_dataset(4, 3, 2, 6, 0.2, seed=7, mix_seed=7)
    b = generate_dataset(4, 3, 2, 6, 0.2, seed=8, mix_seed=8)
    assert a != b


def test_generate_shared_mix_seed_shares_feature_space():
    # same mixing matrix + zero spread + identical directions would collide;
    # here we only check determinism of the split: same (seed, mix_seed)
    # reproduces, changing mix_seed changes features but not labels
    a = generate_dataset(3, 3, 2, 5, 0.1, seed=4, mix_seed=99)
    b = generate_dataset(3, 3, 2, 5, 0.1, seed=4, mix_seed=99)
    c = generate_dataset(3, 3, 2, 5, 0.1, seed=4, mix_seed=100)
    assert a == b
    assert a != c
    assert np.array_equal(c.observed_class, a.observed_class)


def test_generate_unit_latent_directions():
    ds = small_clean()
    assert ds.directions.shape == (ds.class_count, 3)
    for direction in ds.directions:
        assert abs(np.linalg.norm(direction) - 1.0) <= 1e-9


def test_sample_unit_directions_respects_avoid():
    avoid = np.asarray([[1.0, 0.0]])
    # the same draws without ``avoid`` come closer to it than the threshold
    free = sample_unit_directions(200, 2, named_rng(0, "test"))
    assert np.max(np.abs(free @ avoid.T)) > MAX_OVERLAP_COS
    dirs = sample_unit_directions(200, 2, named_rng(0, "test"), avoid=avoid)
    assert np.all(np.abs(dirs @ avoid.T) <= MAX_OVERLAP_COS)


def test_sample_unit_directions_impossible_avoid():
    rng = named_rng(0, "test")
    # every 30 degrees: each covers 18 degrees either side at |cos| > 0.95
    angles = np.radians(np.arange(0, 180, 30))
    avoid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    with pytest.raises(ConfigurationError, match=f"^could not place class direction 0 away "
                       f"from 6 existing directions after {MAX_DIRECTION_TRIES} tries$"):
        sample_unit_directions(1, 2, rng, avoid=avoid)


# ----------------------------------------------------------------------
# permute noise


def test_permute_q0_is_identity():
    ds = small_clean()
    spec = NoiseSpec(kind="permute", level_q=0.0, seed=3)
    assert apply_permute_noise(ds, spec) is ds


def test_permute_q100_flags_everything():
    ds = small_clean()
    out = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=100.0, seed=3))
    assert out.is_noisy.all()
    assert np.all(out.observed_class != out.true_class)
    assert np.all((0 <= out.observed_class) & (out.observed_class < ds.class_count))


def test_permute_never_assigns_true_class():
    ds = small_clean(class_count=3, per_class=40)
    out = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=80.0, seed=11))
    # replay the flag draws: every flagged row, and only those, changed class
    rng = named_rng(11, "permute-noise")
    flagged = []
    for _ in range(len(ds)):
        flagged.append(bool(rng.random() < 0.8))
        if flagged[-1]:
            rng.integers(ds.class_count - 1)
    assert (out.observed_class != out.true_class).tolist() == flagged


def test_permute_leaves_features_and_true_labels():
    ds = small_clean()
    out = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=60.0, seed=5))
    assert np.array_equal(out.true_class, ds.true_class)
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.utt_id, ds.utt_id)
    # input untouched
    assert ds.is_clean


def test_permute_binomial_bound_q50():
    ds = generate_dataset(100, 100, 2, 2, 0.05, seed=2, mix_seed=2)  # 10000 utterances
    out = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=50.0, seed=9))
    noisy = int(np.count_nonzero(out.is_noisy))
    assert 4850 <= noisy <= 5150  # 3 sigma around 5000


def test_permute_deterministic():
    ds = small_clean()
    spec = NoiseSpec(kind="permute", level_q=40.0, seed=21)
    a = apply_permute_noise(ds, spec)
    b = apply_permute_noise(ds, spec)
    assert a == b


# ----------------------------------------------------------------------
# open-set noise


def aux_for(ds, seed=100):
    return generate_dataset(ds.class_count, 6, ds.directions.shape[1], ds.feature_dim, 0.1,
                            seed=seed, mix_seed=seed, avoid_directions=ds.directions)


def test_openset_q0_is_identity():
    ds = small_clean()
    aux = aux_for(ds)
    spec = NoiseSpec(kind="open_set", level_q=0.0, seed=3)
    assert apply_openset_noise(ds, aux, spec) is ds


def test_openset_keeps_labels_swaps_features():
    ds = small_clean()
    aux = aux_for(ds)
    out = apply_openset_noise(ds, aux, NoiseSpec(kind="open_set", level_q=100.0, seed=3))
    aux_rows = {row.tobytes() for row in aux.features}
    assert out.is_noisy.all() and out.is_ood.all()
    assert np.array_equal(out.observed_class, ds.observed_class)
    assert np.array_equal(out.true_class, ds.true_class)
    assert all(row.tobytes() in aux_rows for row in out.features)


def test_openset_partial_mix():
    ds = small_clean(per_class=20)
    aux = aux_for(ds)
    out = apply_openset_noise(ds, aux, NoiseSpec(kind="open_set", level_q=50.0, seed=8))
    noisy = out.is_noisy
    assert noisy.any() and not noisy.all()
    assert np.array_equal(out.is_ood, noisy)
    assert np.array_equal(out.features[~noisy], ds.features[~noisy])
    assert np.array_equal(out.true_class, ds.true_class)


def test_noise_spec_validation():
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="bogus", level_q=10.0, seed=0)
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="permute", level_q=101.0, seed=0)
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="permute", level_q=-1.0, seed=0)


# ----------------------------------------------------------------------
# serialization


def test_save_load_round_trip_clean(tmp_path):
    ds = small_clean()
    path = tmp_path / "ds.dataset"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_save_load_round_trip_noisy(tmp_path):
    ds = small_clean()
    noisy = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=50.0, seed=4))
    path = tmp_path / "ds.dataset"
    save_dataset(noisy, path)
    back = load_dataset(path)
    assert back == noisy
    assert back.provenance == noisy.provenance
    assert np.array_equal(back.is_noisy, noisy.is_noisy)


def test_save_byte_identical_rerun(tmp_path):
    ds = small_clean()
    p1, p2 = tmp_path / "a.dataset", tmp_path / "b.dataset"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_the_rows_after_the_header_line_are_an_npy_array(tmp_path):
    ds = apply_permute_noise(small_clean(), NoiseSpec(kind="permute", level_q=50.0, seed=4))
    path = tmp_path / "ds.dataset"
    save_dataset(ds, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        rows = np.load(fh, allow_pickle=False)
    assert header == {"C": 5, "d": 4, "format_version": 2,
                      "provenance": {"kind": "permute", "level_q": 50, "seed": 4}}
    assert rows.dtype.names == ("utt_id", "true_class", "observed_class", "is_ood", "features")
    for name in rows.dtype.names:
        assert np.array_equal(rows[name], getattr(ds, name))


def test_provenance_keeps_a_seed_beyond_the_signed_64_bit_range(tmp_path):
    # derived seeds are unsigned 64-bit integers
    spec = NoiseSpec(kind="permute", level_q=20.0, seed=2**64 - 1)
    ds = apply_permute_noise(small_clean(), spec)
    path = tmp_path / "ds.dataset"
    save_dataset(ds, path)
    assert load_dataset(path).provenance == spec


def test_loaded_columns_are_c_contiguous_writeable_copies(tmp_path):
    path = tmp_path / "ds.dataset"
    for rows in ([1], [0, 3, 5]):  # one row, whose field views count as contiguous, and more
        save_dataset(small_clean().subset(rows), path)
        back = load_dataset(path)
        for name in ("features", "utt_id", "true_class", "observed_class", "is_ood"):
            column = getattr(back, name)
            assert column.flags.c_contiguous and column.flags.writeable and column.flags.owndata


def _refused(path, error, what):
    """Assert that load_dataset refuses ``path`` with ``error`` saying ``what``."""
    with pytest.raises(error) as info:
        load_dataset(path)
    assert str(info.value) == f"dataset file {path}: {what}"


def _header(**fields) -> dict:
    return {"C": 2, "d": 2, "format_version": 2, "provenance": "clean", **fields}


def _write_raw(path, rows, header=None):
    """A dataset file: ``header`` as a JSON line, then ``np.save`` of ``rows``, any array."""
    array = io.BytesIO()
    np.save(array, rows, allow_pickle=True)
    path.write_bytes(json.dumps(_header() if header is None else header).encode("ascii")
                     + b"\n" + array.getvalue())
    return path


def _rows(n=1, dtype=None, **columns):
    """``n`` zero rows of the on-disk dtype for d = 2, ids 0..n-1, ``columns`` set."""
    rows = np.zeros(n, synthdata._row_dtype(2) if dtype is None else dtype)
    rows["utt_id"] = np.arange(n)
    for name, value in columns.items():
        rows[name] = value
    return rows


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.dataset"
    path.write_bytes(b"")
    _refused(path, ParseError, "no header line")


@pytest.mark.parametrize("cut", [-1, 1], ids=["truncated", "trailing-byte"])
def test_load_reports_the_size_the_rows_need(tmp_path, cut):
    ds = small_clean()
    path = tmp_path / "ds.dataset"
    save_dataset(ds, path)
    data = path.read_bytes()
    path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
    _refused(path, ValidationError,
             f"{len(ds)} rows need {len(data)} bytes, the file has {len(data) + cut}")


def test_load_header_missing_field(tmp_path):
    header = _header()
    del header["provenance"]
    _refused(_write_raw(tmp_path / "ds.dataset", _rows(), header), ValidationError,
             "unknown provenance None")
    del header["C"]
    _refused(_write_raw(tmp_path / "ds.dataset", _rows(), header), ConfigurationError,
             "header.C is missing")


@pytest.mark.parametrize("version", [99, 1, "2", 2.0, True, None])
def test_load_unsupported_format_version(tmp_path, version):
    path = _write_raw(tmp_path / "ds.dataset", _rows(), _header(format_version=version))
    _refused(path, ValidationError, f"unsupported format_version {version!r}")


@pytest.mark.parametrize("field", ["true_class", "observed_class"])
@pytest.mark.parametrize("value", [2, -1, 2**63 - 1])
def test_load_class_out_of_range(tmp_path, field, value):
    path = _write_raw(tmp_path / "ds.dataset", _rows(2, **{field: [0, value]}))
    _refused(path, ValidationError, f"{field} {value} out of [0, 2)")


def test_load_is_ood_byte_other_than_zero_or_one(tmp_path):
    rows = _rows(2)
    rows["is_ood"].view(np.uint8)[1] = 2  # a bool that numpy would read as true
    _refused(_write_raw(tmp_path / "ds.dataset", rows), ValidationError,
             "is_ood must be a byte 0 or 1")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_non_finite_feature(tmp_path, value):
    path = _write_raw(tmp_path / "ds.dataset", _rows(2, features=[[0.0, 1.0], [value, 0.0]]))
    _refused(path, ValidationError, "non-finite feature value")


def test_load_duplicate_utt_id(tmp_path):
    path = _write_raw(tmp_path / "ds.dataset", _rows(3, utt_id=[7, 3, 7]))
    _refused(path, ValidationError, "duplicate utt_id 7")


_ROW_FIELDS = [("utt_id", "<i8"), ("true_class", "<i8"), ("observed_class", "<i8"),
               ("is_ood", "?"), ("features", "<f8", (2,))]


def _fields(**swap):
    """The on-disk fields for d = 2, each named in ``swap`` replaced (None drops it)."""
    return [swap.get(f[0], f) for f in _ROW_FIELDS if swap.get(f[0], f) is not None]


@pytest.mark.parametrize("rows", [
    _rows(dtype=_fields(features=("features", "<f8", (3,)))),
    _rows(dtype=_fields(features=("features", "<f4", (2,)))),
    _rows(dtype=_fields(features=("features", ">f8", (2,)))),
    _rows(dtype=_fields(utt_id=("utt_id", ">i8"))),
    _rows(dtype=_fields(utt_id=("utt_id", "<f8"))),
    _rows(dtype=_fields(is_ood=("is_ood", "<i8"))),
    _rows(dtype=_fields(true_class=None)),
    _rows(dtype=_fields(observed_class=("observed", "<i8"))),
    _rows(dtype=_fields() + [("is_noisy", "?")]),
    _rows(dtype=_fields()[::-1]),
    _rows(dtype=np.dtype(_fields(), align=True)),
    _rows(dtype=_fields()).reshape(1, 1),
    np.asfortranarray(np.zeros((2, 2), _fields())),
    np.zeros((2, 2)),
    np.array([{"utt_id": 0}], dtype=object),
], ids=["feature-dim", "float32", "big-endian-features", "big-endian-ids", "float-ids",
        "int-is-ood", "missing-field", "renamed-field", "extra-field", "reordered",
        "aligned", "2-d", "fortran-order", "plain-float", "pickled-object"])
def test_load_refuses_rows_of_another_layout(tmp_path, rows):
    descr = np.dtype(_ROW_FIELDS).descr
    _refused(_write_raw(tmp_path / "ds.dataset", rows), ValidationError,
             f"rows are not a 1-D C-order np.save array of dtype {descr}")


@pytest.mark.parametrize("key, value, error, what", [
    ("C", "abc", ConfigurationError, "header.C must be an integer, got 'abc'"),
    ("C", 2.9, ConfigurationError, "header.C must be an integer, got 2.9"),
    ("C", 2**63, ConfigurationError, f"header.C must be a 64-bit integer, got {2**63}"),
    ("d", True, ConfigurationError, "header.d must be an integer, got True"),
    ("d", 0, ValidationError, "C and d must be positive, got 2, 0"),
    ("d", 2**40, ValidationError, f"d = {2**40} is too large"),
    ("provenance", {"kind": "permute"}, ValidationError,
     "unknown provenance {'kind': 'permute'}"),
    ("provenance", {"kind": "permute", "level_q": 20, "seed": "1"}, ValidationError,
     "unknown provenance {'kind': 'permute', 'level_q': 20, 'seed': '1'}"),
    ("provenance", {"kind": "permute", "level_q": "20", "seed": 1}, ConfigurationError,
     "provenance.level_q must be a finite number, got '20'"),
    ("provenance", {"kind": "permute", "level_q": 10**400, "seed": 1}, ConfigurationError,
     f"provenance.level_q must be a finite number, got {reprlib.repr(10**400)}"),
    ("provenance", {"kind": "permute", "level_q": 120, "seed": 1}, ConfigurationError,
     "noise level must be in [0, 100], got 120.0"),
    ("provenance", {"kind": "swap", "level_q": 20, "seed": 1}, ConfigurationError,
     "unknown noise kind 'swap'"),
])
def test_load_rejects_mistyped_header_fields(tmp_path, key, value, error, what):
    path = _write_raw(tmp_path / "ds.dataset", _rows(), _header(**{key: value}))
    _refused(path, error, what)


@pytest.mark.parametrize("line, what", [
    (b'{"C": 2, "d": "caf\xc3\xa9"}', "header line: non-ASCII byte"),
    (b'[2, 2]', "header line must be a JSON object"),
    (b'{"C": 2,', "header line: Expecting property name enclosed in double quotes"),
    (b'{"C": ' + b"7" * 5000 + b"}", "header line: integer literal over 4300 digits"),
    (b"[" * 100_000, "header line: nested too deeply"),
], ids=["non-ascii", "not-an-object", "malformed", "long-int", "deep"])
def test_load_refuses_an_undecodable_header_line(tmp_path, line, what):
    path = tmp_path / "ds.dataset"
    path.write_bytes(line + b"\n")
    _refused(path, ParseError, what)


def test_dataset_rejects_columns_of_different_lengths():
    with pytest.raises(ConfigurationError, match="columns disagree"):
        Dataset(features=np.zeros((2, 3)), utt_id=[0, 1], true_class=[0], observed_class=[0, 0],
                is_ood=[False, False], class_count=1, feature_dim=3)


def test_negative_zero_feature_keeps_its_sign(tmp_path):
    ds = make_dataset([[-0.0, 0.0], [1.5, -0.0]], [0, 1])
    path = tmp_path / "ds.dataset"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))
    assert np.signbit(back.features).tolist() == [[True, False], [False, True]]


GOLDEN = Path(__file__).with_name("golden.dataset")


def test_save_dataset_matches_the_golden_file(tmp_path):
    """The on-disk format of a fixed dataset, byte for byte, and read back."""
    ds = Dataset(
        features=[[0.1, -2.5, 1.0 / 3.0],
                  [1e-300, 1e300, 5e-324],
                  [3.0, -123456789.0, 2.0 ** 0.5],
                  [-0.0, 1.7976931348623157e308, -1e-5]],
        utt_id=[0, 7, 3, 12], true_class=[0, 1, 1, 0], observed_class=[0, 0, 1, 0],
        is_ood=[False, False, True, False], class_count=2, feature_dim=3,
        provenance=NoiseSpec(kind="permute", level_q=12.5, seed=9),
    )
    path = tmp_path / "ds.dataset"
    save_dataset(ds, path)
    assert path.read_bytes() == GOLDEN.read_bytes()
    assert GOLDEN.read_bytes().startswith(
        b'{"C": 2, "d": 3, "format_version": 2, '
        b'"provenance": {"kind": "permute", "level_q": 12.5, "seed": 9}}\n\x93NUMPY')
    back = load_dataset(GOLDEN)
    assert back == ds and back.provenance == ds.provenance
    assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))


class _FailingFile:
    """A file whose write number ``allowed + 1`` raises OSError."""

    def __init__(self, fh, allowed):
        self.fh, self.allowed = fh, allowed

    def write(self, data):
        if self.allowed == 0:
            raise OSError("disk full")
        self.allowed -= 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def _chunks_failing_after_one():
    yield "written\n"
    raise OSError("disk full")


@pytest.mark.parametrize("write", [
    lambda path: save_dataset(small_clean(seed=1), path),
    lambda path: jsonutil.write_json17({"a": [1.5, 2]}, path),
    lambda path: write_scores_csv(np.array([0.5, 0.25]), make_dataset([[1.0], [2.0]], [0, 1]),
                                  "intra", path),
    lambda path: write_histogram_csv([(0.0, 0.5, 1, 2), (0.5, 1.0, 3, 0)], path),
    lambda path: write_trials_csv(Trials(enroll_id=[1, 2], test_id=[3, 4],
                                         is_target=[True, False]), path),
    lambda path: write_loss_curve([(0, 0.5), (1, 0.25)], path),
    lambda path: jsonutil.write_text(path, _chunks_failing_after_one()),
], ids=["save_dataset", "write_json17", "scores_csv", "histogram_csv", "trials_csv",
        "loss_curve", "failing_chunks"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    save_dataset(small_clean(), path)
    before = path.read_bytes()
    monkeypatch.setattr(jsonutil, "open", lambda *a, **k: _FailingFile(open(*a, **k), 1),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@st.composite
def _datasets(draw):
    n, d, c = draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def column(elements, **kw):
        return draw(st.lists(elements, min_size=n, max_size=n, **kw))

    return Dataset(
        features=np.reshape(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                          min_size=n * d, max_size=n * d)), (n, d)),
        utt_id=column(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-9, 9), unique=True),
        true_class=column(st.integers(0, c - 1)),
        observed_class=column(st.integers(0, c - 1)),
        is_ood=column(st.booleans()),
        class_count=c, feature_dim=d,
        provenance=draw(st.sampled_from(["clean", NoiseSpec("permute", 12.5, 3)])),
    )


def _load_or_refuse(path) -> Dataset | None:
    """load_dataset's Dataset, or None when it refuses the file with a
    LabelNoiseError naming it; any other exception fails the test."""
    try:
        return load_dataset(path)
    except LabelNoiseError as exc:
        assert str(exc).startswith(f"dataset file {path}: ")
        return None


@settings(max_examples=200, deadline=None)
@given(_datasets())
def test_save_load_round_trips_any_dataset_bit_for_bit(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("round_trip") / "ds.dataset"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back == ds and back.provenance == ds.provenance
    assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))


_GOOD_HEADER_LINE = json.dumps(_header()).encode("ascii") + b"\n"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600) | st.binary(max_size=600).map(_GOOD_HEADER_LINE.__add__))
def test_load_dataset_takes_any_byte_string(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "ds.dataset"
    path.write_bytes(data)
    _load_or_refuse(path)


@settings(max_examples=400, deadline=None)
@given(_datasets(), BYTE_EDITS)
def test_load_dataset_takes_any_flip_or_truncation_of_a_good_file(tmp_path_factory, ds, edits):
    """Any edit of a valid file gives a Dataset or a LabelNoiseError naming
    the file; the file unedited gives its Dataset."""
    path = tmp_path_factory.mktemp("edited") / "ds.dataset"
    save_dataset(ds, path)
    path.write_bytes(edit_bytes(path.read_bytes(), edits))
    got = _load_or_refuse(path)
    if not edits:
        assert got == ds


def _jsonl(ds: Dataset) -> bytes:
    """``ds`` in the JSON-Lines layout of format_version 1."""
    prov = ds.provenance if ds.provenance == "clean" else dataclasses.asdict(ds.provenance)
    lines = [json.dumps({"format_version": 1, "C": ds.class_count, "d": ds.feature_dim,
                         "provenance": prov})]
    for i in range(len(ds)):
        lines.append(json.dumps({
            "utt_id": int(ds.utt_id[i]), "true_class": int(ds.true_class[i]),
            "observed_class": int(ds.observed_class[i]), "is_noisy": bool(ds.is_noisy[i]),
            "origin": "out_of_distribution" if ds.is_ood[i] else "in_distribution",
            "features": ds.features[i].tolist()}))
    return "".join(line + "\n" for line in lines).encode("ascii")


@settings(max_examples=100, deadline=None)
@given(_datasets())
def test_load_dataset_refuses_a_json_lines_file(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("jsonl") / "noisy.jsonl"
    path.write_bytes(_jsonl(ds))
    _refused(path, ValidationError, "unsupported format_version 1")


# ----------------------------------------------------------------------
# Dataset helpers


def test_is_clean_and_is_noisy():
    ds = small_clean()
    assert ds.is_clean and not ds.is_noisy.any()
    noisy = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=100.0, seed=0))
    assert not noisy.is_clean
    assert noisy.is_noisy.all()


def test_class_table_groups_positions_by_class():
    ds = generate_dataset(3, 3, 2, 4, 0.1, seed=0, mix_seed=0).subset([4, 0, 8, 1, 5, 2, 7])
    assert ds.observed_class.tolist() == [1, 0, 2, 0, 1, 0, 2]
    table = ds.class_table(1)
    assert table.labels.tolist() == [0, 1, 2]
    assert table.sizes.tolist() == [3, 2, 2]
    groups = [table.flat[a:a + n].tolist() for a, n in zip(table.starts, table.sizes)]
    assert groups == [[1, 3, 5], [0, 4], [2, 6]]
    kept = ds.class_table(min_members=3)
    assert kept.labels.tolist() == [0] and kept.sizes.tolist() == [3]
    assert kept.flat[kept.starts[0]:kept.starts[0] + 3].tolist() == [1, 3, 5]


# ----------------------------------------------------------------------
# what simulate writes, and the block-drawing paths against the scalar loops


def _same_bits(a: Dataset, b: Dataset) -> bool:
    """Equal datasets whose features have the same bits, -0.0 included."""
    return a == b and np.array_equal(a.features.view(np.int64), b.features.view(np.int64))


_TINY_CLEAN = "5795a0890bddcd478207eaf58ffd1715b303ecb8cc44cbb5bcb46dc4d1a756b3"
_TINY_AUX = "7d3ee4d16a337b087ed7f4fd6adae21756a7b9e72d7b57681f735769f53665ab"
_TINY_HELDOUT = "ed15f2a042c65b796ccbbd9db853497eaeb4043cea4588df2293ff134a95e995"
_PINNED = {
    "tiny-permute": (TINY_DATASET, {"kind": "permute", "level_q": 25.0}, 1, (
        _TINY_CLEAN, _TINY_AUX, _TINY_HELDOUT,
        "a06f31254f24c980d0630d22168c7362fbe2bc36f0aefa852a86d3c2d867088c")),
    "tiny-open-set": (TINY_DATASET, {"kind": "open_set", "level_q": 25.0}, 1, (
        _TINY_CLEAN, _TINY_AUX, _TINY_HELDOUT,
        "2f4649010e2c2734a5d3ca6783b41796a0fb02530985a5ec262f3621470e8693")),
    "wide-open-set": (WIDE_DATASET, {"kind": "open_set", "level_q": 50.0}, 0, (
        "f108bfe84db6e24623162dd819414b83b0e8cd3842b467d891c10f1441dc172e",
        "01774bb0d3c79aa029014d2b55d85cb83a9b838cd82b67d7f8a6bbea2c136a27",
        "80a02c5ef93acb69307d0906681315a4a78089fb83ee12674557c40eac098d4c",
        "ab9cf24c1bfc9132ac6cc84ed6393908c2147e183cefbfb991d179a48c38fb8f")),
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_simulate_writes_the_pinned_datasets(tmp_path, case):
    """The sha256 of the four files ``simulate`` writes for the CI tiny config
    and a detect-wide-sized one, as the one-utterance-at-a-time simulate
    wrote them. The features are BLAS products: a digest that moves under
    another BLAS build may mean its products round differently, not that a
    stream moved; ``test_*_match_*`` below tell the two apart."""
    dataset, noise, seed, digests = _PINNED[case]
    raw = {"output_dir": str(tmp_path / "run"), "seeds": [seed], "dataset": dataset,
           "noise": noise}
    (tmp_path / "c.json").write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(tmp_path / "c.json"), "--quiet"]) == 0
    got = [hashlib.sha256((tmp_path / "run" / f"seed_{seed}" / f"{name}.dataset").read_bytes())
           .hexdigest() for name in ("clean", "aux", "heldout", "noisy")]
    assert got == list(digests)


_LEVELS = st.sampled_from([0.0, 100.0]) | st.floats(0.0, 100.0)
_SEEDS = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=150, deadline=None)
@given(_SEEDS, st.integers(0, 3 * synthdata._RAW_BLOCK), _LEVELS,
       st.sampled_from([1, 2, 3, 2 ** 31 + 12345, 2 ** 32 - 1]) | st.integers(1, 2 ** 32 - 1))
def test_replay_draws_what_the_scalar_loop_draws(seed, n, q, bound):
    got = synthdata._replay_flag_draws(np.random.default_rng(seed), n, q / 100.0, bound)
    want = scalar_flag_draws(np.random.default_rng(seed), n, q / 100.0, bound)
    assert [a.dtype for a in got] == [np.intp, np.int64]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(_SEEDS, st.integers(2 ** 31, 2 ** 32 - 1), _LEVELS)
@example(seed=0, bound=2 ** 31 + 12345, q=100.0)
def test_replay_redraws_the_halves_lemire_rejects(seed, bound, q):
    """Above 2**31 a half is rejected with probability (2**32 - bound) / 2**32,
    up to one half: the redraws then take most of the stream."""
    got = synthdata._replay_flag_draws(np.random.default_rng(seed), 2500, q / 100.0, bound)
    want = scalar_flag_draws(np.random.default_rng(seed), 2500, q / 100.0, bound)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("rng, bound", [
    (np.random.Generator(np.random.MT19937(0)), 5),
    (np.random.Generator(np.random.Philox(0)), 5),
    (np.random.default_rng(0), 0),
    (np.random.default_rng(0), 2 ** 32),
], ids=["MT19937", "Philox", "bound-0", "bound-2**32"])
def test_replay_refuses_a_stream_it_does_not_model(rng, bound):
    with pytest.raises(InternalError, match=f"^no replay of bounded draws from "
                       f"{type(rng.bit_generator).__name__} at bound {bound}$"):
        synthdata._replay_flag_draws(rng, 10, 0.5, bound)


def test_replay_refuses_a_generator_holding_a_buffered_half():
    rng = np.random.default_rng(0)
    rng.integers(5)  # takes a word's low half and keeps its high half
    with pytest.raises(InternalError, match="no replay of bounded draws"):
        synthdata._replay_flag_draws(rng, 10, 0.5, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([2]) | st.integers(2, 30), st.integers(1, 30),
       st.integers(1, 4), st.integers(1, 4), _LEVELS)
def test_noise_matches_the_scalar_loops(seed, class_count, per_class, aux_classes, aux_per, q):
    """Bound 1 comes up as permute noise at C = 2 and as a one-row aux."""
    ds = generate_dataset(class_count, per_class, 3, 4, 0.2, seed=seed, mix_seed=seed)
    aux = generate_dataset(aux_classes, aux_per, 3, 4, 0.2, seed=seed + 1, mix_seed=seed)
    permute, open_set = NoiseSpec(PERMUTE, q, seed), NoiseSpec(OPEN_SET, q, seed)
    assert _same_bits(apply_permute_noise(ds, permute), scalar_permute_noise(ds, permute))
    assert _same_bits(apply_openset_noise(ds, aux, open_set),
                      scalar_openset_noise(ds, aux, open_set))


def _directions_or_refusal(sample, count, dim, seed, avoid):
    try:
        return sample(count, dim, named_rng(seed, "directions"), avoid=avoid).tobytes()
    except ConfigurationError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 150), st.integers(1, 4), st.integers(0, 6),
       st.sampled_from([1, 3, synthdata._DIRECTION_BLOCK, synthdata._DIRECTION_BLOCK + 1, 150,
                        MAX_DIRECTION_TRIES]))
def test_directions_match_the_scalar_sampler(seed, count, dim, avoided, tries):
    """Both samplers at the same tries limit: small limits refuse later
    directions, limits past a block carry the failed draws across blocks,
    and at ``dim`` 1 every candidate is refused."""
    avoid = None
    if avoided:
        avoid = named_rng(seed, "avoid").standard_normal((avoided, dim))
        avoid /= np.linalg.norm(avoid, axis=1, keepdims=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthdata, "MAX_DIRECTION_TRIES", tries)
        patch.setattr(oracles, "MAX_DIRECTION_TRIES", tries)
        got = _directions_or_refusal(sample_unit_directions, count, dim, seed, avoid)
        want = _directions_or_refusal(scalar_sample_unit_directions, count, dim, seed, avoid)
    assert got == want


def test_directions_refuse_a_later_direction_at_the_tries_limit():
    """Five avoided directions leave one arc 0.05 degrees wide: about one
    draw in 3600 lands there, so a direction past the first runs out."""
    half = math.degrees(math.acos(MAX_OVERLAP_COS))
    angles = np.radians(np.arange(5) * (180.0 - 2 * half - 0.05) / 4)
    avoid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    got = _directions_or_refusal(sample_unit_directions, 40, 2, 7, avoid)
    assert got == (f"could not place class direction 3 away from 5 existing directions "
                   f"after {MAX_DIRECTION_TRIES} tries")
    assert got == _directions_or_refusal(scalar_sample_unit_directions, 40, 2, 7, avoid)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 12),
       st.sampled_from([2, 3, 300, synthdata._JITTER_ROWS + 1]) | st.integers(2, 40),
       st.sampled_from([1]) | st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 2.0))
@example(seed=0, class_count=700, per_class=3, latent_dim=2, feature_dim=3, spread=0.2)
def test_features_match_the_per_class_products(seed, class_count, per_class, latent_dim,
                                               feature_dim, spread):
    """Jitter drawn for many classes at once and mixed by one stacked product
    per block, against one draw and one 2-D ``@`` per class."""
    ds = generate_dataset(class_count, per_class, latent_dim, feature_dim, spread, seed=seed,
                          mix_seed=seed + 1)
    mix = (named_rng(seed + 1, "mixing-matrix").standard_normal((feature_dim, latent_dim))
           / math.sqrt(latent_dim))
    want = per_class_features(ds.directions, mix, per_class, spread,
                              named_rng(seed, "feature-jitter"))
    assert np.array_equal(ds.features.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("ds", [
    make_dataset(np.zeros((0, 3)), [], class_count=2),
    make_dataset([[-0.0, 1.0], [0.5, -0.0]], [0, 1]),
], ids=["zero-rows", "negative-zero"])
def test_save_writes_what_np_save_wrote(tmp_path, ds):
    save_dataset(ds, tmp_path / "ds.dataset")
    assert (tmp_path / "ds.dataset").read_bytes() == bytesio_dataset_bytes(ds)


@settings(max_examples=100, deadline=None)
@given(_datasets())
def test_save_writes_what_np_save_wrote_for_any_dataset(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("save") / "ds.dataset"
    save_dataset(ds, path)
    assert path.read_bytes() == bytesio_dataset_bytes(ds)
