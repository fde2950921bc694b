"""Synthetic data generation, label noising, and dataset serialization."""

import hashlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from labelnoise import jsonutil, synthdata
from labelnoise.embedder import write_loss_curve
from labelnoise.errors import ConfigurationError, ParseError, ValidationError
from labelnoise.evaluation import Trials, write_trials_csv
from labelnoise.nld import write_histogram_csv, write_scores_csv
from labelnoise.seeding import named_rng
from labelnoise.synthdata import (
    Dataset,
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
    load_dataset,
    sample_unit_directions,
    _load_bulk,
    _load_by_line,
    save_dataset,
)


def small_clean(seed=0, class_count=5, per_class=6, latent=3, feature=4, spread=0.1):
    return generate_dataset(class_count, per_class, latent, feature, spread, seed=seed)


# ----------------------------------------------------------------------
# generate_dataset


def test_generate_counts_and_labels():
    ds = generate_dataset(2, 3, 2, 4, 0.1, seed=0)
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
    ds = generate_dataset(3, 4, 2, 5, 0.0, seed=1)
    for c in range(3):
        members = ds.features[ds.true_class == c]
        for f in members[1:]:
            assert np.array_equal(f, members[0])


def test_generate_deterministic():
    a = generate_dataset(4, 3, 2, 6, 0.2, seed=7)
    b = generate_dataset(4, 3, 2, 6, 0.2, seed=7)
    assert a == b
    assert np.array_equal(a.features, b.features)


def test_generate_seed_changes_data():
    a = generate_dataset(4, 3, 2, 6, 0.2, seed=7)
    b = generate_dataset(4, 3, 2, 6, 0.2, seed=8)
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


def test_generate_validates_arguments():
    with pytest.raises(ConfigurationError):
        generate_dataset(1, 3, 2, 4, 0.1, seed=0)
    with pytest.raises(ConfigurationError):
        generate_dataset(3, 1, 2, 4, 0.1, seed=0)
    with pytest.raises(ConfigurationError):
        generate_dataset(3, 3, 4, 2, 0.1, seed=0)  # feature_dim < latent_dim
    with pytest.raises(ConfigurationError):
        generate_dataset(3, 3, 2, 4, -0.5, seed=0)


def test_sample_unit_directions_respects_avoid():
    rng = named_rng(0, "test")
    avoid = np.asarray([[1.0, 0.0, 0.0]])
    dirs = sample_unit_directions(20, 3, rng, avoid=avoid, max_abs_cos=0.6)
    assert np.all(np.abs(dirs @ avoid.T) <= 0.6)


def test_sample_unit_directions_impossible_avoid():
    rng = named_rng(0, "test")
    avoid = np.asarray([[1.0, 0.0], [0.0, 1.0]])  # covers the plane at 0.5
    with pytest.raises(ConfigurationError, match="could not place"):
        sample_unit_directions(1, 2, rng, avoid=avoid, max_abs_cos=0.5, max_tries=50)


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
    ds = generate_dataset(100, 100, 2, 2, 0.05, seed=2)  # 10000 utterances
    out = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=50.0, seed=9))
    noisy = int(np.count_nonzero(out.is_noisy))
    assert 4850 <= noisy <= 5150  # 3 sigma around 5000


def test_permute_deterministic():
    ds = small_clean()
    spec = NoiseSpec(kind="permute", level_q=40.0, seed=21)
    a = apply_permute_noise(ds, spec)
    b = apply_permute_noise(ds, spec)
    assert a == b


def test_permute_rejects_noisy_input_and_wrong_kind():
    ds = small_clean()
    noisy = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=50.0, seed=0))
    with pytest.raises(ConfigurationError, match="clean"):
        apply_permute_noise(noisy, NoiseSpec(kind="permute", level_q=50.0, seed=1))
    with pytest.raises(ConfigurationError, match="permute"):
        apply_permute_noise(ds, NoiseSpec(kind="open_set", level_q=50.0, seed=1))


def test_permute_needs_two_classes():
    one = Dataset(features=np.zeros((1, 2)), utt_id=[0], true_class=[0], observed_class=[0],
                  is_ood=[False], class_count=1, feature_dim=2)
    with pytest.raises(ConfigurationError, match="2 classes"):
        apply_permute_noise(one, NoiseSpec(kind="permute", level_q=50.0, seed=0))


# ----------------------------------------------------------------------
# open-set noise


def aux_for(ds, seed=100):
    return generate_dataset(ds.class_count, 6, ds.directions.shape[1], ds.feature_dim, 0.1,
                            seed=seed, avoid_directions=ds.directions)


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


def test_openset_rejects_overlapping_aux():
    ds = small_clean()
    with pytest.raises(ConfigurationError, match="overlap"):
        apply_openset_noise(ds, ds, NoiseSpec(kind="open_set", level_q=50.0, seed=0))


def test_openset_rejects_empty_or_mismatched_aux():
    ds = small_clean()
    empty = ds.subset(np.zeros(len(ds), dtype=bool))
    with pytest.raises(ConfigurationError, match="non-empty"):
        apply_openset_noise(ds, empty, NoiseSpec(kind="open_set", level_q=50.0, seed=0))
    skinny = generate_dataset(3, 3, 2, ds.feature_dim + 1, 0.1, seed=1)
    with pytest.raises(ConfigurationError, match="feature_dim"):
        apply_openset_noise(ds, skinny, NoiseSpec(kind="open_set", level_q=50.0, seed=0))


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
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_save_load_round_trip_noisy(tmp_path):
    ds = small_clean()
    noisy = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=50.0, seed=4))
    path = tmp_path / "ds.jsonl"
    save_dataset(noisy, path)
    back = load_dataset(path)
    assert back == noisy
    assert back.provenance == noisy.provenance
    assert np.array_equal(back.is_noisy, noisy.is_noisy)


def test_save_byte_identical_rerun(tmp_path):
    ds = small_clean()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="ascii")
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(path)


def test_load_truncated_line_reports_number(tmp_path):
    ds = small_clean()
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text(encoding="ascii").splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path)


def test_load_header_missing_field(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text('{"format_version": 1, "C": 2, "d": 2}\n', encoding="ascii")
    with pytest.raises(ParseError, match="provenance"):
        load_dataset(path)


def test_load_unsupported_format_version(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text(
        '{"format_version": 99, "C": 2, "d": 2, "provenance": "clean"}\n',
        encoding="ascii",
    )
    with pytest.raises(ValidationError, match="format_version"):
        load_dataset(path)


def _write_with_row(tmp_path, row: dict):
    path = tmp_path / "ds.jsonl"
    header = '{"format_version": 1, "C": 2, "d": 2, "provenance": "clean"}'
    path.write_text(header + "\n" + json.dumps(row) + "\n", encoding="ascii")
    return path


def test_load_observed_class_out_of_range(tmp_path):
    row = {"utt_id": 0, "true_class": 0, "observed_class": 5, "is_noisy": True,
           "origin": "in_distribution", "features": [0.0, 1.0]}
    with pytest.raises(ValidationError, match="observed_class"):
        load_dataset(_write_with_row(tmp_path, row))


def test_load_inconsistent_noisy_flag(tmp_path):
    row = {"utt_id": 0, "true_class": 0, "observed_class": 1, "is_noisy": False,
           "origin": "in_distribution", "features": [0.0, 1.0]}
    with pytest.raises(ValidationError, match="is_noisy"):
        load_dataset(_write_with_row(tmp_path, row))


def test_load_unknown_origin(tmp_path):
    row = {"utt_id": 0, "true_class": 0, "observed_class": 0, "is_noisy": False,
           "origin": "martian", "features": [0.0, 1.0]}
    with pytest.raises(ValidationError, match="origin"):
        load_dataset(_write_with_row(tmp_path, row))


def test_load_wrong_feature_dim(tmp_path):
    row = {"utt_id": 0, "true_class": 0, "observed_class": 0, "is_noisy": False,
           "origin": "in_distribution", "features": [0.0, 1.0, 2.0]}
    with pytest.raises(ValidationError, match="features"):
        load_dataset(_write_with_row(tmp_path, row))


def test_load_non_finite_feature(tmp_path):
    row_text = ('{"utt_id": 0, "true_class": 0, "observed_class": 0, "is_noisy": false, '
                '"origin": "in_distribution", "features": [0.0, NaN]}')
    path = tmp_path / "ds.jsonl"
    path.write_text(
        '{"format_version": 1, "C": 2, "d": 2, "provenance": "clean"}\n' + row_text + "\n",
        encoding="ascii",
    )
    with pytest.raises(ValidationError, match="non-finite"):
        load_dataset(path)


_GOOD_ROW = {"utt_id": 0, "true_class": 0, "observed_class": 0, "is_noisy": False,
             "origin": "in_distribution", "features": [0.0, 1.0]}
_GOOD_HEADER = {"format_version": 1, "C": 2, "d": 2, "provenance": "clean"}


@pytest.mark.parametrize("where, key, value", [
    ("row", "features", "abc"),
    ("row", "features", [0.0, "1"]),
    ("row", "features", [True, 1.0]),
    ("row", "features", [0.0, 10 ** 400]),
    ("row", "utt_id", "x"),
    ("row", "utt_id", 1.7),
    ("row", "utt_id", 2 ** 63),
    ("row", "true_class", True),
    ("row", "observed_class", None),
    ("row", "is_noisy", "false"),
    ("row", "is_noisy", 0),
    ("header", "C", "abc"),
    ("header", "C", 2.9),
    ("header", "d", True),
    ("header", "d", 0),
    ("header", "provenance", {"kind": "permute"}),
    ("header", "provenance", {"kind": "permute", "level_q": "20", "seed": 1}),
])
def test_load_rejects_mistyped_fields(tmp_path, where, key, value):
    header, row = dict(_GOOD_HEADER), dict(_GOOD_ROW)
    (header if where == "header" else row)[key] = value
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n", encoding="ascii")
    line = 1 if where == "header" else 2
    with pytest.raises((ValidationError, ParseError), match=f"^line {line}: "):
        load_dataset(path)


def test_load_non_ascii_byte_reports_line(tmp_path):
    path = tmp_path / "ds.jsonl"
    row = json.dumps(_GOOD_ROW).replace("in_distribution", "in_distribution\u00e9")
    path.write_bytes((json.dumps(_GOOD_HEADER) + "\n" + row + "\n").encode("utf-8"))
    with pytest.raises(ParseError, match="^line 2: non-ASCII"):
        load_dataset(path)


def test_dataset_rejects_columns_of_different_lengths():
    with pytest.raises(ConfigurationError, match="columns disagree"):
        Dataset(features=np.zeros((2, 3)), utt_id=[0, 1], true_class=[0], observed_class=[0, 0],
                is_ood=[False, False], class_count=1, feature_dim=3)


def test_load_missing_utterance_field(tmp_path):
    row = {"utt_id": 0, "observed_class": 0, "is_noisy": False,
           "origin": "in_distribution", "features": [0.0, 1.0]}
    with pytest.raises(ParseError, match="true_class"):
        load_dataset(_write_with_row(tmp_path, row))


def test_load_duplicate_utt_id(tmp_path):
    path = tmp_path / "ds.jsonl"
    row = ('{"utt_id": 0, "true_class": 0, "observed_class": 0, "is_noisy": false, '
           '"origin": "in_distribution", "features": [0.0, 1.0]}')
    path.write_text(
        '{"format_version": 1, "C": 2, "d": 2, "provenance": "clean"}\n'
        + row + "\n" + row + "\n",
        encoding="ascii",
    )
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset(path)


def test_negative_zero_feature_keeps_its_sign(tmp_path):
    ds = make_dataset([[-0.0, 0.0], [1.5, -0.0]], [0, 1])
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    assert "[-0.0,0]" in path.read_text(encoding="ascii")
    back = load_dataset(path)
    assert np.array_equal(back.features.view(np.int64), ds.features.view(np.int64))


def test_save_dataset_golden_bytes(tmp_path):
    """The on-disk format of a fixed dataset, byte for byte."""
    ds = Dataset(
        features=[[0.1, -2.5, 1.0 / 3.0],
                  [1e-300, 1e300, 5e-324],
                  [3.0, -123456789.0, 2.0 ** 0.5],
                  [0.0, 1.7976931348623157e308, -1e-5]],
        utt_id=[0, 7, 3, 12], true_class=[0, 1, 1, 0], observed_class=[0, 0, 1, 0],
        is_ood=[False, False, True, False], class_count=2, feature_dim=3,
        provenance=NoiseSpec(kind="permute", level_q=12.5, seed=9),
    )
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ac4738919607270b891b4250d27f8a4912b01cd15a5824568a52b91c7f40f7f6"
    assert load_dataset(path) == ds


class _FailingFile:
    """A text file whose write number ``allowed + 1`` raises OSError."""

    def __init__(self, fh, allowed):
        self.fh, self.allowed = fh, allowed

    def write(self, text):
        if self.allowed == 0:
            raise OSError("disk full")
        self.allowed -= 1
        return self.fh.write(text)

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


def test_bulk_reader_takes_the_files_save_dataset_writes(tmp_path):
    ds = small_clean(class_count=40, per_class=20)
    ds = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=30.0, seed=2))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    data = path.read_bytes()
    bulk = _load_bulk(data)
    assert bulk is not None and bulk == ds == _load_by_line(data)
    assert np.array_equal(bulk.features.view(np.int64), ds.features.view(np.int64))


def _outcome(source, read):
    try:
        return read(source)
    except Exception as exc:  # the readers must agree on the error too
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset) and got == want
        assert got.provenance == want.provenance
        assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
    else:
        assert got == want


# Number spellings JSON refuses or reads differently from a float
_TOKENS = ["-0", "1E5", "+1", ".5", "5.", "01", "1_0", "NaN", "Infinity", "9" * 400,
           str(2 ** 63)]
_NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")


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


def _mutate(data: bytes, kind: str, i: int, j: int, token: str) -> bytes:
    if kind == "token":
        spans = [m.span() for m in _NUMBER.finditer(data)]
        if not spans:
            return data
        a, b = spans[i % len(spans)]
        return data[:a] + token.encode() + data[b:]
    if kind in ("flip", "delete", "duplicate"):
        if not data:
            return data
        k = i % len(data)
        return data[:k] + {"flip": bytes([j % 256]), "delete": b"",
                           "duplicate": data[k:k + 2]}[kind] + data[k + 1:]
    lines = data.split(b"\n")
    a, b = i % len(lines), j % len(lines)
    if kind == "swap":
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == "blank":
        lines.insert(a, b" " * (j % 2))
    else:  # "crlf"
        lines[a] += b"\r"
    return b"\n".join(lines)


_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["flip", "delete", "duplicate", "swap", "blank", "crlf", "token"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.sampled_from(_TOKENS)), max_size=3)


@settings(max_examples=400, deadline=None)
@given(_datasets(), _MUTATIONS, st.sampled_from([1, 100, synthdata._READ_BYTES]))
def test_load_dataset_agrees_with_the_line_reader(tmp_path_factory, ds, mutations, read_bytes):
    """On any mutation of a valid file, load_dataset returns the per-line
    reader's Dataset, to the bit, or raises its error with its message,
    whether the bulk reader takes the file in one block or many."""
    path = tmp_path_factory.mktemp("mutated") / "ds.jsonl"
    save_dataset(ds, path)
    data = path.read_bytes()
    for mutation in mutations:
        data = _mutate(data, *mutation)
    path.write_bytes(data)
    with mock.patch.object(synthdata, "_READ_BYTES", read_bytes):
        got = _outcome(path, load_dataset)
    _same_outcome(got, ds if not mutations else _outcome(data, _load_by_line))


@pytest.mark.parametrize("body", ["", json.dumps(_GOOD_ROW) + "\n"])
def test_load_dataset_with_a_huge_feature_dim_agrees_with_the_line_reader(tmp_path, body):
    path = tmp_path / "ds.jsonl"
    data = ('{"format_version": 1, "C": 2, "d": %d, "provenance": "clean"}\n' % 2 ** 40
            + body).encode("ascii")
    path.write_bytes(data)
    _same_outcome(_outcome(path, load_dataset), _outcome(data, _load_by_line))


@pytest.mark.parametrize("token", _TOKENS)
@pytest.mark.parametrize("field", ["features\": [", "utt_id\": ", "observed_class\": "])
def test_load_dataset_agrees_with_the_line_reader_on_number_spellings(tmp_path, field, token):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_clean(), path)
    text = path.read_text(encoding="ascii")
    at = text.index(field) + len(field)
    end = re.compile(r"[,\]]").search(text, at).start()
    data = (text[:at] + token + text[end:]).encode("ascii")
    path.write_bytes(data)
    _same_outcome(_outcome(path, load_dataset), _outcome(data, _load_by_line))


# ----------------------------------------------------------------------
# Dataset helpers


def test_is_clean_and_is_noisy():
    ds = small_clean()
    assert ds.is_clean and not ds.is_noisy.any()
    noisy = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=100.0, seed=0))
    assert not noisy.is_clean
    assert noisy.is_noisy.all()


def test_class_table_groups_positions_by_class():
    ds = generate_dataset(3, 3, 2, 4, 0.1, seed=0).subset([4, 0, 8, 1, 5, 2, 7])
    assert ds.observed_class.tolist() == [1, 0, 2, 0, 1, 0, 2]
    table = ds.class_table()
    assert table.labels.tolist() == [0, 1, 2]
    assert table.sizes.tolist() == [3, 2, 2]
    groups = [table.flat[a:a + n].tolist() for a, n in zip(table.starts, table.sizes)]
    assert groups == [[1, 3, 5], [0, 4], [2, 6]]
    kept = ds.class_table(min_members=3)
    assert kept.labels.tolist() == [0] and kept.sizes.tolist() == [3]
    assert kept.flat[kept.starts[0]:kept.starts[0] + 3].tolist() == [1, 3, 5]
