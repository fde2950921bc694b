"""Synthetic data generation, label noising, and dataset serialization."""

import json

import numpy as np
import pytest

from labelnoise.errors import ConfigurationError, ParseError, ValidationError
from labelnoise.seeding import named_rng
from labelnoise.synthdata import (
    Dataset,
    NoiseSpec,
    apply_openset_noise,
    apply_permute_noise,
    generate_dataset,
    load_dataset,
    sample_unit_directions,
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
    noisy = len(out.noisy_ids())
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
    assert back.noisy_ids() == noisy.noisy_ids()


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


# ----------------------------------------------------------------------
# Dataset helpers


def test_is_clean_and_noisy_ids():
    ds = small_clean()
    assert ds.is_clean and ds.noisy_ids() == set()
    noisy = apply_permute_noise(ds, NoiseSpec(kind="permute", level_q=100.0, seed=0))
    assert not noisy.is_clean
    assert noisy.noisy_ids() == set(range(len(noisy)))


def test_ids_by_observed_class_positions():
    ds = generate_dataset(2, 3, 2, 4, 0.1, seed=0)
    groups = ds.ids_by_observed_class()
    assert {c: pos.tolist() for c, pos in groups.items()} == {0: [0, 1, 2], 1: [3, 4, 5]}
