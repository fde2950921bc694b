"""Inconsistency scoring, ranking, and detection-quality bookkeeping."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BYTE_EDITS,
    JSON_VALUES,
    edit_bytes,
    identity_model,
    make_dataset,
    replace_values,
)
from labelnoise.errors import ConfigurationError, DomainError, InternalError, LabelNoiseError
from labelnoise.losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    ClassifierParams,
    classify_confidence,
)
from labelnoise.nld import (
    DEFAULT_CENTROID_TEMPERATURE,
    _SCORE_BLOCK,
    MAX_INTER_SCORE,
    METHOD_INTER,
    METHOD_INTRA,
    CentroidBank,
    CentroidClassifier,
    DetectionResult,
    ParametricClassifier,
    compute_centroids,
    detection_precision,
    export_score_histogram,
    inter_inconsistency,
    intra_inconsistency,
    load_detection,
    rank_and_select,
    write_detection_json,
    write_histogram_csv,
    write_scores_csv,
)
from labelnoise.numerics import l2_normalize_rows
from labelnoise.synthdata import Dataset
from oracles import (
    brute_centroids,
    brute_histogram,
    brute_inter,
    brute_intra,
    brute_precision_recall,
    brute_top_q_percent,
    cosine_similarity,
    dict_build_centroid_classifier,
    dict_compute_centroids,
    dict_intra_inconsistency,
    plain_centroid_confidences,
    plain_classify_confidence,
    plain_inter_inconsistency,
)


class StubClassifier:
    """Duck-typed confidence source for exercising the inter-score guards."""

    def __init__(self, class_ids, confidence_fn):
        self.class_ids = class_ids
        self._fn = confidence_fn

    def confidences(self, x):
        return np.asarray(self._fn(x), dtype=np.float64)


# ----------------------------------------------------------------------
# centroid bank


def test_compute_centroids_mean_of_two():
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 0])
    bank = compute_centroids(ds.features, ds)
    assert bank.centroids.tolist() == [[0.5, 0.5]]
    assert bank.counts.tolist() == [2]


def test_compute_centroids_gives_empty_classes_zero_rows(caplog):
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 0], class_count=3)
    with caplog.at_level("WARNING"):
        bank = compute_centroids(ds.features, ds)
    assert bank.centroids.tolist() == [[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]]
    assert bank.counts.tolist() == [2, 0, 0]
    assert "2 empty class(es): [1, 2]" in caplog.text


def test_compute_centroids_matches_brute_force():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((40, 5))
    observed = rng.integers(0, 6, size=40).tolist()
    ds = make_dataset(feats, observed, class_count=6)
    bank = compute_centroids(ds.features, ds)
    ref, ref_counts = brute_centroids(feats.tolist(), observed)
    assert bank.counts.tolist() == [ref_counts.get(c, 0) for c in range(6)]
    for c, row in ref.items():
        np.testing.assert_allclose(bank.centroids[c], row, rtol=0, atol=1e-12)


def _bank_cases():
    """(embeddings, dataset) pairs the array bank must treat as the dict
    bank does: random rows with empty classes, zero-norm rows and a class
    of x and -x (a zero-norm centroid), classes of signed zeros, and an
    empty dataset."""
    rng = np.random.default_rng(13)
    for n, d, classes in ((300, 16, 9), (2000, 32, 40), (7, 3, 12)):
        emb = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))
        observed = rng.integers(0, classes, size=n)
        observed[np.isin(observed, [2, classes - 1])] = 0  # two empty classes
        emb[rng.choice(n, size=min(n, 5), replace=False)] = 0.0
        members = np.flatnonzero(observed == 1)
        half = len(members) // 2
        emb[members[half:2 * half]] = -emb[members[:half]]
        emb[members[2 * half:]] = 0.0
        yield emb, make_dataset(emb, observed.tolist(), class_count=classes)
    # signed zeros: all -0.0, -0.0 next to +0.0, a lone -0.0 row, -0.0 in mixed rows
    emb = np.array([[-0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
                    [-0.0, 1.5], [-0.0, -2.0]])
    yield emb, make_dataset(emb, [0, 0, 1, 1, 2, 3, 3], class_count=5)
    yield np.empty((0, 3)), Dataset(features=np.empty((0, 3)), utt_id=[], true_class=[],
                                    observed_class=[], is_ood=[], class_count=3,
                                    feature_dim=3)


def test_array_bank_has_the_bits_of_the_dict_bank():
    for emb, ds in _bank_cases():
        bank = compute_centroids(emb, ds)
        ref = dict_compute_centroids(emb, ds)
        assert bank.centroids.shape == (ds.class_count, emb.shape[1])
        assert bank.counts.tolist() == [ref.counts.get(c, 0) for c in range(ds.class_count)]
        for c in range(ds.class_count):
            want = ref.centroids.get(c, np.zeros(emb.shape[1]))
            assert bank.centroids[c].tobytes() == want.tobytes(), c
        assert np.flatnonzero(bank.counts == 0).tolist() == ref.skipped_classes
        got = intra_inconsistency(emb, ds, bank)
        assert got.dtype == np.float64
        assert got.tobytes() == dict_intra_inconsistency(emb, ds, ref).tobytes()


@pytest.mark.parametrize("temperature", [0.1, 1.0])
def test_array_centroid_classifier_has_the_bits_of_the_dict_one(temperature):
    for emb, ds in _bank_cases():
        if not len(ds):  # detect refuses a dataset with no rows before it builds a bank
            continue
        bank, ref = compute_centroids(emb, ds), dict_compute_centroids(emb, ds)
        try:
            ids, directions = dict_build_centroid_classifier(ref, temperature)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                CentroidClassifier(bank, temperature)
            continue
        clf = CentroidClassifier(bank, temperature)
        assert clf.class_ids == ids
        assert clf._directions.tobytes() == directions.tobytes()
        for x in emb[np.linalg.norm(emb, axis=1) != 0.0]:
            assert clf.confidences(x).tobytes() == \
                plain_centroid_confidences(directions, temperature, x).tobytes()


# ----------------------------------------------------------------------
# intra-class inconsistency


def test_intra_aligned_orthogonal_antipodal():
    ds = make_dataset([[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]], [0, 0, 0])
    bank = CentroidBank(centroids=np.array([[1.0, 0.0]]), counts=np.array([3]))
    got = intra_inconsistency(ds.features, ds, bank)
    assert got.dtype == np.float64
    assert got.tolist() == [0.0, 1.0, 2.0]


def test_intra_zero_norm_embedding_scores_maximal(caplog):
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0]], [0, 0])
    bank = CentroidBank(centroids=np.array([[1.0, 0.0]]), counts=np.array([2]))
    with caplog.at_level("WARNING"):
        got = intra_inconsistency(ds.features, ds, bank)
    assert got.tolist() == [2.0, 0.0]
    assert "degenerate" in caplog.text


def test_degenerate_scores_log_one_warning_with_count_and_first_ids(caplog):
    ds = make_dataset(np.zeros((8, 2)), [0] * 8)
    bank = CentroidBank(centroids=np.array([[1.0, 0.0]]), counts=np.array([8]))
    with caplog.at_level("WARNING"):
        got = intra_inconsistency(ds.features, ds, bank)
    assert got.tolist() == [2.0] * 8
    assert [r.getMessage() for r in caplog.records] == [
        "8 utterance(s): degenerate embedding/centroid, assigning maximal intra-class score "
        "(utt_id 0, 1, 2, 3, 4, ...)"]


def test_intra_missing_class_and_zero_centroid_score_maximal(caplog):
    # class 0 has no members in the bank: its row is zero
    ds = make_dataset([[1.0, 0.0], [1.0, 0.0]], [0, 1])
    bank = CentroidBank(centroids=np.zeros((2, 2)), counts=np.array([0, 1]))
    with caplog.at_level("WARNING"):
        got = intra_inconsistency(ds.features, ds, bank)
    assert got.tolist() == [2.0, 2.0]


def test_intra_matches_brute_force():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((30, 4))
    observed = rng.integers(0, 4, size=30).tolist()
    ds = make_dataset(feats, observed, class_count=4)
    bank = compute_centroids(ds.features, ds)
    got = intra_inconsistency(ds.features, ds, bank)
    ref = brute_intra(feats.tolist(), observed, dict(enumerate(bank.centroids.tolist())))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert all(0.0 <= s <= 2.0 for s in got)


def test_intra_has_the_bits_of_per_row_cosine():
    # the vectorized scores reproduce the one-row-at-a-time cosine exactly
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((200, 32))
    observed = rng.integers(0, 7, size=200).tolist()
    ds = make_dataset(feats, observed, class_count=7)
    bank = compute_centroids(ds.features, ds)
    got = intra_inconsistency(ds.features, ds, bank)
    ref = [1.0 - cosine_similarity(x, bank.centroids[c]) for x, c in zip(feats, observed)]
    assert got.tolist() == ref


# ----------------------------------------------------------------------
# classifiers


def test_parametric_classifier_recovers_probabilities():
    p = np.array([0.7, 0.2, 0.1])
    model = identity_model(
        3,
        loss_cfg=CEConfig(class_count=3),
        classifier=ClassifierParams(weight=np.eye(3), bias=np.zeros(3)),
    )
    clf = ParametricClassifier(model)
    assert clf.class_ids == [0, 1, 2]
    np.testing.assert_allclose(clf.confidences(np.log(p)), p, rtol=0, atol=1e-12)


@pytest.mark.parametrize("loss_cfg", [CEConfig(class_count=7), AAMConfig(7, 30.0, 0.1),
                                      AAMSCConfig(7, 30.0, 0.1, subcenters=3)],
                         ids=lambda cfg: cfg.kind)
def test_parametric_classifier_has_the_bits_of_per_call_normalization(loss_cfg):
    rng = np.random.default_rng(11)
    rows = 7 * getattr(loss_cfg, "subcenters", 1)
    params = ClassifierParams(weight=rng.normal(size=(rows, 5)) * rng.uniform(0.01, 30, (rows, 1)),
                              bias=rng.normal(size=rows) if loss_cfg.kind == "ce" else None)
    clf = ParametricClassifier(identity_model(5, loss_cfg=loss_cfg, classifier=params))
    for x in rng.normal(size=(200, 5)) * rng.uniform(1e-3, 1e3, (200, 1)):
        got = clf.confidences(x)
        assert got.tobytes() == plain_classify_confidence(x, params, loss_cfg).tobytes()


def test_parametric_classifier_rejects_zero_weight_row_when_built():
    params = ClassifierParams(weight=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError, match="weight row 1"):
        ParametricClassifier(identity_model(2, loss_cfg=AAMConfig(2, 30.0, 0.1),
                                            classifier=params))


def _unit_bank(directions) -> CentroidBank:
    directions = np.asarray(directions, dtype=np.float64)
    return CentroidBank(centroids=directions, counts=np.ones(len(directions), dtype=np.int64))


def test_centroid_classifier_softmax_of_cosines():
    clf = CentroidClassifier(_unit_bank([[1.0, 0.0], [0.0, 1.0]]), temperature=1.0)
    p = clf.confidences(np.array([3.0, 0.0]))
    e = math.e
    np.testing.assert_allclose(p, [e / (e + 1.0), 1.0 / (e + 1.0)], rtol=0, atol=1e-12)


def test_centroid_classifier_huge_temperature_is_uniform():
    clf = CentroidClassifier(_unit_bank(np.eye(3)), temperature=1e9)
    p = clf.confidences(np.array([1.0, 0.5, -0.5]))
    np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-6)


def test_centroid_classifier_sharpens_at_the_default_temperature():
    clf = CentroidClassifier(_unit_bank(np.eye(2)), DEFAULT_CENTROID_TEMPERATURE)
    # temperature 0.1 sharpens the cosine gap [1, 0] to logits [10, 0]
    p = clf.confidences(np.array([1.0, 0.0]))
    np.testing.assert_allclose(p[0], 1.0 / (1.0 + math.exp(-10.0)), rtol=0, atol=1e-12)


def test_centroid_classifier_zero_norm_input_rejected():
    clf = CentroidClassifier(_unit_bank([[1.0, 0.0]]), temperature=1.0)
    with pytest.raises(DomainError, match="zero norm"):
        clf.confidences(np.zeros(2))


def test_centroid_classifier_normalizes_directions():
    bank = CentroidBank(centroids=np.array([[2.0, 0.0], [0.0, 5.0]]), counts=np.array([1, 1]))
    clf = CentroidClassifier(bank, temperature=1.0)
    assert clf.class_ids == [0, 1]
    p = clf.confidences(np.array([1.0, 0.0]))
    e = math.e
    np.testing.assert_allclose(p, [e / (e + 1.0), 1.0 / (e + 1.0)], rtol=0, atol=1e-12)


def test_centroid_classifier_excludes_zero_norm_centroids(caplog):
    bank = CentroidBank(centroids=np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                        counts=np.array([1, 1, 0]))
    with caplog.at_level("WARNING"):
        clf = CentroidClassifier(bank, temperature=1.0)
    assert clf.class_ids == [1]
    # an empty class is left out without a warning of its own
    assert [r.getMessage() for r in caplog.records] == [
        "centroid classifier: class 0 has zero-norm centroid, excluded"]


def test_centroid_classifier_rejects_degenerate_banks():
    # a model whose embeddings average to zero in every class reaches this
    all_zero = CentroidBank(centroids=np.zeros((1, 2)), counts=np.array([1]))
    with pytest.raises(ConfigurationError, match="zero norm"):
        CentroidClassifier(all_zero, DEFAULT_CENTROID_TEMPERATURE)


# ----------------------------------------------------------------------
# bit identity with the one-call-per-operation confidences in oracles.py

_CLASSES, _DIM = 13, 6


def _scoring_weight(rng, k: int) -> np.ndarray:
    """Classifier rows over many scales; the first rows are the axes,
    so axis-aligned embeddings meet cosines of exactly +-1 and 0, and
    every third class repeats its first sub-center as its last (an exact
    sub-center tie)."""
    w = rng.standard_normal((_CLASSES * k, _DIM)) * rng.uniform(0.01, 30.0, (_CLASSES * k, 1))
    w[:_DIM] = np.eye(_DIM) * 2.0
    if k > 1:
        for c in range(0, _CLASSES, 3):
            w[c * k + k - 1] = w[c * k]
    return w


def _scoring_embeddings(rng, weight: np.ndarray) -> np.ndarray:
    """Random embeddings over many scales, the scaled +-axes, -0.0
    entries, and multiples of classifier rows (cosines that round past
    +-1 before the clip)."""
    eye = np.eye(_DIM)
    return np.concatenate([
        rng.standard_normal((80, _DIM)) * rng.uniform(1e-3, 1e3, (80, 1)),
        eye * 3.0, -eye * 0.5, np.where(eye > 0.0, -1.0, -0.0),
        *(s * weight[_DIM:] for s in (-7.0, 0.3, 3.0, 1e3)),
    ])


def _assert_cosines_cover_the_edges(unit_rows: np.ndarray, xs: np.ndarray) -> None:
    raw = unit_rows @ (xs / np.linalg.norm(xs, axis=1)[:, None]).T
    assert (np.abs(raw) > 1.0).any()  # the clip changes something
    cos = np.clip(raw, -1.0, 1.0)
    assert (cos == 1.0).any() and (cos == -1.0).any() and (cos == 0.0).any()


@pytest.mark.parametrize("loss_cfg", [
    CEConfig(_CLASSES), AAMConfig(_CLASSES, 30.0, 0.1),
    *(AAMSCConfig(_CLASSES, 30.0, 0.1, subcenters=k) for k in (1, 2, 3, 4))],
    ids=lambda cfg: cfg.kind + str(getattr(cfg, "subcenters", "")))
def test_classify_confidence_has_the_bits_of_the_plain_form(loss_cfg):
    rng = np.random.default_rng(77)
    k = getattr(loss_cfg, "subcenters", 1)
    weight = _scoring_weight(rng, k)
    params = ClassifierParams(weight=weight,
                              bias=rng.normal(size=_CLASSES) if loss_cfg.kind == "ce" else None)
    xs = _scoring_embeddings(rng, weight)
    if loss_cfg.kind != "ce":
        _assert_cosines_cover_the_edges(weight / np.linalg.norm(weight, axis=1)[:, None], xs)
    if k > 1:
        sub = weight.reshape(_CLASSES, k, _DIM)
        assert (sub[:, 0] == sub[:, -1]).all(axis=1).any()
    clf = ParametricClassifier(identity_model(_DIM, loss_cfg=loss_cfg, classifier=params))
    unit_weight = None if loss_cfg.kind == "ce" else l2_normalize_rows(weight, "weight")[0]
    for x in xs:
        want = plain_classify_confidence(x, params, loss_cfg).tobytes()
        assert classify_confidence(x, params, loss_cfg, unit_weight).tobytes() == want
        assert clf.confidences(x).tobytes() == want


@pytest.mark.parametrize("temperature", [0.1, 1.0, 0.37])
def test_centroid_confidences_have_the_bits_of_the_plain_form(temperature):
    rng = np.random.default_rng(78)
    rows = _scoring_weight(rng, 1)
    # the centroid rows normalized one at a time, as the dict-bank classifier does
    directions = np.stack([r / np.linalg.norm(r) for r in rows])
    xs = _scoring_embeddings(rng, rows)
    _assert_cosines_cover_the_edges(directions, xs)
    clf = CentroidClassifier(_unit_bank(rows), temperature)
    assert clf.class_ids == list(range(_CLASSES))
    for x in xs:
        assert clf.confidences(x).tobytes() == \
            plain_centroid_confidences(directions, temperature, x).tobytes()


def _dataset_with_degenerate_rows(rng, n: int) -> tuple[np.ndarray, list[int]]:
    """Embeddings with a zero-norm row every 37 rows, and class 4 holding
    x and -x (a zero-norm centroid); every 41st row is in class _CLASSES,
    which is outside every parametric classifier. Both kinds recur often
    enough to sit on both sides of every block boundary of inter scoring."""
    feats = rng.standard_normal((n, _DIM)) * rng.uniform(1e-2, 1e2, (n, 1))
    observed = [i % _CLASSES for i in range(n)]
    observed[9::41] = [_CLASSES] * len(observed[9::41])
    feats[5::37] = 0.0
    members = [i for i, c in enumerate(observed) if c == 4]
    pairs = len(members) // 2
    feats[members[1::2]] = -feats[members[0::2]][:pairs]
    feats[members[2 * pairs:]] = 0.0  # the odd one out, if any
    return feats, observed


# a dataset of fewer rows than one block, and one of 2 blocks + 3 rows
_SIZES = (130, 2 * _SCORE_BLOCK + 3)


def _assert_degenerate_rows_score_maximal(got, feats, ds, class_ids):
    scorable = feats.any(axis=1) & np.isin(ds.observed_class, class_ids)
    assert (got[~scorable] == MAX_INTER_SCORE).all()
    assert (ds.observed_class == _CLASSES).any() and not feats[5].any()
    if len(ds) > _SCORE_BLOCK:  # zero-norm and missing-class rows on both sides of a boundary
        boundary = np.flatnonzero(scorable)[_SCORE_BLOCK]
        for side in (~scorable[boundary - 37:boundary], ~scorable[boundary:boundary + 41]):
            assert side.any()


@pytest.mark.parametrize("loss_cfg", [AAMSCConfig(_CLASSES, 30.0, 0.1, subcenters=3),
                                      CEConfig(_CLASSES)], ids=lambda cfg: cfg.kind)
def test_inter_parametric_has_the_bits_of_the_plain_loop(loss_cfg):
    rng = np.random.default_rng(79)
    for n in _SIZES:
        feats, observed = _dataset_with_degenerate_rows(rng, n)
        ds = make_dataset(feats, observed, class_count=_CLASSES + 1)
        weight = _scoring_weight(rng, getattr(loss_cfg, "subcenters", 1))
        params = ClassifierParams(weight=weight, bias=rng.normal(size=_CLASSES)
                                  if loss_cfg.kind == "ce" else None)
        model = identity_model(_DIM, loss_cfg=loss_cfg, classifier=params)
        got = inter_inconsistency(ds.features, ds, ParametricClassifier(model))
        want = plain_inter_inconsistency(feats, ds.observed_class, list(range(_CLASSES)),
                                         lambda x: plain_classify_confidence(x, params, loss_cfg))
        assert got.tobytes() == want.tobytes()
        _assert_degenerate_rows_score_maximal(got, feats, ds, list(range(_CLASSES)))


@pytest.mark.parametrize("temperature", [0.1, 1.0])
def test_inter_centroid_has_the_bits_of_the_plain_loop(temperature):
    rng = np.random.default_rng(80)
    for n in _SIZES:
        feats, observed = _dataset_with_degenerate_rows(rng, n)
        ds = make_dataset(feats, observed, class_count=_CLASSES + 1)
        bank = compute_centroids(ds.features, ds)
        clf = CentroidClassifier(bank, temperature)
        got = inter_inconsistency(ds.features, ds, clf)
        assert 4 not in clf.class_ids  # its centroid has zero norm
        directions = np.stack([bank.centroids[c] / np.linalg.norm(bank.centroids[c])
                               for c in clf.class_ids])
        want = plain_inter_inconsistency(
            feats, ds.observed_class, clf.class_ids,
            lambda x: plain_centroid_confidences(directions, temperature, x))
        assert got.tobytes() == want.tobytes()
        _assert_degenerate_rows_score_maximal(got, feats, ds, clf.class_ids)


def test_inter_calls_the_classifier_once_per_scorable_utterance_in_order():
    # the benchmark's traced smoke test pins nld.confidences.calls at one
    # per utterance; this holds the same count in the tier-1 suite
    feats, observed = _dataset_with_degenerate_rows(np.random.default_rng(81), _SIZES[1])
    ds = make_dataset(feats, observed, class_count=_CLASSES + 1)
    calls = []
    clf = StubClassifier(list(range(_CLASSES)),
                         lambda x: calls.append(x.copy()) or np.full(_CLASSES, 1.0 / _CLASSES))
    inter_inconsistency(ds.features, ds, clf)
    scorable = feats.any(axis=1) & (ds.observed_class != _CLASSES)
    assert len(calls) == np.count_nonzero(scorable) > _SCORE_BLOCK
    assert np.stack(calls).tobytes() == feats[scorable].tobytes()


# ----------------------------------------------------------------------
# inter-class inconsistency


def test_inter_one_minus_observed_confidence():
    p = np.array([0.7, 0.2, 0.1])
    model = identity_model(
        3,
        loss_cfg=CEConfig(class_count=3),
        classifier=ClassifierParams(weight=np.eye(3), bias=np.zeros(3)),
    )
    ds = make_dataset([np.log(p)], [0], class_count=3)
    got = inter_inconsistency(ds.features, ds, ParametricClassifier(model))
    assert got.shape == (1,) and got.dtype == np.float64
    assert abs(got[0] - 0.3) <= 1e-12


def test_inter_uniform_confidence_scores_one_minus_reciprocal():
    ds = make_dataset([[1.0, 2.0, 3.0, 4.0]], [2], class_count=5)
    model = identity_model(
        4,
        loss_cfg=CEConfig(class_count=5),
        classifier=ClassifierParams(weight=np.zeros((5, 4)), bias=np.zeros(5)),
    )
    got = inter_inconsistency(ds.features, ds, ParametricClassifier(model))
    assert abs(got[0] - (1.0 - 1.0 / 5.0)) <= 1e-12


def test_inter_missing_class_scores_maximal(caplog):
    ds = make_dataset([[1.0, 0.0]], [2], class_count=3)
    clf = StubClassifier([0, 1], lambda x: [0.5, 0.5])
    with caplog.at_level("WARNING"):
        got = inter_inconsistency(ds.features, ds, clf)
    assert got.tolist() == [1.0]
    assert "maximal inter-class" in caplog.text


def test_inter_zero_norm_embedding_scores_maximal(caplog):
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0]], [0, 0])
    clf = StubClassifier([0, 1], lambda x: [0.75, 0.25])
    with caplog.at_level("WARNING"):
        got = inter_inconsistency(ds.features, ds, clf)
    assert got.tolist() == [1.0, 0.25]


def test_inter_rejects_confidences_not_summing_to_one():
    ds = make_dataset([[1.0, 0.0]], [0])
    clf = StubClassifier([0, 1], lambda x: [0.3, 0.3])
    with pytest.raises(InternalError, match="not a probability vector"):
        inter_inconsistency(ds.features, ds, clf)


def test_inter_rejects_masked_min_disagreement():
    # sums to 1 but has a negative entry: caught by the non-negativity check
    ds = make_dataset([[1.0, 0.0]], [0])
    clf = StubClassifier([0, 1], lambda x: [-0.5, 1.5])
    with pytest.raises(InternalError, match=r"not a probability vector .*min -0\.5"):
        inter_inconsistency(ds.features, ds, clf)


def test_inter_names_the_first_non_probability_row_of_a_later_block():
    n = _SIZES[1]
    ds = make_dataset(np.column_stack([np.arange(n), np.ones(n)]), [0] * n)
    outputs = {_SCORE_BLOCK + 7: [0.25, 0.5], _SCORE_BLOCK + 9: [-0.5, 1.5]}
    clf = StubClassifier([0, 1], lambda x: outputs.get(int(x[0]), [0.5, 0.5]))
    with pytest.raises(InternalError, match=re.escape(
            "not a probability vector (sum 0.75, min 0.25)")):
        inter_inconsistency(ds.features, ds, clf)


@pytest.mark.parametrize("row", [0, _SCORE_BLOCK + 5], ids=["first-block", "later-block"])
@pytest.mark.parametrize("nan", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan]])
def test_inter_rejects_a_nan_probability_row(row, nan):
    """Every comparison with NaN is false, so the check is written to fail it."""
    n = _SIZES[1]
    ds = make_dataset(np.column_stack([np.arange(n), np.ones(n)]), [0] * n)
    clf = StubClassifier([0, 1], lambda x: nan if int(x[0]) == row else [0.5, 0.5])
    with pytest.raises(InternalError, match=re.escape("not a probability vector (sum nan, min")):
        inter_inconsistency(ds.features, ds, clf)


@pytest.mark.parametrize("output", [[1.0], [0.2, 0.3, 0.5]])
def test_inter_rejects_an_output_of_the_wrong_length(output):
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    clf = StubClassifier([0, 1], lambda x: output)
    with pytest.raises(InternalError, match=f"output has {len(output)} entries, expected 2"):
        inter_inconsistency(ds.features, ds, clf)


def test_inter_reads_the_column_of_each_class_id_in_the_classifier_order():
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]], [0, 1, 2, 2],
                      class_count=3)
    clf = StubClassifier([2, 0, 1], lambda x: [0.5, 0.25, 0.25] if x[0] == 1.0 else
                         [0.125, 0.375, 0.5])
    got = inter_inconsistency(ds.features, ds, clf)
    assert got.tolist() == [0.75, 0.5, 0.5, 0.875]


def test_inter_matches_brute_force():
    rng = np.random.default_rng(7)
    n, dim, class_count = 25, 3, 4
    feats = rng.standard_normal((n, dim))
    observed = rng.integers(0, class_count, size=n).tolist()
    weight = rng.standard_normal((class_count, dim))
    bias = rng.standard_normal(class_count)
    model = identity_model(
        dim,
        loss_cfg=CEConfig(class_count=class_count),
        classifier=ClassifierParams(weight=weight, bias=bias),
    )
    ds = make_dataset(feats, observed, class_count=class_count)
    got = inter_inconsistency(ds.features, ds, ParametricClassifier(model))

    probs = []
    for row in feats:
        logits = [sum(weight[c][j] * row[j] for j in range(dim)) + bias[c]
                  for c in range(class_count)]
        top = max(logits)
        exps = [math.exp(z - top) for z in logits]
        probs.append([v / sum(exps) for v in exps])
    ref = brute_inter(probs, observed, list(range(class_count)))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert all(0.0 <= s <= 1.0 for s in got)


# ----------------------------------------------------------------------
# ranking and selection


def _rank(values, q):
    """Rank scores given for utterances 0..n-1, in that order."""
    return rank_and_select(np.asarray(values, dtype=np.float64), np.arange(len(values)), q)


def test_rank_and_select_takes_ceil_of_fraction():
    got = _rank([0.1, 0.9, 0.3, 0.8, 0.2, 0.7, 0.4], q=50.0)
    assert got.predicted_noisy.dtype == np.int64
    assert got.predicted_noisy.tolist() == [1, 3, 5, 6]  # ceil(3.5) = 4 largest, sorted
    assert got.q_used == 50.0
    assert got.selected_count == 4


def test_rank_and_select_breaks_ties_toward_small_ids():
    got = _rank([0.5, 0.5, 0.5, 0.5, 0.5], q=40.0)
    assert got.predicted_noisy.tolist() == [0, 1]
    # the tie rule follows utt_id, not dataset position
    reordered = rank_and_select(np.full(5, 0.5), np.array([9, 4, 7, 1, 3]), q=40.0)
    assert reordered.predicted_noisy.tolist() == [1, 3]


def test_rank_and_select_q_zero_is_empty():
    got = _rank([0.1, 0.2], q=0.0)
    assert got.predicted_noisy.dtype == np.int64 and got.predicted_noisy.tolist() == []
    assert got.selected_count == 0
    assert got.precision is None and got.recall is None


def test_rank_and_select_q_hundred_takes_everything():
    got = _rank([0.1, 0.2, 0.3], q=100.0)
    assert got.predicted_noisy.tolist() == [0, 1, 2]


def test_rank_and_select_no_float_round_up_on_exact_multiples():
    # 0.1 * 1000 / 100 evaluates to just above 1.0 in floats; the count
    # must still be the mathematical ceiling, 1.
    got = _rank(np.linspace(0.0, 1.0, 1000), q=0.1)
    assert got.predicted_noisy.tolist() == [999]


def test_rank_and_select_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(8)
    values = rng.permutation(np.linspace(0.0, 1.0, 60)).tolist()
    base = _rank(values, q=25.0)
    warped = _rank([2.0 * v + 1.0 for v in values], q=25.0)
    assert np.array_equal(base.predicted_noisy, warped.predicted_noisy)


@pytest.mark.parametrize("q", [5.0, 12.5, 33.0, 50.0, 99.0, 100.0])
def test_rank_and_select_matches_brute_force(q):
    rng = np.random.default_rng(int(q * 10))
    values = np.round(rng.random(37), 2).tolist()  # duplicates likely
    got = _rank(values, q=q)
    assert got.predicted_noisy.tolist() == sorted(brute_top_q_percent(range(37), values, q))


# ----------------------------------------------------------------------
# precision / recall


def test_detection_precision_counts_hits():
    ds = make_dataset(np.eye(6), [0, 1, 0, 1, 0, 1],
                      true_classes=[0, 0, 1, 1, 0, 0])  # noisy: 1, 2, 5
    result = DetectionResult(predicted_noisy=np.array([0, 1, 2]), q_used=50.0)
    got = detection_precision(result, ds)
    assert got.precision == pytest.approx(2 / 3)
    assert got.recall == pytest.approx(2 / 3)
    assert got.predicted_noisy.tolist() == [0, 1, 2]


def test_detection_precision_refuses_a_set():
    # np.isin treats a set as one object and would count no hits
    ds = make_dataset(np.eye(2), [0, 1], true_classes=[1, 1])
    with pytest.raises(TypeError):
        detection_precision(DetectionResult(predicted_noisy={0}, q_used=50.0), ds)


def test_detection_precision_none_when_undefined():
    clean = make_dataset(np.eye(3), [0, 1, 0])
    empty = detection_precision(
        DetectionResult(predicted_noisy=np.empty(0, dtype=np.int64), q_used=0.0), clean)
    assert empty.precision is None
    assert empty.recall is None  # no noisy utterances either

    noisy_ds = make_dataset(np.eye(3), [0, 1, 0], true_classes=[0, 0, 0])
    got = detection_precision(DetectionResult(predicted_noisy=np.array([0]), q_used=33.0),
                              noisy_ds)
    assert got.precision == 0.0
    assert got.recall == 0.0


def test_detection_precision_matches_brute_force():
    rng = np.random.default_rng(9)
    observed = rng.integers(0, 3, size=20).tolist()
    true = [(c + 1) % 3 if rng.random() < 0.4 else c for c in observed]
    ds = make_dataset(rng.standard_normal((20, 2)), observed, true_classes=true)
    predicted = np.sort(rng.choice(20, size=8, replace=False))
    got = detection_precision(DetectionResult(predicted_noisy=predicted, q_used=40.0), ds)
    ref_p, ref_r = brute_precision_recall(predicted.tolist(), ds.utt_id[ds.is_noisy].tolist())
    assert got.precision == pytest.approx(ref_p)
    assert got.recall == pytest.approx(ref_r)


# ----------------------------------------------------------------------
# histogram export


def test_histogram_right_closed_bins():
    ds = make_dataset(np.eye(3), [0, 0, 0], true_classes=[0, 0, 1])
    rows = export_score_histogram(np.array([0.0, 1.0, 2.0]), ds, bins=2)
    assert rows == [(0.0, 0.5, 2, 0), (0.5, 1.0, 0, 1)]


def test_histogram_degenerate_scores_single_bin(caplog):
    ds = make_dataset(np.eye(3), [0, 0, 0], true_classes=[0, 1, 1])
    with caplog.at_level("WARNING"):
        rows = export_score_histogram(np.full(3, 0.4), ds, bins=4)
    assert rows == [(0.0, 1.0, 1, 2)]
    assert "identical" in caplog.text


def test_histogram_matches_brute_force():
    rng = np.random.default_rng(10)
    n, bins = 80, 7
    observed = [0] * n
    true = [0 if rng.random() < 0.5 else 1 for _ in range(n)]
    ds = make_dataset(rng.standard_normal((n, 2)), observed, true_classes=true,
                      class_count=2)
    values = rng.random(n).tolist()
    rows = export_score_histogram(np.asarray(values), ds, bins=bins)
    flags = ds.is_noisy.tolist()
    ref = brute_histogram(values, flags, bins)
    assert len(rows) == bins
    for got_row, ref_row in zip(rows, ref):
        assert got_row[0] == pytest.approx(ref_row[0])
        assert got_row[1] == pytest.approx(ref_row[1])
        assert got_row[2:] == ref_row[2:]
    assert sum(r[2] + r[3] for r in rows) == n


# ----------------------------------------------------------------------
# artifact writers


def test_write_scores_csv_sorted_and_exact(tmp_path):
    # dataset order is utt_id 1 (noisy), then utt_id 0 (clean)
    ds = make_dataset(np.eye(2), [0, 0], true_classes=[0, 1]).subset([1, 0])
    path = tmp_path / "scores.csv"
    write_scores_csv(np.array([0.1, 2.0 / 3.0]), ds, METHOD_INTER, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "utt_id,method,score,is_noisy_truth"
    assert lines[1] == "0,inter,%s,false" % format(2.0 / 3.0, ".17g")
    assert lines[2] == "1,inter,%s,true" % format(0.1, ".17g")


def test_write_detection_json_fields(tmp_path):
    result = DetectionResult(predicted_noisy=np.array([1, 3, 5]), q_used=30.0,
                             precision=2 / 3, recall=0.5)
    path = tmp_path / "detection.json"
    write_detection_json(result, method=METHOD_INTRA, seed=4,
                         config_digest="abc123", path=path)
    payload = json.loads(path.read_text())
    assert payload["method"] == "intra"
    assert payload["q"] == 30.0
    assert payload["selected_count"] == 3
    assert payload["predicted_noisy"] == [1, 3, 5]
    assert payload["precision"] == pytest.approx(2 / 3)
    assert payload["seed"] == 4
    assert payload["config_digest"] == "abc123"


def _write_detection(path, ids=(1, 3, 5), q=30.0, precision=2 / 3, recall=0.5,
                     method=METHOD_INTRA, digest="abc123"):
    result = DetectionResult(np.array(ids, dtype=np.int64), q, precision, recall)
    write_detection_json(result, method=method, seed=4, config_digest=digest, path=path)
    return path


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=5), st.floats(0, 100),
       st.none() | st.floats(0, 1), st.none() | st.floats(0, 1),
       st.sampled_from([METHOD_INTRA, METHOD_INTER]), st.text(max_size=8))
@example([], 0.0, None, None, METHOD_INTER, "")
@example([-2**63, 2**63 - 1], 100.0, 0.0, 1.0, METHOD_INTRA, "abc123")
def test_load_detection_reads_back_what_write_detection_json_wrote(tmp_path_factory, ids, q,
                                                                   precision, recall, method,
                                                                   digest):
    path = _write_detection(tmp_path_factory.mktemp("det") / "detection.json", sorted(ids), q,
                            precision, recall, method, digest)
    got_method, got, got_digest = load_detection(path)
    assert (got_method, got_digest) == (method, digest)
    assert got.predicted_noisy.dtype == np.int64
    assert got.predicted_noisy.tolist() == sorted(ids)
    assert (got.q_used, got.precision, got.recall) == (q, precision, recall)


def test_load_detection_takes_repeated_ids_and_ids_of_no_utterance(tmp_path):
    # the ids are applied by ``remove_predicted``, which removes a repeat
    # once and ignores an id the dataset does not hold
    path = _write_detection(tmp_path / "detection.json", ids=[7, 7, 2**63 - 1, -2**63])
    assert load_detection(path)[1].predicted_noisy.tolist() == [7, 7, 2**63 - 1, -2**63]


@pytest.mark.parametrize("edit,message", [
    (lambda d: [d], "detection must be a JSON object"),
    (lambda d: {**d, "method": "x"},
     "detection.method must be one of ['intra', 'inter'], got 'x'"),
    (lambda d: {**d, "method": None}, "detection.method must be a string, got None"),
    (lambda d: {k: v for k, v in d.items() if k != "predicted_noisy"},
     "detection.predicted_noisy is missing"),
    (lambda d: {**d, "predicted_noisy": "1,3"},
     "detection.predicted_noisy must be a list, got '1,3'"),
    (lambda d: {**d, "predicted_noisy": [1, 3.0]},
     "detection.predicted_noisy must list 64-bit integers, got 3.0"),
    (lambda d: {**d, "predicted_noisy": [True]},
     "detection.predicted_noisy must list 64-bit integers, got True"),
    (lambda d: {**d, "predicted_noisy": [2**63]},
     f"detection.predicted_noisy must list 64-bit integers, got {2**63}"),
    (lambda d: {**d, "predicted_noisy": [-2**63 - 1]},
     f"detection.predicted_noisy must list 64-bit integers, got {-2**63 - 1}"),
    (lambda d: {**d, "precision": 1.5}, "detection.precision must be in [0, 1], got 1.5"),
    (lambda d: {**d, "recall": float("nan")}, "detection.recall must be a finite number, got nan"),
    (lambda d: {**d, "q": None}, "detection.q must be a finite number, got None"),
    (lambda d: {**d, "q": -1}, "detection.q must be in [0, 100], got -1"),
    (lambda d: {**d, "config_digest": 5}, "detection.config_digest must be a string, got 5"),
])
def test_load_detection_refuses_a_malformed_file_naming_it(tmp_path, edit, message):
    path = _write_detection(tmp_path / "detection.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(LabelNoiseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_detection(path)


def test_load_detection_names_a_missing_or_undecodable_file(tmp_path):
    path = tmp_path / "detection.json"
    where = re.escape(str(path))
    with pytest.raises(ConfigurationError, match=f"^detection file not found: {where}$"):
        load_detection(path)
    path.write_bytes(b'{"method": "\xff"}')
    with pytest.raises(LabelNoiseError, match=f"^malformed detection file {where}: "):
        load_detection(path)


def _load_detection_or_refuse(path):
    """load_detection's triple, or None when it refuses the file with a
    LabelNoiseError naming it; any other exception fails the test. A
    detection that loads writes out and reads back as itself."""
    try:
        method, result, digest = load_detection(path)
    except LabelNoiseError as exc:
        assert str(path) in str(exc)
        return None
    again = path.with_name("again.json")
    write_detection_json(result, method, 0, digest, again)
    method2, result2, digest2 = load_detection(again)
    assert (method2, digest2, result2.q_used, result2.precision, result2.recall) == (
        method, digest, result.q_used, result.precision, result.recall)
    assert result2.predicted_noisy.tolist() == result.predicted_noisy.tolist()
    return method, result, digest


@settings(max_examples=300, deadline=None)
@given(BYTE_EDITS)
def test_load_detection_takes_any_byte_edit_of_a_good_file(tmp_path_factory, edits):
    path = _write_detection(tmp_path_factory.mktemp("det") / "detection.json")
    path.write_bytes(edit_bytes(path.read_bytes(), edits))
    got = _load_detection_or_refuse(path)
    if not edits:
        assert got[0] == METHOD_INTRA and got[1].predicted_noisy.tolist() == [1, 3, 5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), JSON_VALUES), min_size=1, max_size=3))
def test_load_detection_takes_any_value_in_any_place(tmp_path_factory, edits):
    """Each edit replaces one value of the file's JSON, the root included."""
    path = _write_detection(tmp_path_factory.mktemp("det") / "detection.json")
    path.write_text(json.dumps(replace_values(json.loads(path.read_text()), edits)),
                    encoding="ascii")
    _load_detection_or_refuse(path)


def test_write_histogram_csv_format(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv([(0.0, 0.5, 2, 0), (0.5, 1.0, 0, 1)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,clean_count,noisy_count"
    assert lines[1] == "0,0.5,2,0"
    assert lines[2] == "0.5,1,0,1"
