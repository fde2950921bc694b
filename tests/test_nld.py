"""Inconsistency scoring, ranking, and detection-quality bookkeeping."""

import json
import math

import numpy as np
import pytest

from conftest import identity_model, make_dataset
from labelnoise.errors import ConfigurationError, DomainError, InternalError
from labelnoise.losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    classify_confidence,
)
from labelnoise.nld import (
    METHOD_INTER,
    METHOD_INTRA,
    CentroidBank,
    CentroidClassifier,
    DetectionResult,
    ParametricClassifier,
    build_centroid_classifier,
    compute_centroids,
    detection_precision,
    embed_dataset,
    export_score_histogram,
    inter_inconsistency,
    intra_inconsistency,
    make_inter_classifier,
    rank_and_select,
    write_detection_json,
    write_histogram_csv,
    write_scores_csv,
)
from oracles import (
    brute_centroids,
    brute_histogram,
    brute_inter,
    brute_intra,
    brute_precision_recall,
    brute_top_q_percent,
    cosine_similarity,
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
    bank = compute_centroids(identity_model(2), ds)
    np.testing.assert_array_equal(bank.centroids[0], [0.5, 0.5])
    assert bank.counts == {0: 2}
    assert bank.embed_dim == 2
    assert bank.skipped_classes == []


def test_compute_centroids_skips_empty_classes(caplog):
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 0], class_count=3)
    with caplog.at_level("WARNING"):
        bank = compute_centroids(identity_model(2), ds)
    assert bank.skipped_classes == [1, 2]
    assert 1 not in bank.centroids
    assert "empty class" in caplog.text


def test_compute_centroids_accepts_precomputed_embeddings():
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0, 1, 0])
    model = identity_model(2)
    emb = embed_dataset(model, ds)
    a = compute_centroids(model, ds)
    b = compute_centroids(model, ds, embeddings=emb)
    for c in a.centroids:
        np.testing.assert_array_equal(a.centroids[c], b.centroids[c])


def test_compute_centroids_matches_brute_force():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((40, 5))
    observed = rng.integers(0, 6, size=40).tolist()
    ds = make_dataset(feats, observed, class_count=6)
    bank = compute_centroids(identity_model(5), ds)
    ref, ref_counts = brute_centroids(feats.tolist(), observed)
    assert bank.counts == ref_counts
    for c, row in ref.items():
        np.testing.assert_allclose(bank.centroids[c], row, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# intra-class inconsistency


def test_intra_aligned_orthogonal_antipodal():
    ds = make_dataset([[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]], [0, 0, 0])
    bank = CentroidBank(centroids={0: np.array([1.0, 0.0])}, counts={0: 3},
                        embed_dim=2, skipped_classes=[])
    got = intra_inconsistency(identity_model(2), ds, bank)
    assert got.dtype == np.float64
    assert got.tolist() == [0.0, 1.0, 2.0]


def test_intra_zero_norm_embedding_scores_maximal(caplog):
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0]], [0, 0])
    bank = CentroidBank(centroids={0: np.array([1.0, 0.0])}, counts={0: 2},
                        embed_dim=2, skipped_classes=[])
    with caplog.at_level("WARNING"):
        got = intra_inconsistency(identity_model(2), ds, bank)
    assert got.tolist() == [2.0, 0.0]
    assert "degenerate" in caplog.text


def test_degenerate_scores_log_one_warning_with_count_and_first_ids(caplog):
    ds = make_dataset(np.zeros((8, 2)), [0] * 8)
    bank = CentroidBank(centroids={0: np.array([1.0, 0.0])}, counts={0: 8},
                        embed_dim=2, skipped_classes=[])
    with caplog.at_level("WARNING"):
        got = intra_inconsistency(identity_model(2), ds, bank)
    assert got.tolist() == [2.0] * 8
    assert [r.getMessage() for r in caplog.records] == [
        "8 utterance(s): degenerate embedding/centroid, assigning maximal intra-class score "
        "(utt_id 0, 1, 2, 3, 4, ...)"]


def test_intra_missing_class_and_zero_centroid_score_maximal(caplog):
    ds = make_dataset([[1.0, 0.0], [1.0, 0.0]], [0, 1])
    bank = CentroidBank(centroids={1: np.zeros(2)}, counts={1: 1},
                        embed_dim=2, skipped_classes=[0])
    with caplog.at_level("WARNING"):
        got = intra_inconsistency(identity_model(2), ds, bank)
    assert got.tolist() == [2.0, 2.0]


def test_intra_matches_brute_force():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((30, 4))
    observed = rng.integers(0, 4, size=30).tolist()
    ds = make_dataset(feats, observed, class_count=4)
    model = identity_model(4)
    bank = compute_centroids(model, ds)
    got = intra_inconsistency(model, ds, bank)
    ref = brute_intra(feats.tolist(), observed,
                      {c: v.tolist() for c, v in bank.centroids.items()})
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert all(0.0 <= s <= 2.0 for s in got)


def test_intra_has_the_bits_of_per_row_cosine():
    # the vectorized scores reproduce the one-row-at-a-time cosine exactly
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((200, 32))
    observed = rng.integers(0, 7, size=200).tolist()
    ds = make_dataset(feats, observed, class_count=7)
    model = identity_model(32)
    bank = compute_centroids(model, ds)
    got = intra_inconsistency(model, ds, bank)
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
        assert got.tobytes() == classify_confidence(x, params, loss_cfg).tobytes()


def test_parametric_classifier_rejects_zero_weight_row_when_built():
    params = ClassifierParams(weight=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError, match="weight row 1"):
        ParametricClassifier(identity_model(2, loss_cfg=AAMConfig(2, 30.0, 0.1),
                                            classifier=params))


def test_parametric_classifier_rejects_ge2e():
    model = identity_model(2, loss_cfg=GE2EConfig(), classifier=None)
    with pytest.raises(ConfigurationError, match="centroid classifier"):
        ParametricClassifier(model)


def test_centroid_classifier_softmax_of_cosines():
    clf = CentroidClassifier(class_ids=[0, 1],
                             directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             temperature=1.0)
    p = clf.confidences(np.array([3.0, 0.0]))
    e = math.e
    np.testing.assert_allclose(p, [e / (e + 1.0), 1.0 / (e + 1.0)], rtol=0, atol=1e-12)


def test_centroid_classifier_huge_temperature_is_uniform():
    clf = CentroidClassifier(class_ids=[0, 1, 2],
                             directions=np.eye(3),
                             temperature=1e9)
    p = clf.confidences(np.array([1.0, 0.5, -0.5]))
    np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-6)


def test_centroid_classifier_zero_norm_input_rejected():
    clf = CentroidClassifier(class_ids=[0], directions=np.array([[1.0, 0.0]]),
                             temperature=1.0)
    with pytest.raises(ConfigurationError, match="zero-norm"):
        clf.confidences(np.zeros(2))


def test_build_centroid_classifier_normalizes_directions():
    bank = CentroidBank(centroids={0: np.array([2.0, 0.0]), 1: np.array([0.0, 5.0])},
                        counts={0: 1, 1: 1}, embed_dim=2, skipped_classes=[])
    clf = build_centroid_classifier(bank, temperature=1.0)
    assert clf.class_ids == [0, 1]
    p = clf.confidences(np.array([1.0, 0.0]))
    e = math.e
    np.testing.assert_allclose(p, [e / (e + 1.0), 1.0 / (e + 1.0)], rtol=0, atol=1e-12)


def test_build_centroid_classifier_excludes_zero_norm_centroids(caplog):
    bank = CentroidBank(centroids={0: np.zeros(2), 1: np.array([0.0, 1.0])},
                        counts={0: 1, 1: 1}, embed_dim=2, skipped_classes=[])
    with caplog.at_level("WARNING"):
        clf = build_centroid_classifier(bank, temperature=1.0)
    assert clf.class_ids == [1]
    assert "zero-norm centroid" in caplog.text


def test_build_centroid_classifier_rejects_degenerate_banks():
    empty = CentroidBank(centroids={}, counts={}, embed_dim=2, skipped_classes=[])
    with pytest.raises(ConfigurationError, match="empty"):
        build_centroid_classifier(empty)
    all_zero = CentroidBank(centroids={0: np.zeros(2)}, counts={0: 1},
                            embed_dim=2, skipped_classes=[])
    with pytest.raises(ConfigurationError, match="zero norm"):
        build_centroid_classifier(all_zero)
    ok = CentroidBank(centroids={0: np.array([1.0, 0.0])}, counts={0: 1},
                      embed_dim=2, skipped_classes=[])
    with pytest.raises(ConfigurationError, match="temperature"):
        build_centroid_classifier(ok, temperature=0.0)


def test_make_inter_classifier_picks_route_by_loss():
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    ce_model = identity_model(2)
    assert isinstance(make_inter_classifier(ce_model, ds), ParametricClassifier)
    ge2e_model = identity_model(2, loss_cfg=GE2EConfig())
    clf = make_inter_classifier(ge2e_model, ds)
    assert isinstance(clf, CentroidClassifier)
    # default temperature 0.1 sharpens the cosine gap [1, 0] to logits [10, 0]
    p = clf.confidences(np.array([1.0, 0.0]))
    np.testing.assert_allclose(p[0], 1.0 / (1.0 + math.exp(-10.0)), rtol=0, atol=1e-12)


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
    got = inter_inconsistency(model, ds, ParametricClassifier(model))
    assert got.shape == (1,) and got.dtype == np.float64
    assert abs(got[0] - 0.3) <= 1e-12


def test_inter_uniform_confidence_scores_one_minus_reciprocal():
    ds = make_dataset([[1.0, 2.0, 3.0, 4.0]], [2], class_count=5)
    model = identity_model(
        4,
        loss_cfg=CEConfig(class_count=5),
        classifier=ClassifierParams(weight=np.zeros((5, 4)), bias=np.zeros(5)),
    )
    got = inter_inconsistency(model, ds, ParametricClassifier(model))
    assert abs(got[0] - (1.0 - 1.0 / 5.0)) <= 1e-12


def test_inter_missing_class_scores_maximal(caplog):
    ds = make_dataset([[1.0, 0.0]], [2], class_count=3)
    clf = StubClassifier([0, 1], lambda x: [0.5, 0.5])
    with caplog.at_level("WARNING"):
        got = inter_inconsistency(identity_model(2), ds, clf)
    assert got.tolist() == [1.0]
    assert "maximal inter-class" in caplog.text


def test_inter_zero_norm_embedding_scores_maximal(caplog):
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0]], [0, 0])
    clf = StubClassifier([0, 1], lambda x: [0.75, 0.25])
    with caplog.at_level("WARNING"):
        got = inter_inconsistency(identity_model(2), ds, clf)
    assert got.tolist() == [1.0, 0.25]


def test_inter_rejects_confidences_not_summing_to_one():
    ds = make_dataset([[1.0, 0.0]], [0])
    clf = StubClassifier([0, 1], lambda x: [0.3, 0.3])
    with pytest.raises(InternalError, match="not a probability vector"):
        inter_inconsistency(identity_model(2), ds, clf)


def test_inter_rejects_masked_min_disagreement():
    # sums to 1 but has a negative entry: caught by the non-negativity check
    ds = make_dataset([[1.0, 0.0]], [0])
    clf = StubClassifier([0, 1], lambda x: [-0.5, 1.5])
    with pytest.raises(InternalError, match=r"not a probability vector .*min -0\.5"):
        inter_inconsistency(identity_model(2), ds, clf)


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
    got = inter_inconsistency(model, ds, ParametricClassifier(model))

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
    assert got.predicted_noisy == {1, 3, 5, 6}  # ceil(3.5) = 4 largest
    assert got.q_used == 50.0
    assert got.selected_count == 4


def test_rank_and_select_breaks_ties_toward_small_ids():
    got = _rank([0.5, 0.5, 0.5, 0.5, 0.5], q=40.0)
    assert got.predicted_noisy == {0, 1}
    # the tie rule follows utt_id, not dataset position
    reordered = rank_and_select(np.full(5, 0.5), np.array([9, 4, 7, 1, 3]), q=40.0)
    assert reordered.predicted_noisy == {1, 3}


def test_rank_and_select_q_zero_is_empty():
    got = _rank([0.1, 0.2], q=0.0)
    assert got.predicted_noisy == set()
    assert got.precision is None and got.recall is None


def test_rank_and_select_q_hundred_takes_everything():
    got = _rank([0.1, 0.2, 0.3], q=100.0)
    assert got.predicted_noisy == {0, 1, 2}


def test_rank_and_select_no_float_round_up_on_exact_multiples():
    # 0.1 * 1000 / 100 evaluates to just above 1.0 in floats; the count
    # must still be the mathematical ceiling, 1.
    got = _rank(np.linspace(0.0, 1.0, 1000), q=0.1)
    assert got.predicted_noisy == {999}


def test_rank_and_select_validation():
    with pytest.raises(ConfigurationError, match="q must be"):
        _rank([0.1, 0.2], q=-1.0)
    with pytest.raises(ConfigurationError, match="q must be"):
        _rank([0.1, 0.2], q=100.5)
    with pytest.raises(ConfigurationError, match="one score per utterance"):
        rank_and_select(np.array([0.1, 0.2]), np.arange(3), q=50.0)


def test_rank_and_select_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(8)
    values = rng.permutation(np.linspace(0.0, 1.0, 60)).tolist()
    base = _rank(values, q=25.0)
    warped = _rank([2.0 * v + 1.0 for v in values], q=25.0)
    assert base.predicted_noisy == warped.predicted_noisy


@pytest.mark.parametrize("q", [5.0, 12.5, 33.0, 50.0, 99.0, 100.0])
def test_rank_and_select_matches_brute_force(q):
    rng = np.random.default_rng(int(q * 10))
    values = np.round(rng.random(37), 2).tolist()  # duplicates likely
    got = _rank(values, q=q)
    assert got.predicted_noisy == brute_top_q_percent(range(37), values, q)


# ----------------------------------------------------------------------
# precision / recall


def test_detection_precision_counts_hits():
    ds = make_dataset(np.eye(6), [0, 1, 0, 1, 0, 1],
                      true_classes=[0, 0, 1, 1, 0, 0])  # noisy: 1, 2, 5
    result = DetectionResult(predicted_noisy={0, 1, 2}, q_used=50.0)
    got = detection_precision(result, ds)
    assert got.precision == pytest.approx(2 / 3)
    assert got.recall == pytest.approx(2 / 3)
    assert got.predicted_noisy == {0, 1, 2}


def test_detection_precision_none_when_undefined():
    clean = make_dataset(np.eye(3), [0, 1, 0])
    empty = detection_precision(DetectionResult(predicted_noisy=set(), q_used=0.0), clean)
    assert empty.precision is None
    assert empty.recall is None  # no noisy utterances either

    noisy_ds = make_dataset(np.eye(3), [0, 1, 0], true_classes=[0, 0, 0])
    got = detection_precision(DetectionResult(predicted_noisy={0}, q_used=33.0), noisy_ds)
    assert got.precision == 0.0
    assert got.recall == 0.0


def test_detection_precision_matches_brute_force():
    rng = np.random.default_rng(9)
    observed = rng.integers(0, 3, size=20).tolist()
    true = [(c + 1) % 3 if rng.random() < 0.4 else c for c in observed]
    ds = make_dataset(rng.standard_normal((20, 2)), observed, true_classes=true)
    predicted = set(rng.choice(20, size=8, replace=False).tolist())
    got = detection_precision(DetectionResult(predicted_noisy=predicted, q_used=40.0), ds)
    ref_p, ref_r = brute_precision_recall(predicted, ds.noisy_ids())
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


def test_histogram_needs_two_bins():
    ds = make_dataset(np.eye(2), [0, 0])
    with pytest.raises(ConfigurationError, match="bins"):
        export_score_histogram(np.array([0.1, 0.2]), ds, bins=1)


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
    result = DetectionResult(predicted_noisy={5, 1, 3}, q_used=30.0,
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


def test_write_histogram_csv_format(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv([(0.0, 0.5, 2, 0), (0.5, 1.0, 0, 1)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,clean_count,noisy_count"
    assert lines[1] == "0,0.5,2,0"
    assert lines[2] == "0.5,1,0,1"
