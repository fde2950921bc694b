"""Trial generation, EER computation, and the remove-and-retrain loop."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import labelnoise
from labelnoise import evaluation

from conftest import (
    BYTE_EDITS,
    JSON_VALUES,
    TINY_DATASET,
    WIDE_DATASET,
    edit_bytes,
    identity_model,
    make_dataset,
    replace_values,
)
from labelnoise.cli import main
from labelnoise.embedder import TrainConfig, embed_batch, model_to_dict, train
from labelnoise.errors import ConfigurationError, DomainError, LabelNoiseError, ParseError
from labelnoise.evaluation import (
    EERResult,
    Trials,
    _distinct_sorted,
    _first_indices,
    _same_class_pairs,
    compute_eer,
    generate_trials,
    load_eer,
    remove_predicted,
    retrain_after_removal,
    score_trials,
    write_eer_json,
    write_retrain_json,
    write_trials_csv,
)
from labelnoise.jsonutil import dump_json17
from labelnoise.losses import CEConfig, GE2EConfig
from labelnoise.synthdata import Dataset, generate_dataset, load_dataset, save_dataset
from oracles import (
    brute_eer_midpoint,
    cosine_similarity,
    evaluate_model,
    per_class_target_pairs,
    read_trials_csv,
    scalar_generate_trials,
    same_trials,
    scores_by_id,
    trials_in,
)


# ----------------------------------------------------------------------
# compute_eer


# Repeated values, both zeros among them, in arrays long enough that
# numpy's sort no longer keeps equal values in their input order.
EER_SCORES = st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(allow_nan=False),
                      min_size=1, max_size=200)


@settings(max_examples=300, deadline=None)
@given(EER_SCORES)
@example([0.0] * 8 + [-0.0] * 8)
@example([-0.0] * 8 + [0.0] * 8)
def test_eer_thresholds_are_the_np_unique_thresholds_bit_for_bit(values):
    scores = np.array(values)
    assert _distinct_sorted(scores).tobytes() == np.unique(scores).tobytes()


def test_loading_a_dataset_and_computing_an_eer_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, 12-17 ms per process;
    # the eval stage loads a dataset, draws and writes trials and takes an EER
    path = tmp_path / "heldout.dataset"
    save_dataset(generate_dataset(3, 4, 2, 3, 0.5, seed=1, mix_seed=1), path)
    code = ("import sys; import numpy as np\n"
            "from labelnoise.evaluation import compute_eer, generate_trials, write_trials_csv\n"
            "from labelnoise.synthdata import load_dataset\n"
            "ds = load_dataset(sys.argv[1])\n"
            "write_trials_csv(generate_trials(ds, 3, seed=0), sys.argv[2])\n"
            "compute_eer(np.array([0.1, 0.4, 0.4, 0.8]), np.array([False, True, False, True]))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(labelnoise.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "trials.csv")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_eer_perfect_separation_is_exactly_zero():
    got = compute_eer(np.array([0.9, 0.8, 0.1, 0.2]),
                      np.array([True, True, False, False]))
    assert got.eer == 0.0
    assert got.threshold_at_eer == 0.8
    assert got.trial_count == 4


def test_eer_fully_interleaved_is_half():
    got = compute_eer(np.array([0.8, 0.3, 0.7, 0.2]),
                      np.array([True, True, False, False]))
    assert got.eer == 0.5
    assert got.threshold_at_eer == 0.7


def test_eer_inverted_scorer_reported_unclamped(caplog):
    with caplog.at_level("WARNING"):
        got = compute_eer(np.array([0.1, 0.2, 0.8, 0.9]),
                          np.array([True, True, False, False]))
    assert got.eer == 1.0
    assert "exceeds 0.5" in caplog.text


def test_eer_interpolates_between_operating_points():
    # FAR-FRR passes 0 strictly between thresholds 0.4 and 0.5
    got = compute_eer(np.array([0.3, 0.5, 0.9, 0.1, 0.4]),
                      np.array([True, True, True, False, False]))
    assert got.eer == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert got.threshold_at_eer == pytest.approx(13.0 / 30.0, abs=1e-12)


def test_eer_validation():
    with pytest.raises(DomainError, match="equal-length"):
        compute_eer(np.array([0.1, 0.2]), np.array([True]))
    with pytest.raises(DomainError, match="at least one"):
        compute_eer(np.array([0.1, 0.2]), np.array([True, True]))
    with pytest.raises(DomainError, match="at least one"):
        compute_eer(np.array([0.1, 0.2]), np.array([False, False]))
    with pytest.raises(DomainError, match="same score"):
        compute_eer(np.array([0.5, 0.5, 0.5]), np.array([True, False, True]))


def test_eer_matches_midpoint_search_within_step_size():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        tar = rng.normal(0.4, 0.3, size=n)
        non = rng.normal(-0.1, 0.3, size=n)
        scores = np.concatenate([tar, non])
        labels = np.concatenate([np.ones(n, bool), np.zeros(n, bool)])
        if np.unique(scores).size < 2:
            continue
        got = compute_eer(scores, labels)
        ref = brute_eer_midpoint(scores.tolist(), labels.tolist())
        assert abs(got.eer - ref) <= 1.0 / (2.0 * n), (trial, got.eer, ref)
        assert 0.0 <= got.eer <= 1.0


# ----------------------------------------------------------------------
# trial generation


def small_clean(class_count=3, per_class=4, seed=21):
    return generate_dataset(class_count, per_class, 3, 5, 0.1, seed, mix_seed=seed)


def test_generate_trials_balanced_and_well_formed():
    ds = small_clean()
    trials = generate_trials(ds, pairs_per_kind=10, seed=4)
    assert len(trials) == 20  # the benchmark counts trials scored as len(trials)
    rows = list(zip(trials.enroll_id.tolist(), trials.test_id.tolist(),
                    trials.is_target.tolist()))
    targets = [(e, t) for e, t, is_target in rows if is_target]
    nontargets = [(e, t) for e, t, is_target in rows if not is_target]
    assert len(targets) == len(nontargets) == 10

    class_of = dict(zip(ds.utt_id.tolist(), ds.observed_class.tolist()))
    for e, t in targets:
        assert class_of[e] == class_of[t]
        assert e != t
    for e, t in nontargets:
        assert class_of[e] != class_of[t]
    assert len(set(targets)) == 10
    assert len(set(nontargets)) == 10


def test_generate_trials_deterministic_in_seed():
    ds = small_clean()
    assert same_trials(generate_trials(ds, 8, seed=4), generate_trials(ds, 8, seed=4))
    assert not same_trials(generate_trials(ds, 8, seed=4), generate_trials(ds, 8, seed=5))


def test_generate_trials_rejects_noisy_dataset():
    ds = small_clean()
    ds.is_ood[0] = True
    with pytest.raises(ConfigurationError, match="clean"):
        generate_trials(ds, 2, seed=0)


def test_generate_trials_pool_exhaustion():
    tiny = generate_dataset(2, 2, 2, 3, 0.1, seed=1, mix_seed=1)  # 2 same-class pairs
    with pytest.raises(ConfigurationError, match="same-class pairs"):
        generate_trials(tiny, 3, seed=0)
    one_class = make_dataset(np.eye(4), [0, 0, 0, 0])
    with pytest.raises(ConfigurationError, match="cross-class pairs"):
        generate_trials(one_class, 1, seed=0)


def shuffled_clean(sizes, seed):
    """A clean dataset with classes of the given sizes, rows in shuffled
    order and utterance ids neither contiguous nor sorted."""
    rng = np.random.default_rng(seed)
    observed = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = len(observed)
    ids = rng.choice(10 * n + 1000, size=n, replace=False)
    return Dataset(features=np.zeros((n, 1)), utt_id=ids, true_class=observed,
                   observed_class=observed, is_ood=np.zeros(n, dtype=bool),
                   class_count=len(sizes), feature_dim=1)


def assert_matches_scalar_oracle(ds, pairs_per_kind, seed):
    ref = scalar_generate_trials(ds, pairs_per_kind, seed)
    got = generate_trials(ds, pairs_per_kind, seed)
    assert got.enroll_id.dtype == got.test_id.dtype == np.int64
    assert got.is_target.dtype == bool
    assert same_trials(got, Trials([t.enroll_utt_id for t in ref], [t.test_utt_id for t in ref],
                                   [t.is_target for t in ref]))


def assert_same_refusal(ds, pairs_per_kind, seed):
    with pytest.raises(ConfigurationError) as ref:
        scalar_generate_trials(ds, pairs_per_kind, seed)
    with pytest.raises(ConfigurationError) as got:
        generate_trials(ds, pairs_per_kind, seed)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("case", range(40))
def test_generate_trials_matches_scalar_oracle_bit_for_bit(case):
    # 2 to 20 classes of 2 to 7 members; pairs_per_kind up to the
    # same-class pool, which is the binding limit for these sizes
    rng = np.random.default_rng(case)
    sizes = rng.integers(2, 8, size=int(rng.integers(2, 21)))
    ds = shuffled_clean(sizes, seed=100 + case)
    pool = int(np.sum(sizes * (sizes - 1) // 2))
    cross = len(ds) * (len(ds) - 1) // 2 - pool
    limit = min(pool, cross)
    for k in sorted({1, 2, limit // 3, limit // 2, limit - 1, limit} - {0}):
        for seed in (0, case + 1):
            assert_matches_scalar_oracle(ds, k, seed)
    assert_same_refusal(ds, limit + 1, seed=0)


@pytest.mark.parametrize("sizes", [(5, 2), (6, 2), (7, 2), (6, 3), (7, 3)])
def test_generate_trials_matches_scalar_oracle_up_to_cross_pair_exhaustion(sizes):
    # these classes supply fewer cross-class than same-class pairs, so
    # pairs_per_kind can reach every cross pair the dataset has
    ds = shuffled_clean(np.asarray(sizes), seed=sum(sizes))
    pool = sum(p * (p - 1) // 2 for p in sizes)
    cross = len(ds) * (len(ds) - 1) // 2 - pool
    assert cross <= pool
    for k in range(1, cross + 1):
        for seed in (0, 1, 2):
            assert_matches_scalar_oracle(ds, k, seed)
    assert_same_refusal(ds, cross + 1, seed=0)


@st.composite
def ragged_clean_datasets(draw):
    """Clean datasets of classes of 1 to 9 members, many of 1 or 2, under
    ascending labels with gaps; rows shuffled, ids unsorted, some negative."""
    sizes = draw(st.lists(st.integers(1, 9) | st.sampled_from([1, 2]), min_size=1,
                          max_size=12))
    gaps = draw(st.lists(st.integers(1, 4), min_size=len(sizes), max_size=len(sizes)))
    labels = np.cumsum(gaps) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = rng.permutation(np.repeat(labels, sizes))
    n = len(observed)
    ids = rng.choice(10 * n + 1000, size=n, replace=False) - 500
    return Dataset(features=np.zeros((n, 1)), utt_id=ids, true_class=observed,
                   observed_class=observed, is_ood=np.zeros(n, dtype=bool),
                   class_count=int(labels[-1]) + 1, feature_dim=1)


@given(ragged_clean_datasets(), st.integers(1, 60), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_same_class_pool_and_trials_match_the_per_class_loops(ds, pairs_per_kind, seed):
    got = ds.utt_id[_same_class_pairs(np.argsort(ds.utt_id), ds.observed_class)]
    want = per_class_target_pairs(ds)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)
    pool = len(want[0])
    limit = min(pool, len(ds) * (len(ds) - 1) // 2 - pool)
    if pairs_per_kind <= limit:
        assert_matches_scalar_oracle(ds, pairs_per_kind, seed)
    else:
        assert_same_refusal(ds, pairs_per_kind, seed)


# Keys that repeat: a few values many times over, one value only, or any int64.
REPEATED_KEYS = (st.lists(st.integers(-3, 3), max_size=300)
                 | st.lists(st.just(2**62), min_size=1, max_size=40)
                 | st.lists(st.integers(-2**63, 2**63 - 1), max_size=50))


@given(REPEATED_KEYS)
@settings(max_examples=300, deadline=None)
def test_first_indices_are_np_unique_return_index(keys):
    keys = np.array(keys, dtype=np.int64)
    assert np.array_equal(_first_indices(keys), np.unique(keys, return_index=True)[1])


@pytest.mark.parametrize("seed", range(5))
def test_first_indices_on_the_keys_of_a_doubled_block(monkeypatch, seed):
    # one utterance outside a class of 20: a draw is cross-class about one
    # time in 11, so 2 * 20 draws cannot give the 20 cross pairs there are
    # and the block doubles, each time with the keys of every block so far
    blocks = []

    def checked(keys):
        got = _first_indices(keys)
        assert np.array_equal(got, np.unique(keys, return_index=True)[1])
        blocks.append(len(keys))
        return got

    monkeypatch.setattr(evaluation, "_first_indices", checked)
    lo, hi = evaluation._cross_class_pairs(np.array([0] * 20 + [1]), 20,
                                           np.random.default_rng(seed))
    assert len(blocks) >= 2
    assert sorted(zip(lo.tolist(), hi.tolist())) == [(r, 20) for r in range(20)]


@given(ragged_clean_datasets(), st.sampled_from([-2**62, 2**62 - 10**4, -10**4]),
       st.integers(1, 60), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_nontargets_are_in_lexsort_order_of_ids_near_the_int64_ends(ds, offset, pairs_per_kind,
                                                                     seed):
    # ids unsorted, some negative, and near +-2**62, where a key built from the
    # ids themselves, not from their ranks, would overflow
    ds = dataclasses.replace(ds, utt_id=ds.utt_id + offset)
    pool = len(per_class_target_pairs(ds)[0])
    assume(pairs_per_kind <= min(pool, len(ds) * (len(ds) - 1) // 2 - pool))
    trials = generate_trials(ds, pairs_per_kind, seed)
    enroll, test = trials.enroll_id[pairs_per_kind:], trials.test_id[pairs_per_kind:]
    assert np.array_equal(np.lexsort((test, enroll)), np.arange(pairs_per_kind))
    assert_matches_scalar_oracle(ds, pairs_per_kind, seed)


# ----------------------------------------------------------------------
# trial scoring


def test_score_trials_cosine_of_embeddings():
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 0])
    trials = trials_in(ds, [0, 0], [1, 2], [False, True])
    scores, labels, dropped = score_trials(identity_model(2), trials, ds)
    np.testing.assert_allclose(scores, [0.0, 1.0 / math.sqrt(2.0)], rtol=0, atol=1e-15)
    assert labels.tolist() == [False, True]
    assert dropped == 0


def test_score_trials_matches_per_pair_cosine():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((30, 5))
    ds = make_dataset(feats, [i % 3 for i in range(30)])
    pairs = rng.choice(30, size=(40, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    trials = trials_in(ds, pairs[:, 0], pairs[:, 1], pairs[:, 0] % 3 == pairs[:, 1] % 3)
    scores, labels, dropped = score_trials(identity_model(5), trials, ds)
    ref = [cosine_similarity(feats[a], feats[b]) for a, b in pairs]
    np.testing.assert_allclose(scores, ref, rtol=0, atol=1e-15)
    assert labels.tolist() == trials.is_target.tolist()
    assert dropped == 0


def test_score_trials_missing_utterance_rejected():
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ConfigurationError, match="absent.*first: enroll 0 at row 0, "
                                                 "test 99 at row -1$"):
        score_trials(identity_model(2), trials_in(ds, [0], [99], [False]), ds)
    # trials built without rows carry row -1 and score against no dataset
    with pytest.raises(ConfigurationError, match="first: enroll 0 at row -1, test 1 at row -1$"):
        score_trials(identity_model(2), Trials([0], [1], [False]), ds)
    # a row below 0 is outside the dataset, though numpy would wrap it onto its id
    with pytest.raises(ConfigurationError, match="first: enroll 1 at row -1, test 0 at row 0$"):
        score_trials(identity_model(2), Trials([1], [0], [False], [[-1], [0]]), ds)
    # and a row past the end is refused, not left to an IndexError
    with pytest.raises(ConfigurationError, match="first: enroll 0 at row 0, test 1 at row 2$"):
        score_trials(identity_model(2), Trials([0], [1], [False], [[0], [2]]), ds)


def test_score_trials_drops_zero_norm_embeddings(caplog):
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 0, 1])
    trials = trials_in(ds, [0, 1], [1, 2], [True, False])
    with caplog.at_level("WARNING"):
        scores, labels, dropped = score_trials(identity_model(2), trials, ds)
    assert dropped == 1
    assert scores.tolist() == [0.0]
    assert labels.tolist() == [False]
    assert "dropped 1 trial" in caplog.text


@st.composite
def featured_datasets(draw):
    """``ragged_clean_datasets`` with random features of 1 to 4 dimensions,
    some rows all zero, and a number of trials per kind it can supply."""
    ds = draw(ragged_clean_datasets())
    n, dim = len(ds), draw(st.integers(1, 4))
    pool = len(per_class_target_pairs(ds)[0])
    limit = min(pool, n * (n - 1) // 2 - pool)
    assume(limit >= 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, dim)) * (rng.random((n, 1)) < 0.9)
    featured = Dataset(features=features, utt_id=ds.utt_id, true_class=ds.true_class,
                       observed_class=ds.observed_class, is_ood=ds.is_ood,
                       class_count=ds.class_count, feature_dim=dim)
    return featured, draw(st.integers(1, limit)), draw(st.integers(0, 3))


def _first_misplaced(trials: Trials, ds: Dataset):
    """The first trial whose rows do not hold its ids in ``ds``, or None."""
    for k, rows in enumerate(trials.rows.T.tolist()):
        ids = (int(trials.enroll_id[k]), int(trials.test_id[k]))
        if any(not 0 <= r < len(ds) or int(ds.utt_id[r]) != u for r, u in zip(rows, ids)):
            return k
    return None


def assert_scores_by_row_or_refuses(model, trials: Trials, ds: Dataset):
    """``score_trials`` gives the found-by-id scores bit for bit when every
    trial's rows hold its ids in ``ds``, and otherwise refuses, naming the
    first trial whose rows do not."""
    bad = _first_misplaced(trials, ds)
    if bad is None:
        emb = embed_batch(model.embedder, ds.features, ds.utt_id, model.source)
        got, want = score_trials(model, trials, ds), scores_by_id(emb, ds, trials)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]
        return
    e, t = int(trials.enroll_id[bad]), int(trials.test_id[bad])
    er, tr = trials.rows[:, bad].tolist()
    with pytest.raises(ConfigurationError, match=re.escape(
            f"first: enroll {e} at row {er}, test {t} at row {tr}") + "$"):
        score_trials(model, trials, ds)


@given(featured_datasets(), st.data())
@settings(max_examples=150, deadline=None)
def test_score_trials_gathers_by_row_what_a_search_by_id_finds(case, data):
    ds, pairs_per_kind, seed = case
    model = identity_model(ds.feature_dim)
    trials = generate_trials(ds, pairs_per_kind, seed)
    assert np.array_equal(ds.utt_id[trials.rows], [trials.enroll_id, trials.test_id])
    assert _first_misplaced(trials, ds) is None
    assert_scores_by_row_or_refuses(model, trials, ds)

    # the same trials against the rows permuted, or with one id changed:
    # refused wherever a trial's rows no longer hold its ids, never scored
    # from the wrong rows
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(ds))
    assert_scores_by_row_or_refuses(model, trials, ds.subset(perm))
    k = data.draw(st.integers(0, len(trials) - 1))
    changed = ds.subset(np.arange(len(ds)))
    changed.utt_id[data.draw(st.sampled_from(trials.rows[:, k].tolist()))] = \
        int(ds.utt_id.max()) + 1
    assert _first_misplaced(trials, changed) <= k
    assert_scores_by_row_or_refuses(model, trials, changed)


def test_evaluate_model_end_to_end_separable():
    # class 0 along +x, class 1 along +y: cosine separates targets cleanly
    ds = make_dataset([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]], [0, 0, 1, 1])
    trials = trials_in(ds, [0, 2, 0, 1], [1, 3, 2, 3], [True, True, False, False])
    got = evaluate_model(identity_model(2), ds, trials)
    assert got.eer == 0.0
    assert got.trial_count == 4


# ----------------------------------------------------------------------
# removal and retraining


def test_remove_predicted_filters_by_utt_id():
    ds = small_clean()
    kept = remove_predicted(ds, np.array([0, 5]))
    assert len(kept) == len(ds) - 2
    assert set(kept.utt_id.tolist()) == set(range(len(ds))) - {0, 5}
    assert kept.class_count == ds.class_count
    assert kept.feature_dim == ds.feature_dim
    # unknown ids are a no-op, and so is a repeated id's second copy
    assert len(remove_predicted(ds, [999])) == len(ds)
    assert len(remove_predicted(ds, [5, 5])) == len(ds) - 1


def test_remove_predicted_refuses_a_set():
    # np.isin treats a set as one object and would match nothing
    ds = small_clean()
    with pytest.raises(TypeError):
        remove_predicted(ds, {0, 5})
    ds, heldout, trials, cfg = retrain_fixture()
    with pytest.raises(TypeError):
        retrain_after_removal(ds, {0}, cfg, heldout, trials, STAND_IN)


def test_remove_predicted_refuses_empty_result():
    ds = make_dataset(np.eye(2), [0, 1])
    with pytest.raises(ConfigurationError, match="empty"):
        remove_predicted(ds, [0, 1])


def retrain_fixture(seed=3):
    ds = generate_dataset(4, 6, 3, 6, 0.1, seed, mix_seed=seed)
    heldout = generate_dataset(4, 4, 3, 6, 0.1, seed + 100, mix_seed=seed)
    trials = generate_trials(heldout, pairs_per_kind=12, seed=seed)
    cfg = TrainConfig(loss=CEConfig(class_count=4), total_steps=20,
                      batch_speakers=4, utts_per_speaker=1, seed=9,
                      hidden_dims=(8,), embed_dim=4)
    return ds, heldout, trials, cfg


# a baseline EER for the retrain tests that never compare against it
STAND_IN = EERResult(eer=0.25, threshold_at_eer=0.5, trial_count=24)


def test_retrain_with_nothing_removed_reproduces_the_model():
    ds, heldout, trials, cfg = retrain_fixture()
    model, _ = train(ds, cfg)
    before = evaluate_model(model, heldout, trials)
    outcome = retrain_after_removal(ds, np.empty(0, dtype=np.int64), cfg, heldout, trials, before)
    assert outcome.removed_count == 0
    assert outcome.dropped_classes == []
    assert outcome.after == outcome.before == before
    assert dump_json17(model_to_dict(outcome.after_model)) == dump_json17(model_to_dict(model))


def test_retrain_reuses_the_supplied_baseline_eer(monkeypatch):
    ds, heldout, trials, cfg = retrain_fixture()
    scored = []
    real = evaluation.score_trials
    monkeypatch.setattr(evaluation, "score_trials",
                        lambda model, *rest: scored.append(model) or real(model, *rest))
    outcome = retrain_after_removal(ds, [0], cfg, heldout, trials, STAND_IN)
    assert outcome.before is STAND_IN
    assert scored == [outcome.after_model]  # only the retrained model is scored
    assert outcome.after == evaluate_model(outcome.after_model, heldout, trials)
    assert outcome.removed_count == 1


def test_retrain_clamps_batch_when_removal_empties_a_class(caplog):
    ds, heldout, trials, cfg = retrain_fixture()
    class_zero = ds.utt_id[ds.observed_class == 0]
    with caplog.at_level("WARNING"):
        outcome = retrain_after_removal(ds, class_zero, cfg, heldout, trials, STAND_IN)
    assert outcome.removed_count == len(class_zero)
    assert outcome.dropped_classes == [0]
    assert "clamping batch classes from 4 to 3" in caplog.text
    assert math.isfinite(outcome.after.eer)


@pytest.mark.parametrize("eligible", [1, 0])
def test_retrain_refuses_a_removal_that_leaves_ge2e_too_few_classes(eligible):
    # GE2E needs two classes of utts_per_speaker utterances; clamping its
    # batch to one class would train nothing and report the initialization
    ds, heldout, trials, _ = retrain_fixture()
    cfg = TrainConfig(loss=GE2EConfig(), total_steps=20, batch_speakers=4, utts_per_speaker=3,
                      seed=9, hidden_dims=(8,), embed_dim=4)
    # the classes from ``eligible`` on keep two utterances, below utts_per_speaker
    predicted = np.concatenate([ds.utt_id[ds.observed_class == c][2:]
                                for c in range(eligible, ds.class_count)])
    with pytest.raises(ConfigurationError, match=f"removal left {eligible} class"):
        retrain_after_removal(ds, predicted, cfg, heldout, trials, STAND_IN)


# ----------------------------------------------------------------------
# artifacts


def test_trials_csv_round_trip(tmp_path):
    trials = Trials([0, 2], [3, 5], [True, False])
    path = tmp_path / "trials.csv"
    write_trials_csv(trials, path)
    assert path.read_text().splitlines()[0] == "enroll_id,test_id,is_target"
    assert same_trials(read_trials_csv(path), trials)


def test_read_trials_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header,here\n1,2,true\n")
    with pytest.raises(ParseError, match="header"):
        read_trials_csv(path)
    path.write_text("enroll_id,test_id,is_target\n1,2\n")
    with pytest.raises(ParseError, match="malformed"):
        read_trials_csv(path)
    path.write_text("enroll_id,test_id,is_target\n1,2,yes\n")
    with pytest.raises(ParseError, match="malformed"):
        read_trials_csv(path)
    path.write_text("enroll_id,test_id,is_target\na,2,true\n")
    with pytest.raises(ParseError, match="non-integer"):
        read_trials_csv(path)


def test_read_trials_csv_rejects_ids_outside_64_bits(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("enroll_id,test_id,is_target\n1,2,true\n3,%d,false\n" % 2**63)
    with pytest.raises(ParseError, match=":3: utterance id outside the 64-bit range"):
        read_trials_csv(path)


_CI_TINY_TRAIN = {"loss": {"kind": "aamsc", "subcenters": 2}, "total_steps": 30,
                  "batch_speakers": 5, "hidden_dims": [8], "embed_dim": 6}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_eval_and_retrain_write_the_pinned_files(tmp_path):
    """The sha256 of the CI tiny run's ``trials.csv``, ``eer.json`` and
    ``retrain.json`` at seed 1, as the id-searching ``score_trials`` and the
    ``lexsort``/``np.unique`` trial generator wrote them; ``eer.json`` gained
    its ``config_digest`` since, and ``retrain.json`` kept its bytes when
    ``retrain`` began taking its baseline EER from ``eer.json``. ``trials.csv``
    depends only on ids, labels and the trial stream. The EER files go
    through the trained model's matmuls: a digest of theirs that moves under
    another BLAS build may only be rounding, not a moved stream or pair."""
    raw = {"output_dir": str(tmp_path / "run"), "seeds": [1], "dataset": TINY_DATASET,
           "noise": {"kind": "permute", "level_q": 25.0}, "train": _CI_TINY_TRAIN,
           "detect": {"histogram_bins": 4}, "eval": {"pairs_per_kind": 20}}
    (tmp_path / "c.json").write_text(json.dumps(raw))
    for stage in ("simulate", "train", "detect", "eval", "retrain"):
        assert main([stage, "--config", str(tmp_path / "c.json"), "--quiet"]) == 0
    got = [_sha256(tmp_path / "run" / "seed_1" / name)
           for name in ("trials.csv", "eer.json", "retrain.json")]
    assert got == ["446c0cbefc385cefebf523369dd2fb2561841a3bf2ed958fb0bec4853e459948",
                   "a7e7c5418d14db3953e48210123cbd9276a94b5ea5c984096003e5d595ae9d31",
                   "af2e74edc68ae2c69152cfafbfa64c7a4bc4502aeb0f7218f45e612f3ba18f8c"]


def test_detect_wide_trials_are_the_pinned_file(tmp_path):
    """The sha256 of ``generate_trials(heldout, 20000, 0)`` written through
    ``write_trials_csv``, for the detect-wide benchmark's held-out dataset at
    seed 0, as the ``lexsort``/``np.unique`` trial generator wrote it."""
    raw = {"output_dir": str(tmp_path / "run"), "seeds": [0], "dataset": WIDE_DATASET,
           "noise": {"kind": "open_set", "level_q": 50.0}}
    (tmp_path / "c.json").write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(tmp_path / "c.json"), "--quiet"]) == 0
    heldout = load_dataset(tmp_path / "run" / "seed_0" / "heldout.dataset")
    write_trials_csv(generate_trials(heldout, 20000, 0), tmp_path / "trials.csv")
    assert _sha256(tmp_path / "trials.csv") == \
        "27e495a56ae542ff473adbb9dca4b4c54f67db2c29cd361a563a7b40517922f6"


def test_write_eer_json(tmp_path):
    path = tmp_path / "eer.json"
    write_eer_json(EERResult(eer=0.125, threshold_at_eer=0.5, trial_count=40),
                   model_digest="deadbeef", config_digest="c0ffee", path=path)
    payload = json.loads(path.read_text())
    assert payload == {"eer": 0.125, "threshold": 0.5, "trial_count": 40,
                       "model_digest": "deadbeef", "config_digest": "c0ffee"}


def _write_eer(path, result=EERResult(eer=0.125, threshold_at_eer=0.5, trial_count=40),
               model_digest="deadbeef", config_digest="c0ffee"):
    write_eer_json(result, model_digest, config_digest, path)
    return path


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(allow_nan=False, allow_infinity=False),
       st.integers(0, 2**63 - 1))
@example(0.0, -0.0, 0)
@example(1.0, 1.7976931348623157e308, 2**63 - 1)
def test_load_eer_reads_back_what_write_eer_json_wrote(tmp_path_factory, eer, threshold,
                                                       trial_count):
    result = EERResult(eer=eer, threshold_at_eer=threshold, trial_count=trial_count)
    assert load_eer(_write_eer(tmp_path_factory.mktemp("eer") / "eer.json", result)) == \
        (result, "deadbeef", "c0ffee")


@pytest.mark.parametrize("edit,message", [
    (lambda d: [d], "EER report must be a JSON object"),
    (lambda d: {**d, "eer": "x"}, "EER report.eer must be a finite number, got 'x'"),
    (lambda d: {**d, "eer": 1.5}, "EER report.eer must be in [0, 1], got 1.5"),
    (lambda d: {**d, "threshold": float("inf")},
     "EER report.threshold must be a finite number, got inf"),
    (lambda d: {**d, "trial_count": 40.0}, "EER report.trial_count must be an integer, got 40.0"),
    (lambda d: {k: v for k, v in d.items() if k != "model_digest"},
     "EER report.model_digest is missing"),
    (lambda d: {k: v for k, v in d.items() if k != "config_digest"},
     "EER report.config_digest is missing"),
    (lambda d: {**d, "config_digest": 7}, "EER report.config_digest must be a string, got 7"),
])
def test_load_eer_refuses_a_malformed_file_naming_it(tmp_path, edit, message):
    path = _write_eer(tmp_path / "eer.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(LabelNoiseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_eer(path)


def _load_eer_or_refuse(path):
    """load_eer's result, or None when it refuses the file with a
    LabelNoiseError naming it; any other exception fails the test. A
    result that loads writes out and reads back as itself."""
    try:
        got = load_eer(path)
    except LabelNoiseError as exc:
        assert str(path) in str(exc)
        return None
    assert load_eer(_write_eer(path.with_name("again.json"), *got)) == got
    return got


@settings(max_examples=300, deadline=None)
@given(BYTE_EDITS)
def test_load_eer_takes_any_byte_edit_of_a_good_file(tmp_path_factory, edits):
    path = _write_eer(tmp_path_factory.mktemp("eer") / "eer.json")
    path.write_bytes(edit_bytes(path.read_bytes(), edits))
    got = _load_eer_or_refuse(path)
    if not edits:
        assert got == (EERResult(eer=0.125, threshold_at_eer=0.5, trial_count=40),
                       "deadbeef", "c0ffee")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), JSON_VALUES), min_size=1, max_size=3))
def test_load_eer_takes_any_value_in_any_place(tmp_path_factory, edits):
    """Each edit replaces one value of the file's JSON, the root included."""
    path = _write_eer(tmp_path_factory.mktemp("eer") / "eer.json")
    path.write_text(json.dumps(replace_values(json.loads(path.read_text()), edits)),
                    encoding="ascii")
    _load_eer_or_refuse(path)


def test_write_retrain_json(tmp_path):
    ds, heldout, trials, cfg = retrain_fixture()
    outcome = retrain_after_removal(ds, [1, 2], cfg, heldout, trials, STAND_IN)
    path = tmp_path / "retrain.json"
    write_retrain_json(outcome, method="inter", seed=9, config_digest="c0ffee", path=path)
    payload = json.loads(path.read_text())
    assert payload["detection_method"] == "inter"
    assert payload["removed_count"] == 2
    assert payload["before"] == {"eer": 0.25, "threshold": 0.5, "trial_count": 24}
    assert set(payload["after"]) == {"eer", "threshold", "trial_count"}
    assert payload["config_digest"] == "c0ffee"
