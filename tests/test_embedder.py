"""MLP embedder, Adam updates, balanced batching, and the training loop."""

import base64
import json
import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import BYTE_EDITS, JSON_VALUES, edit_bytes, edit_parameters, replace_values
import labelnoise.embedder as embedder
from labelnoise.embedder import (
    CHUNK,
    AdamState,
    MlpParams,
    TrainConfig,
    adam_step,
    _sample_chunk,
    easy_margin_boundary,
    embed_batch,
    init_parameters,
    load_model,
    mlp_backward,
    mlp_forward,
    model_from_dict,
    model_to_dict,
    parameter_layout,
    parameter_vector,
    save_model,
    train,
    write_loss_curve,
)
from labelnoise.errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    LabelNoiseError,
    ParseError,
)
from labelnoise.evaluation import remove_predicted
from labelnoise.jsonutil import dump_json17, write_json17
from labelnoise.losses import AAMConfig, AAMSCConfig, CEConfig, GE2EConfig, nsl_config
from labelnoise.seeding import named_rng
from labelnoise.synthdata import Dataset, generate_dataset
from oracles import (
    BlockAdamState,
    block_adam_step,
    ids_by_observed_class,
    init_mlp,
    per_class_sample_positions,
    plain_aam_loss,
    plain_aamsc_loss,
    plain_adam_step,
    plain_ge2e_loss,
    plain_initial_vector,
    plain_mlp_backward,
    plain_mlp_forward,
)


# ----------------------------------------------------------------------
# MLP forward/backward


def test_init_parameters_shapes_and_bounds():
    layout = parameter_layout((6, 5, 3), CEConfig(class_count=4))
    flat = init_parameters(layout, CEConfig(class_count=4), named_rng(0, "init"))
    blocks = {name: flat[sl].reshape(shape) for name, shape, sl in layout}
    assert {name: b.shape for name, b in blocks.items()} == {
        "mlp.weight0": (5, 6), "mlp.bias0": (5,), "mlp.weight1": (3, 5), "mlp.bias1": (3,),
        "classifier.weight": (4, 3), "classifier.bias": (4,)}
    # each bias takes the bound of the weight block before it
    for names, fan_in in ((("mlp.weight0", "mlp.bias0"), 6), (("mlp.weight1", "mlp.bias1"), 5),
                          (("classifier.weight", "classifier.bias"), 3)):
        for name in names:
            assert 0 < np.max(np.abs(blocks[name])) <= 1.0 / math.sqrt(fan_in)


def test_init_parameters_deterministic():
    layout = parameter_layout((4, 3), GE2EConfig())
    a = init_parameters(layout, GE2EConfig(), named_rng(5, "init"))
    b = init_parameters(layout, GE2EConfig(), named_rng(5, "init"))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != init_parameters(layout, GE2EConfig(), named_rng(6, "init")).tobytes()


@pytest.mark.parametrize("loss_cfg", [
    CEConfig(class_count=5),
    nsl_config(5, 30.0),
    AAMConfig(class_count=5, scale=30.0, margin=0.2),
    AAMSCConfig(class_count=5, scale=30.0, margin=0.2, subcenters=1),
    AAMSCConfig(class_count=5, scale=30.0, margin=0.2, subcenters=2),
    AAMSCConfig(class_count=5, scale=30.0, margin=0.2, subcenters=3),
    GE2EConfig(init_w=3.5, init_b=-0.25),
], ids=["ce", "nsl", "aam", "aamsc1", "aamsc2", "aamsc3", "ge2e"])
@pytest.mark.parametrize("layer_dims", [(7, 4), (7, 6, 4), (7, 9, 6, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_init_parameters_matches_per_layer_and_classifier_init(loss_cfg, layer_dims, seed):
    # the same draws, in the same order, as init_mlp then init_classifier,
    # and the generator left in the same state
    got_rng, want_rng = named_rng(seed, "init"), named_rng(seed, "init")
    got = init_parameters(parameter_layout(layer_dims, loss_cfg), loss_cfg, got_rng)
    want = plain_initial_vector(layer_dims, loss_cfg, want_rng)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dims", [{"hidden_dims": (0,)}, {"hidden_dims": (8, -1)},
                                  {"embed_dim": 0}])
def test_train_config_refuses_layer_dims_below_one(dims):
    with pytest.raises(ConfigurationError, match="layer dims must be >= 1"):
        TrainConfig(loss=CEConfig(class_count=3), **dims)


def test_single_linear_identity_layer_passes_through():
    mlp = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.asarray([0.5, -1.2, 2.0])
    assert np.array_equal(embed_batch(mlp, x[None, :], np.arange(1), None), x[None, :])


def test_zero_parameters_give_zero_embedding():
    mlp = MlpParams(weights=[np.zeros((4, 3)), np.zeros((2, 4))],
                    biases=[np.zeros(4), np.zeros(2)])
    out = embed_batch(mlp, np.asarray([[1.0, 2.0, 3.0]]), np.arange(1), None)
    assert np.array_equal(out, np.zeros((1, 2)))


def test_hidden_layers_apply_tanh_final_linear():
    mlp = MlpParams(weights=[np.eye(2) * 3.0, np.eye(2)],
                    biases=[np.zeros(2), np.zeros(2)])
    out = embed_batch(mlp, np.asarray([[1.0, -1.0]]), np.arange(1), None)
    assert np.allclose(out, [[math.tanh(3.0), math.tanh(-3.0)]], atol=1e-15)


def test_forward_dim_mismatch():
    mlp = init_mlp((4, 3), named_rng(0, "init"))
    with pytest.raises(DomainError, match="dim-4"):
        embed_batch(mlp, np.ones((1, 5)), np.arange(1), None)
    with pytest.raises(DomainError):
        mlp_forward(mlp, np.ones((2, 5)))


def test_embed_batch_refuses_an_embedding_whose_norm_is_not_finite():
    mlp = MlpParams(weights=[np.eye(2)], biases=[np.zeros(2)])
    x = np.asarray([[1.0, 2.0], [1e200, 0.0], [np.inf, 0.0]])  # row 1 overflows when squared
    with pytest.raises(DomainError, match=r"^utterance 1 has a non-finite embedding norm$"):
        embed_batch(mlp, x, np.arange(3), None)
    with pytest.raises(DomainError, match=r"^model file m\.json: utterance 71 has a non-"):
        embed_batch(mlp, x, np.array([70, 71, 72]), "m.json")
    with pytest.raises(DomainError, match="utterance 72 "):
        embed_batch(mlp, x[[0, 2]], np.array([70, 72]), None)
    assert np.array_equal(embed_batch(mlp, x[:1], np.array([70]), "m.json"), x[:1])


def test_embed_batch_matches_single():
    mlp = init_mlp((5, 4, 3), named_rng(1, "init"))
    x = named_rng(2, "x").standard_normal((6, 5))
    batch = embed_batch(mlp, x, np.arange(6), None)
    for i in range(6):
        assert np.allclose(batch[i], embed_batch(mlp, x[i:i + 1], np.arange(1), None)[0],
                           atol=1e-15)


def test_mlp_backward_matches_finite_difference_jacobian():
    rng = named_rng(3, "fd")
    mlp = init_mlp((5, 6, 4), rng)
    x = rng.standard_normal((3, 5))
    v = rng.standard_normal((3, 4))  # random projection: scalar loss v . f(x)

    out, cache = mlp_forward(mlp, x)
    _, grads = _nan_gradient_views(mlp)
    mlp_backward(mlp, cache, v, grads)
    grad_w, grad_b = grads.weights, grads.biases
    # the package leaves the input gradient out; the full pass forms it
    grad_x = plain_mlp_backward(mlp, cache, v)[2]

    eps = 1e-6

    def value():
        return float(np.sum(mlp_forward(mlp, x)[0] * v))

    def fd(arr):
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = value()
            flat[i] = orig - eps
            lo = value()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        return g

    def check(analytic, numeric):
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5

    check(grad_x, fd(x))
    for i in range(2):
        check(grad_w[i], fd(mlp.weights[i]))
        check(grad_b[i], fd(mlp.biases[i]))


def _nan_gradient_views(mlp):
    """A NaN-filled flat vector, and as views of it, in layout order, one
    array shaped like each of ``mlp``'s weights and biases."""
    blocks = [a for pair in zip(mlp.weights, mlp.biases) for a in pair]
    flat = np.full(sum(a.size for a in blocks), np.nan)
    views = [v.reshape(a.shape)
             for v, a in zip(np.split(flat, np.cumsum([a.size for a in blocks])[:-1]), blocks)]
    return flat, MlpParams(weights=views[0::2], biases=views[1::2])


def _plain_mlp_backward_into(params, cache, grad_out, out):
    """``plain_mlp_backward``'s weight and bias gradients, copied into
    ``out`` as ``mlp_backward`` writes its own."""
    grad_w, grad_b, _ = plain_mlp_backward(params, cache, grad_out)
    for dst, src in zip(out.weights + out.biases, grad_w + grad_b):
        dst[...] = src


def test_mlp_backward_has_the_bits_of_the_full_backward_pass():
    # the train shapes: a 20 -> 64 -> 64 -> 32 embedder on 50-row batches
    rng = named_rng(4, "backward")
    mlp = init_mlp((20, 64, 64, 32), rng)
    x = rng.standard_normal((50, 20))
    _, cache = mlp_forward(mlp, x)
    grad_out = rng.standard_normal((50, 32))
    flat, grads = _nan_gradient_views(mlp)
    mlp_backward(mlp, cache, grad_out, grads)
    assert not np.isnan(flat).any()  # every entry was written
    want_w, want_b, _ = plain_mlp_backward(mlp, cache, grad_out)
    assert [g.tobytes() for g in grads.weights] == [g.tobytes() for g in want_w]
    assert [g.tobytes() for g in grads.biases] == [g.tobytes() for g in want_b]


# ----------------------------------------------------------------------
# Adam

# the one block of a vector that is not a model's parameters
WHOLE = [("parameter vector", slice(None))]


def test_adam_scalar_hand_oracle():
    # fresh state, g=1: m-hat = 1, v-hat = 1, step = lr / (1 + eps)
    p = np.asarray([0.0])
    state = AdamState.fresh(p, learning_rate=1e-4)
    adam_step(p, np.asarray([1.0]), state, WHOLE)
    assert p[0] == pytest.approx(-1e-4 / (1.0 + 1e-8), rel=1e-12)
    assert state.step_count == 1


def test_adam_zero_gradient_leaves_parameters():
    p = np.asarray([1.5, -2.5])
    state = AdamState.fresh(p, learning_rate=1e-4)
    adam_step(p, np.zeros(2), state, WHOLE)
    assert np.array_equal(p, [1.5, -2.5])


def test_adam_two_runs_bit_identical():
    rng = named_rng(4, "adam")
    grads = [rng.standard_normal(6) for _ in range(10)]

    def run():
        p = np.zeros(6)
        state = AdamState.fresh(p, learning_rate=1e-3)
        for g in grads:
            adam_step(p, g, state, WHOLE)
        return p

    assert np.array_equal(run(), run())


def test_adam_rejects_non_finite_gradient():
    p = np.zeros(3)
    state = AdamState.fresh(p, learning_rate=1e-4)
    blocks = [("mlp.weight0", slice(0, 1)), ("classifier.weight", slice(1, 3))]
    with pytest.raises(DivergenceError, match="'classifier.weight'"):
        adam_step(p, np.asarray([1.0, 2.0, np.nan]), state, blocks)
    assert state.step_count == 0 and np.array_equal(p, np.zeros(3))


def test_adam_rejects_shape_mismatch():
    p = np.zeros(2)
    state = AdamState.fresh(p, learning_rate=1e-4)
    with pytest.raises(ConfigurationError):
        adam_step(p, np.zeros(3), state, WHOLE)
    with pytest.raises(ConfigurationError):  # state built for another vector
        adam_step(np.zeros(3), np.zeros(3), state, WHOLE)


def test_flat_adam_matches_per_block_adam_bit_for_bit():
    # the real 20-64-64-32 MLP plus an AAMSC classifier (C=50, K=3), with
    # gradients spanning 1e-8 .. 1e2 in magnitude
    shapes = [(64, 20), (64,), (64, 64), (64,), (32, 64), (32,), (150, 32)]
    rng = named_rng(5, "adam-blocks")
    blocks = [rng.uniform(-0.2, 0.2, size=s) for s in shapes]
    flat = np.concatenate([b.ravel() for b in blocks])
    slices = np.split(np.arange(flat.size), np.cumsum([b.size for b in blocks])[:-1])
    ref_state = BlockAdamState.fresh(blocks, learning_rate=1e-3)
    state = AdamState.fresh(flat, learning_rate=1e-3)
    for _ in range(250):
        grads = [rng.standard_normal(s) * 10.0 ** rng.uniform(-8.0, 2.0, size=s) for s in shapes]
        block_adam_step(blocks, grads, ref_state)
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), state, WHOLE)
    for b, idx in zip(blocks, slices):
        assert np.array_equal(flat[idx], b.ravel())
    assert np.array_equal(state.m, np.concatenate([m.ravel() for m in ref_state.m]))
    assert np.array_equal(state.v, np.concatenate([v.ravel() for v in ref_state.v]))


def test_adam_matches_the_allocating_form_bit_for_bit_past_the_bias_correction():
    # 400 steps: from step 356 on, 1 - beta1**t rounds to 1.0 and the
    # division by it is left out
    rng = named_rng(6, "adam-plain")
    p, ref_p = (np.full(12384, 0.05) for _ in range(2))
    state, ref_state = (AdamState.fresh(v, learning_rate=1e-3) for v in (p, ref_p))
    for _ in range(400):
        g = rng.standard_normal(p.size) * 10.0 ** rng.uniform(-8.0, 2.0, size=p.size)
        adam_step(p, g, state, WHOLE)
        plain_adam_step(ref_p, g, ref_state, WHOLE)
    assert 1.0 - state.beta1 ** state.step_count == 1.0
    assert p.tobytes() == ref_p.tobytes()
    assert state.m.tobytes() == ref_state.m.tobytes()
    assert state.v.tobytes() == ref_state.v.tobytes()


# ----------------------------------------------------------------------
# batch sampling


def small_ds(class_count=4, per_class=5, seed=0):
    return generate_dataset(class_count, per_class, 2, 6, 0.1, seed=seed, mix_seed=seed)


def sample(ds, n_speakers, m_utts, rng):
    """One batch as ``train`` draws it: (N, M) positions and N labels."""
    positions, labels = _sample_chunk(ds.class_table(m_utts), n_speakers, m_utts, 1, rng)
    return positions[0], labels[0]


def test_sample_batch_exhaustive_when_n_equals_c():
    ds = small_ds(class_count=4)
    positions, labels = sample(ds, 4, 1, named_rng(0, "batches"))
    assert sorted(labels.tolist()) == [0, 1, 2, 3]
    assert positions.shape == (4, 1)
    assert ds.observed_class[positions[:, 0]].tolist() == labels.tolist()


def test_sample_batch_deterministic_given_rng():
    ds = small_ds()
    a = sample(ds, 3, 2, named_rng(1, "batches"))
    b = sample(ds, 3, 2, named_rng(1, "batches"))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_sample_batch_no_repeat_within_group():
    ds = small_ds(per_class=3)
    rng = named_rng(2, "batches")
    for _ in range(50):
        positions, labels = sample(ds, 2, 3, rng)
        for row, label in zip(positions, labels):
            assert len(set(row.tolist())) == 3
            assert np.all(ds.observed_class[row] == label)


def test_sample_batch_class_frequency_binomial():
    # N=2 of C=4: each class appears with probability 1/2 per batch
    ds = small_ds(class_count=4)
    rng = named_rng(3, "batches")
    counts = np.zeros(4, dtype=int)
    for _ in range(10000):
        _, labels = sample(ds, 2, 1, rng)
        counts[labels] += 1
    assert np.all(counts >= 4850) and np.all(counts <= 5150)  # 3 sigma


def test_sample_batch_insufficient_classes():
    ds = small_ds(class_count=3)
    with pytest.raises(ConfigurationError, match="eligible"):
        sample(ds, 4, 1, named_rng(0, "batches"))
    # per_class=5 < M=6 makes every class ineligible
    with pytest.raises(ConfigurationError, match="eligible"):
        sample(ds, 1, 6, named_rng(0, "batches"))


def ragged_ds():
    """Classes of 1 to 60 members in shuffled dataset order, with three
    classes emptied by ``remove_predicted``."""
    full = generate_dataset(60, 60, 2, 6, 0.1, seed=4, mix_seed=4)
    keep = np.flatnonzero(full.utt_id % 60 < full.true_class + 1)
    ds = full.subset(named_rng(4, "shuffle").permutation(keep))
    emptied = np.isin(ds.observed_class, [5, 17, 42])
    return remove_predicted(ds, ds.utt_id[emptied])


@pytest.mark.parametrize("m_utts", [1, 2, 3, 4, 8])
def test_class_table_sampler_matches_per_class_draws_bit_for_bit(m_utts):
    ds = ragged_ds()
    groups = ids_by_observed_class(ds)
    assert sorted(len(g) for g in groups.values()) == sorted(
        set(range(1, 61)) - {6, 18, 43})
    table = ds.class_table(m_utts)
    eligible = len(table.labels)
    assert eligible == sum(len(g) >= m_utts for g in groups.values())
    for n_speakers in (1, 7, eligible):
        rng, ref = named_rng(n_speakers, "batches"), named_rng(n_speakers, "batches")
        positions, labels = _sample_chunk(table, n_speakers, m_utts, 300, rng)
        assert positions.shape == (300, n_speakers, m_utts) and labels.shape == (300, n_speakers)
        for step in range(300):
            ref_positions, ref_labels = per_class_sample_positions(groups, n_speakers, m_utts, ref)
            assert positions.dtype == ref_positions.dtype and labels.dtype == ref_labels.dtype
            assert np.array_equal(positions[step], ref_positions)
            assert np.array_equal(labels[step], ref_labels)
        assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ConfigurationError, match=f"only {eligible} eligible"):
        _sample_chunk(table, eligible + 1, m_utts, 1, named_rng(0, "batches"))


def test_class_table_sampler_matches_per_class_draws_with_a_20000_member_class():
    # 20,000 members at M=4 is still below numpy's switch away from Floyd
    # (M > P // 50), so the one-call draw must match ``choice`` here too
    observed = np.concatenate([np.zeros(20000, dtype=np.int64), np.repeat([1, 2, 3], 5)])
    observed = observed[named_rng(5, "shuffle").permutation(len(observed))]
    groups = {c: np.flatnonzero(observed == c) for c in range(4)}
    n = len(observed)
    table = Dataset(features=np.zeros((n, 1)), utt_id=np.arange(n), true_class=observed,
                    observed_class=observed, is_ood=np.zeros(n, dtype=bool), class_count=4,
                    feature_dim=1).class_table(4)
    rng, ref = named_rng(6, "batches"), named_rng(6, "batches")
    positions, labels = _sample_chunk(table, 2, 4, 200, rng)
    assert positions.shape == (200, 2, 4) and labels.shape == (200, 2)
    for step in range(200):
        ref_positions, ref_labels = per_class_sample_positions(groups, 2, 4, ref)
        assert positions.dtype == ref_positions.dtype and labels.dtype == ref_labels.dtype
        assert np.array_equal(positions[step], ref_positions)
        assert np.array_equal(labels[step], ref_labels)
    assert rng.bit_generator.state == ref.bit_generator.state


# ----------------------------------------------------------------------
# TrainConfig


def test_train_config_validation():
    with pytest.raises(ConfigurationError, match="GE2E"):
        TrainConfig(loss=GE2EConfig(), utts_per_speaker=1)
    # GE2E contrasts each utterance with the other speakers' centroids: with
    # one speaker its loss and every gradient are 0 and training moves nothing
    with pytest.raises(ConfigurationError, match="GE2E needs batch_speakers >= 2"):
        TrainConfig(loss=GE2EConfig(), batch_speakers=1, utts_per_speaker=3)
    with pytest.raises(ConfigurationError, match="utts_per_speaker"):
        TrainConfig(loss=CEConfig(class_count=4), utts_per_speaker=2)
    with pytest.raises(ConfigurationError):
        TrainConfig(loss=CEConfig(class_count=4), easy_margin_fraction=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(loss=CEConfig(class_count=4), total_steps=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(loss=CEConfig(class_count=4), learning_rate=0.0)


def test_easy_margin_boundary_ceil():
    cfg = TrainConfig(loss=CEConfig(class_count=4), total_steps=5000)
    assert easy_margin_boundary(cfg) == 625
    cfg = TrainConfig(loss=CEConfig(class_count=4), total_steps=7)
    assert easy_margin_boundary(cfg) == 1  # ceil(0.875)
    cfg = TrainConfig(loss=CEConfig(class_count=4), total_steps=7,
                      easy_margin_fraction=0.0)
    assert easy_margin_boundary(cfg) == 0


# ----------------------------------------------------------------------
# training loop


def tiny_cfg(loss=None, steps=30, seed=11):
    if loss is None:
        loss = CEConfig(class_count=4)
    return TrainConfig(loss=loss, total_steps=steps, batch_speakers=4,
                       utts_per_speaker=1, seed=seed, hidden_dims=(8,),
                       embed_dim=6)


def test_train_zero_steps_returns_initialized_model():
    # no step draws no batch, so three eligible classes for a batch of four is no error
    ds = small_ds(class_count=3)
    model, curve = train(ds, tiny_cfg(loss=CEConfig(class_count=3), steps=0))
    assert curve == []
    assert model.embedder.layer_dims == (6, 8, 6)
    assert model.train_manifest["total_steps"] == 0
    assert np.all(np.isfinite(model.classifier.weight))


@pytest.mark.parametrize("loss, m_utts", [
    (AAMSCConfig(class_count=60, scale=30.0, margin=0.1, subcenters=2), 1),
    (GE2EConfig(), 3),
], ids=["aamsc", "ge2e"])
def test_train_consumes_the_per_step_batches_across_chunks(monkeypatch, loss, m_utts):
    # training draws CHUNK steps' batches at a time; the features of every
    # step must be those of one per-class draw per step, in step order
    ds = ragged_ds()
    cfg = TrainConfig(loss=loss, total_steps=2 * CHUNK + 3, batch_speakers=7,
                      utts_per_speaker=m_utts, seed=8, hidden_dims=(8,), embed_dim=6)
    batches = []

    def recording_forward(params, x):
        batches.append(x.copy())
        return mlp_forward(params, x)

    monkeypatch.setattr(embedder, "mlp_forward", recording_forward)
    train(ds, cfg)
    groups, ref = ids_by_observed_class(ds), named_rng(cfg.seed, "batches")
    assert len(batches) == cfg.total_steps
    for batch in batches:
        positions, _ = per_class_sample_positions(groups, 7, m_utts, ref)
        assert np.array_equal(batch, ds.features[positions.reshape(-1)])


def test_train_same_seed_identical_serialization():
    ds = small_ds()
    m1, c1 = train(ds, tiny_cfg())
    m2, c2 = train(ds, tiny_cfg())
    assert dump_json17(model_to_dict(m1)) == dump_json17(model_to_dict(m2))
    assert c1 == c2


def test_train_seed_changes_model():
    ds = small_ds()
    m1, _ = train(ds, tiny_cfg(seed=11))
    m2, _ = train(ds, tiny_cfg(seed=12))
    assert dump_json17(model_to_dict(m1)) != dump_json17(model_to_dict(m2))


def test_train_loss_curve_steps_and_finiteness():
    ds = small_ds()
    model, curve = train(ds, tiny_cfg(steps=25))
    assert [step for step, _ in curve] == list(range(25))
    assert all(math.isfinite(v) for _, v in curve)
    assert model.train_manifest["loss_kind"] == "ce"


def test_train_ce_smoke_separable_data():
    # zero spread makes classes perfectly separable: CE should fit them
    ds = generate_dataset(4, 8, 4, 8, 0.0, seed=123, mix_seed=123)
    cfg = TrainConfig(loss=CEConfig(class_count=4), total_steps=2000,
                      batch_speakers=4, utts_per_speaker=1, seed=7)
    model, curve = train(ds, cfg)
    assert curve[-1][1] < 0.1


def test_train_ge2e_keeps_bias_and_floors_w():
    ds = small_ds(class_count=4, per_class=6)
    model, curve = train(ds, tiny_ge2e_cfg())
    # b has an exactly-zero analytic gradient: only float-summation noise
    # can move it, never more than a hair from its -5 initialization
    assert abs(model.classifier.ge2e_b + 5.0) < 1e-6
    assert model.classifier.ge2e_w >= 1e-4
    assert model.classifier.ge2e_w != 10.0  # w does learn
    assert type(model.classifier.ge2e_w) is float and type(model.classifier.ge2e_b) is float
    assert all(math.isfinite(v) for _, v in curve)
    # a w that one step drives below the floor is clamped to it
    cfg = TrainConfig(loss=GE2EConfig(init_w=-1.0), total_steps=1, batch_speakers=3,
                      utts_per_speaker=2, seed=3, hidden_dims=(8,), embed_dim=6)
    floored, _ = train(ds, cfg)
    assert floored.classifier.ge2e_w == 1e-4


def test_train_aamsc_runs_and_records_boundary():
    ds = small_ds()
    cfg = tiny_cfg(loss=AAMSCConfig(class_count=4, scale=30.0, margin=0.1,
                                    subcenters=3), steps=16)
    model, _ = train(ds, cfg)
    assert model.train_manifest["easy_margin_boundary"] == 2  # ceil(16/8)
    assert model.classifier.weight.shape == (12, 6)


def _train_recording_adam(ds, cfg, monkeypatch, adam):
    """``train`` through ``adam``, returning the model, curve and final Adam state."""
    states = []

    def recording_adam(params, grads, state, blocks):
        states.append(state)
        adam(params, grads, state, blocks)

    monkeypatch.setattr(embedder, "adam_step", recording_adam)
    model, curve = train(ds, cfg)
    return model, curve, states[-1]


@pytest.mark.parametrize("loss", [
    AAMSCConfig(class_count=6, scale=30.0, margin=0.1, subcenters=3),
    AAMConfig(class_count=6, scale=30.0, margin=0.2),
    nsl_config(class_count=6, scale=30.0),
])
def test_train_matches_the_plain_step_bit_for_bit(monkeypatch, loss):
    # 400 steps cross the easy-margin switch (step 50) and the step (356)
    # after which Adam leaves out its division by 1 - beta1**t
    ds = small_ds(class_count=6, per_class=6)
    cfg = TrainConfig(loss=loss, total_steps=400, batch_speakers=6, seed=5,
                      hidden_dims=(16, 16), embed_dim=8)
    model, curve, state = _train_recording_adam(ds, cfg, monkeypatch, adam_step)
    # AAM and NSL train through aamsc_loss; their reference is the plain AAM step
    plain_loss = plain_aamsc_loss if isinstance(loss, AAMSCConfig) else plain_aam_loss
    for name, plain in [("aamsc_loss", plain_loss),
                        ("mlp_forward", plain_mlp_forward),
                        ("mlp_backward", _plain_mlp_backward_into)]:
        monkeypatch.setattr(embedder, name, plain)
    ref_model, ref_curve, ref_state = _train_recording_adam(ds, cfg, monkeypatch,
                                                            plain_adam_step)
    assert curve == ref_curve
    assert dump_json17(model_to_dict(model)) == dump_json17(model_to_dict(ref_model))
    for got, ref in [*zip(model.embedder.weights, ref_model.embedder.weights),
                     *zip(model.embedder.biases, ref_model.embedder.biases),
                     (model.classifier.weight, ref_model.classifier.weight),
                     (state.m, ref_state.m), (state.v, ref_state.v)]:
        assert got.tobytes() == ref.tobytes()
    assert state.step_count == ref_state.step_count == 400


@pytest.mark.parametrize("seed", [5, 6])
def test_train_ge2e_matches_the_plain_step_bit_for_bit(monkeypatch, seed):
    # 400 steps cross the step (356) after which Adam leaves out its
    # division by 1 - beta1**t
    ds = small_ds(class_count=6, per_class=6)
    cfg = TrainConfig(loss=GE2EConfig(), total_steps=400, batch_speakers=4, utts_per_speaker=3,
                      seed=seed, hidden_dims=(16, 16), embed_dim=8)
    model, curve, state = _train_recording_adam(ds, cfg, monkeypatch, adam_step)
    for name, plain in [("ge2e_loss", plain_ge2e_loss),
                        ("mlp_forward", plain_mlp_forward),
                        ("mlp_backward", _plain_mlp_backward_into)]:
        monkeypatch.setattr(embedder, name, plain)
    ref_model, ref_curve, ref_state = _train_recording_adam(ds, cfg, monkeypatch,
                                                            plain_adam_step)
    assert [np.float64(v).tobytes() for _, v in curve] == [
        np.float64(v).tobytes() for _, v in ref_curve]
    assert dump_json17(model_to_dict(model)) == dump_json17(model_to_dict(ref_model))
    for got, ref in [*zip(model.embedder.weights, ref_model.embedder.weights),
                     *zip(model.embedder.biases, ref_model.embedder.biases),
                     (state.m, ref_state.m), (state.v, ref_state.v)]:
        assert got.tobytes() == ref.tobytes()
    assert (model.classifier.ge2e_w, model.classifier.ge2e_b) == (
        ref_model.classifier.ge2e_w, ref_model.classifier.ge2e_b)
    assert state.step_count == ref_state.step_count == 400


# Shapes whose products OpenBLAS splits over threads (M*N*K above 262144):
# the 256-row GE2E batch through a 20 -> 64 layer and its (256 x 32) @ (32 x 64)
# cosines, and the 50-row AAMSC batch against 200 x 3 sub-centers.
THREADED_TRAIN = {
    "ge2e": ("generate_dataset(64, 5, 8, 20, 0.3, seed=0, mix_seed=0)",
             "TrainConfig(loss=GE2EConfig(), total_steps=300, batch_speakers=64, "
             "utts_per_speaker=4, hidden_dims=(64,), embed_dim=32)"),
    "aamsc": ("generate_dataset(200, 3, 8, 20, 0.3, seed=0, mix_seed=0)",
              "TrainConfig(loss=AAMSCConfig(class_count=200, scale=30.0, margin=0.2, "
              "subcenters=3), total_steps=300, batch_speakers=50, hidden_dims=(64,), "
              "embed_dim=32)"),
}


@pytest.mark.parametrize("loss", sorted(THREADED_TRAIN))
def test_trained_bits_do_not_depend_on_the_blas_thread_count(loss):
    dataset, cfg = THREADED_TRAIN[loss]
    code = ("import hashlib\n"
            "from labelnoise.embedder import TrainConfig, parameter_vector, train\n"
            "from labelnoise.losses import AAMSCConfig, GE2EConfig\n"
            "from labelnoise.synthdata import generate_dataset\n"
            f"model, _ = train({dataset}, {cfg})\n"
            "print(hashlib.sha256(parameter_vector(model).tobytes()).hexdigest())\n")
    src = str(Path(embedder.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300, env=dict(os.environ, PYTHONPATH=src,
                                                    OPENBLAS_NUM_THREADS=threads,
                                                    OMP_NUM_THREADS=threads))
        assert (proc.returncode, proc.stderr) == (0, "")
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("loss", [
    CEConfig(class_count=4),
    AAMConfig(class_count=4, scale=30.0, margin=0.1),
    AAMSCConfig(class_count=4, scale=30.0, margin=0.1, subcenters=2),
    GE2EConfig(),
])
def test_train_passes_adam_the_concatenated_gradient_blocks(monkeypatch, loss):
    # every step's flat gradient is the MLP's blocks, layer by layer, then
    # the classifier's fields, each raveled, as one concatenation
    seen = {}
    for name in ("ce_loss", "aamsc_loss", "ge2e_loss"):
        def recording(*args, _real=getattr(embedder, name), _name=name):
            seen[_name] = result = _real(*args)
            return result
        monkeypatch.setattr(embedder, name, recording)

    def recording_backward(params, cache, grad_out, out):
        mlp_backward(params, cache, grad_out, out)
        seen["mlp_backward"] = [w.copy() for w in out.weights], [b.copy() for b in out.biases]

    monkeypatch.setattr(embedder, "mlp_backward", recording_backward)
    steps = []

    def checking_adam(params, grads, state, blocks):
        gw, gb = seen.pop("mlp_backward")
        (out,) = seen.values()
        seen.clear()
        fields = [getattr(out.grad_params, f) for f in ("weight", "bias", "ge2e_w", "ge2e_b")]
        expected = np.concatenate([g.ravel() for pair in zip(gw, gb) for g in pair]
                                  + [np.ravel(f) for f in fields if f is not None])
        assert grads.tobytes() == expected.tobytes()
        steps.append(len(blocks))
        adam_step(params, grads, state, blocks)

    monkeypatch.setattr(embedder, "adam_step", checking_adam)
    ds = small_ds(class_count=4, per_class=6)
    train(ds, tiny_ge2e_cfg(steps=5) if isinstance(loss, GE2EConfig) else tiny_cfg(loss, steps=5))
    assert steps == [4 + {CEConfig: 2, AAMConfig: 1, AAMSCConfig: 1, GE2EConfig: 2}[type(loss)]] * 5


def tiny_ge2e_cfg(steps=40):
    return TrainConfig(loss=GE2EConfig(), total_steps=steps, batch_speakers=3,
                       utts_per_speaker=2, seed=3, hidden_dims=(8,), embed_dim=6)


def _nan_in_gradient(real, field):
    """``real`` loss whose returned gradient holds one NaN in ``field``."""
    def loss(*args):
        out = real(*args)
        if field == "embeddings":
            out.grad_embeddings[(0,) * out.grad_embeddings.ndim] = np.nan
        elif field == "weight":
            out.grad_params.weight[0, 0] = np.nan
        else:
            setattr(out.grad_params, field, math.nan)
        return out
    return loss


@pytest.mark.parametrize("loss_name,field,block", [
    ("ce_loss", "embeddings", "mlp.weight0"),  # backprop spreads the NaN to every layer
    ("ce_loss", "weight", "classifier.weight"),
    ("ge2e_loss", "ge2e_w", "ge2e.w"),
])
def test_train_names_block_with_non_finite_gradient(monkeypatch, loss_name, field, block):
    ds = small_ds(class_count=4, per_class=6)
    cfg = tiny_ge2e_cfg(steps=3) if loss_name == "ge2e_loss" else tiny_cfg(steps=3)
    monkeypatch.setattr(embedder, loss_name, _nan_in_gradient(getattr(embedder, loss_name), field))
    with pytest.raises(DivergenceError, match=f"non-finite gradient in parameter block '{block}'"):
        train(ds, cfg)


@pytest.mark.parametrize("loss,block", [
    (CEConfig(class_count=4), "mlp.bias0"),
    (CEConfig(class_count=4), "classifier.weight"),
    (GE2EConfig(), "ge2e.w"),
])
def test_train_names_block_with_non_finite_parameter(monkeypatch, loss, block):
    real_adam_step = embedder.adam_step

    def adam_step_then_nan(params, grads, state, blocks):
        real_adam_step(params, grads, state, blocks)
        params[dict(blocks)[block].start] = np.nan

    ds = small_ds(class_count=4, per_class=6)
    cfg = tiny_ge2e_cfg(steps=3) if isinstance(loss, GE2EConfig) else tiny_cfg(loss, steps=3)
    monkeypatch.setattr(embedder, "adam_step", adam_step_then_nan)
    with pytest.raises(DivergenceError,
                       match=f"non-finite parameter in block '{block}' after step 0"):
        train(ds, cfg)


# ----------------------------------------------------------------------
# model serialization


def test_model_save_load_round_trip(tmp_path):
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert dump_json17(model_to_dict(back)) == dump_json17(model_to_dict(model))
    for wa, wb in zip(model.embedder.weights, back.embedder.weights):
        assert np.array_equal(wa, wb)


def test_model_save_byte_identical(tmp_path):
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_with_non_finite_manifest_values_saves_loads_and_saves_the_same_bytes(tmp_path):
    model, _ = train(small_ds(), tiny_cfg(steps=0))
    model.train_manifest.update(final_loss=math.nan, bounds=[math.inf, -math.inf])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert b"[Infinity, -Infinity]" in first.read_bytes()
    assert second.read_bytes() == first.read_bytes()


def test_model_file_holds_the_header_fields_and_one_flat_parameter_vector(tmp_path):
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    save_model(model, tmp_path / "model.json")
    d = json.loads((tmp_path / "model.json").read_text(encoding="ascii"))
    assert sorted(d) == ["format_version", "layer_dims", "loss_config", "parameters",
                         "train_manifest"]
    assert d["format_version"] == 3 and d["layer_dims"] == [6, 8, 6]
    # mlp.weight0, mlp.bias0, mlp.weight1, mlp.bias1, classifier.weight, classifier.bias
    layout = parameter_layout((6, 8, 6), CEConfig(class_count=4))
    assert [(name, shape, sl.start, sl.stop) for name, shape, sl in layout] == [
        ("mlp.weight0", (8, 6), 0, 48), ("mlp.bias0", (8,), 48, 56),
        ("mlp.weight1", (6, 8), 56, 104), ("mlp.bias1", (6,), 104, 110),
        ("classifier.weight", (4, 6), 110, 134), ("classifier.bias", (4,), 134, 138)]
    arrays = [*chain(*zip(model.embedder.weights, model.embedder.biases)),
              model.classifier.weight, model.classifier.bias]
    # the base64 of the vector's little-endian float64 bytes, whatever the host's byte order
    raw = np.concatenate([a.ravel() for a in arrays]).astype("<f8").tobytes()
    assert d["parameters"] == base64.b64encode(raw).decode("ascii")


def test_model_from_dict_validates_classifier_shape():
    # the classifier's shape follows from the loss config (C = 4 rows of 6):
    # a vector holding one row fewer has the wrong length
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    d = json.loads(dump_json17(model_to_dict(model)))
    rows = dict((name, sl) for name, _, sl in parameter_layout((6, 8, 6), model.loss_config))
    end = rows["classifier.weight"].stop
    d = edit_parameters(d, lambda v: np.delete(v, np.s_[end - 6:end]))
    with pytest.raises(ConfigurationError, match="^model.parameters must be the base64 of 138 "):
        model_from_dict(d)


def test_model_from_dict_rejects_unknown_version():
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    d = model_to_dict(model)
    d["format_version"] = 42
    with pytest.raises(ConfigurationError, match="format_version"):
        model_from_dict(d)


def test_load_model_refuses_the_per_layer_format_naming_the_file(tmp_path):
    # format_version 1 stored per-layer nested lists and four nullable classifier fields
    model, _ = train(small_ds(), tiny_cfg())
    clf = model.classifier
    old = {"format_version": 1, "layer_dims": list(model.embedder.layer_dims),
           "mlp": {"weights": [w.tolist() for w in model.embedder.weights],
                   "biases": [b.tolist() for b in model.embedder.biases]},
           "classifier": {"weight": clf.weight.tolist(), "bias": clf.bias.tolist(),
                          "ge2e_w": None, "ge2e_b": None},
           "loss_config": model.loss_config.to_dict(), "train_manifest": model.train_manifest}
    path = tmp_path / "model.json"
    write_json17(old, path)
    with pytest.raises(ConfigurationError) as info:
        load_model(path)
    assert str(info.value) == f"model file {path}: unsupported format_version 1"


def test_load_model_refuses_the_json_list_format_naming_the_file(tmp_path):
    # format_version 2 stored the same flat vector as a JSON list of numbers
    model, _ = train(small_ds(), tiny_cfg())
    old = {**model_to_dict(model), "format_version": 2,
           "parameters": parameter_vector(model).tolist()}
    path = tmp_path / "model.json"
    write_json17(old, path)
    with pytest.raises(ConfigurationError) as info:
        load_model(path)
    assert str(info.value) == f"model file {path}: unsupported format_version 2"


@pytest.fixture(scope="module")
def aamsc_model_dict():
    """A trained AAMSC model as plain JSON values."""
    cfg = tiny_cfg(loss=AAMSCConfig(class_count=4, scale=30.0, margin=0.1, subcenters=2),
                   steps=3)
    model, _ = train(small_ds(), cfg)
    return json.loads(dump_json17(model_to_dict(model)))


def _set(path, value):
    """Mutator that sets ``d[path[0]][path[1]]...`` to ``value``."""
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return mutate


def _drop(*path):
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        del d[path[-1]]
    return mutate


def _vector(edit):
    """Mutator that applies ``edit`` to the parameter vector (see ``edit_parameters``)."""
    return lambda d: d.update(edit_parameters(d, edit))


def _entry(i, value):
    """Vector edit that sets entry ``i`` to ``value``."""
    def edit(v):
        v[i] = value
        return v
    return edit


def _text(edit):
    """Mutator that replaces the ``parameters`` text by ``edit(text)``."""
    def mutate(d):
        d["parameters"] = edit(d["parameters"])
    return mutate


def _bytes(edit):
    """Mutator that re-encodes ``edit`` applied to the decoded parameter bytes."""
    return _text(lambda t: base64.b64encode(edit(base64.b64decode(t))).decode("ascii"))


BASE64_DIGITS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _odd_last_digit(text):
    """``text``, ending in one byte's two digits and "==", with a low bit set in
    the second digit, which ``b64decode`` ignores: the same bytes, non-canonical."""
    assert text.endswith("==")
    return text[:-3] + BASE64_DIGITS[BASE64_DIGITS.index(text[-3]) | 1] + "=="


def _nan_bits(v):
    v.view(np.int64)[3] = 0x7FF0000000000001
    return v


# the AAMSC model above holds 6*8 + 8 + 8*6 + 6 + (4*2)*6 = 158 parameters
PARAMETERS = "model.parameters must be the base64 of 158 finite little-endian float64 values"


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: [d.pop(k) for k in list(d) if k != "format_version"],
     "model.layer_dims is missing"),
    (_set(["format_version"], True), "format_version"),
    (_set(["format_version"], "1"), "format_version"),
    (_set(["layer_dims"], "x"), "model.layer_dims must be a list"),
    (_set(["layer_dims"], [6]), "model.layer_dims must list two or more ints >= 1"),
    (_set(["layer_dims", 1], 0), "model.layer_dims must list two or more ints >= 1"),
    (_set(["layer_dims", 1], True), "model.layer_dims must list two or more ints >= 1"),
    (_set(["layer_dims", 1], 8.0), "model.layer_dims must list two or more ints >= 1"),
    (_set(["layer_dims", 1], 9),
     "model.parameters must be the base64 of 171 finite little-endian float64 values"),
    (_set(["layer_dims"], [6, 8, 8, 6]), "model.parameters must be the base64 of 230 "),
    (_drop("parameters"), "model.parameters is missing"),
    (_set(["parameters"], {}), "model.parameters must be a string"),
    (_set(["parameters"], [0.5] * 158), "model.parameters must be a string"),
    (_set(["parameters"], None), "model.parameters must be a string"),
    (_text(lambda t: "!" + t[1:]), PARAMETERS),
    (_text(lambda t: t[:40] + "-" + t[41:]), PARAMETERS),
    (_text(lambda t: t[:40] + "\u00e9" + t[41:]), PARAMETERS),
    (_text(lambda t: t[:40] + " " + t[40:]), PARAMETERS),
    (_text(lambda t: t + "\n"), PARAMETERS),
    (_text(lambda t: t[:-1]), PARAMETERS),
    (_text(lambda t: t + "="), PARAMETERS),
    (_text(lambda t: t[:-2]), PARAMETERS),
    (_text(lambda t: t[:40] + "=" + t[41:]), PARAMETERS),
    (_text(_odd_last_digit), PARAMETERS),
    (_text(lambda t: ""), PARAMETERS),
    (_bytes(lambda b: b[:-1]), PARAMETERS),
    (_bytes(lambda b: b + b"\0"), PARAMETERS),
    (_bytes(lambda b: b[:-8]), PARAMETERS),
    (_bytes(lambda b: b + bytes(8)), PARAMETERS),
    (_vector(_entry(57, math.nan)), PARAMETERS),
    (_vector(_entry(157, -math.inf)), PARAMETERS),
    (_vector(_entry(0, math.inf)), PARAMETERS),
    (_vector(_nan_bits), PARAMETERS),
    (_vector(lambda v: v[:-1]), PARAMETERS),
    (_vector(lambda v: np.append(v, 0.5)), PARAMETERS),
    (_set(["loss_config"], []), "model.loss_config must be an object"),
    (_set(["loss_config", "kind"], "bogus"), "unknown loss kind"),
    (_set(["loss_config", "class_count"], "5"), "model.loss_config.class_count must be an integer"),
    (_set(["loss_config", "class_count"], 4.0), "model.loss_config.class_count must be an integer"),
    (_set(["loss_config", "class_count"], True), "model.loss_config.class_count must be an integer"),
    (_set(["loss_config", "subcenters"], "x"), "model.loss_config.subcenters must be an integer"),
    (_drop("loss_config", "subcenters"), "model.loss_config.subcenters is missing"),
    (_set(["loss_config", "subcenters"], 3), "model.parameters must be the base64 of 182 "),
    (_set(["loss_config", "scale"], True), "model.loss_config.scale must be a finite number"),
    (_set(["loss_config", "margin"], "0.1"), "model.loss_config.margin must be a finite number"),
    (_set(["loss_config", "easy_margin"], "false"), "model.loss_config.easy_margin must be a bool"),
    (_set(["loss_config"], {"kind": "ge2e", "init_w": "x", "init_b": -5.0}),
     "model.loss_config.init_w must be a finite number"),
    (_set(["loss_config"], {"kind": "ge2e", "init_w": 10.0, "init_b": math.inf}),
     "model.loss_config.init_b must be a finite number"),
    (_set(["loss_config"], {"kind": "ge2e", "init_w": 10.0, "init_b": -5.0}),
     "model.parameters must be the base64 of 112 "),
    (_drop("train_manifest"), "model.train_manifest is missing"),
])
def test_model_from_dict_rejects_malformed_fields(aamsc_model_dict, mutate, needle):
    d = json.loads(json.dumps(aamsc_model_dict))
    model_from_dict(d)  # the unmodified copy loads
    mutate(d)
    with pytest.raises(LabelNoiseError, match=needle):
        model_from_dict(d)


# Every loss kind ``train`` can write, with the classifier fields it owns.
OWNED_FIELDS = {
    "ce": (CEConfig(class_count=4), ("weight", "bias")),
    "nsl": (nsl_config(class_count=4, scale=30.0), ("weight",)),
    "aam": (AAMConfig(class_count=4, scale=30.0, margin=0.2), ("weight",)),
    "aamsc-1": (AAMSCConfig(class_count=4, scale=30.0, margin=0.2, subcenters=1), ("weight",)),
    "aamsc-3": (AAMSCConfig(class_count=4, scale=30.0, margin=0.2, subcenters=3), ("weight",)),
    "ge2e": (GE2EConfig(), ("ge2e_w", "ge2e_b")),
}
# A value of the right shape for each field (C=4, K=1, embed_dim 6), and its block's name.
FIELD_VALUES = {"weight": [[0.5] * 6] * 4, "bias": [0.5] * 4, "ge2e_w": 3.0, "ge2e_b": 0.0}
FIELD_BLOCKS = {"weight": "classifier.weight", "bias": "classifier.bias",
                "ge2e_w": "ge2e.w", "ge2e_b": "ge2e.b"}


@pytest.fixture(scope="module")
def trained_models():
    """One model trained for 3 steps per loss kind."""
    models = {}
    for name, (loss, _) in OWNED_FIELDS.items():
        cfg = tiny_ge2e_cfg(steps=3) if name == "ge2e" else tiny_cfg(loss=loss, steps=3)
        models[name] = train(small_ds(per_class=6), cfg)[0]
    return models


@pytest.fixture(scope="module")
def trained_model_dicts(trained_models):
    """``trained_models`` as plain JSON values."""
    return {name: json.loads(dump_json17(model_to_dict(model)))
            for name, model in trained_models.items()}


def _model_bits(model):
    """Type, shape and bytes of each of the model's arrays and classifier
    fields, None for an unset field."""
    clf = model.classifier
    fields = [getattr(clf, f) for f in FIELD_VALUES]
    return [None if a is None else (type(a), np.shape(a), np.asarray(a).tobytes())
            for a in [*model.embedder.weights, *model.embedder.biases, *fields]]


@pytest.mark.parametrize("name", sorted(OWNED_FIELDS))
def test_every_trained_model_loads_and_owns_only_its_classifier_fields(tmp_path, trained_models,
                                                                       name):
    # saved and loaded, the model has the bits it was trained to, GE2E's
    # scalars as Python floats, and it writes out as the same bytes
    model = trained_models[name]
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    assert _model_bits(back) == _model_bits(model)
    assert [f for f in FIELD_VALUES if getattr(back.classifier, f) is not None] == list(
        OWNED_FIELDS[name][1])
    assert (back.loss_config, back.train_manifest) == (model.loss_config, model.train_manifest)
    save_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


@pytest.mark.parametrize("name,key", [(name, key) for name, (_, owned) in OWNED_FIELDS.items()
                                      for key in FIELD_VALUES])
def test_model_from_dict_refuses_classifier_fields_of_another_loss_kind(trained_models,
                                                                        trained_model_dicts,
                                                                        name, key):
    # a vector lacking a block the kind owns, or holding one more that it
    # does not own, does not have the length of the kind's layout
    model = trained_models[name]
    layout = parameter_layout(model.embedder.layer_dims, model.loss_config)
    size = layout[-1][2].stop
    if key in OWNED_FIELDS[name][1]:
        block = dict((n, sl) for n, _, sl in layout)[FIELD_BLOCKS[key]]
        d = edit_parameters(trained_model_dicts[name], lambda v: np.delete(v, block))
    else:
        d = edit_parameters(trained_model_dicts[name],
                            lambda v: np.append(v, np.ravel(FIELD_VALUES[key])))
    with pytest.raises(ConfigurationError, match=rf"^model\.parameters must be the base64 of "
                                                 rf"{size} finite little-endian float64 values$"):
        model_from_dict(d)


def test_model_from_dict_rejects_non_object():
    with pytest.raises(ConfigurationError, match="format_version"):
        model_from_dict([1, 2])


def test_load_model_malformed_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json", encoding="ascii")
    with pytest.raises(ParseError, match=r"malformed model file .*: Expecting .* \(line 1\)"):
        load_model(path)


def _load_or_refuse(path):
    """load_model's model, or None when it refuses the file with a
    LabelNoiseError; any other exception fails the test. A model that
    loads writes out and reads back as itself."""
    try:
        model = load_model(path)
    except LabelNoiseError:
        return None
    text = dump_json17(model_to_dict(model))
    assert dump_json17(model_to_dict(model_from_dict(json.loads(text)))) == text
    return model


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(OWNED_FIELDS)), BYTE_EDITS)
def test_load_model_takes_any_byte_edit_of_a_good_file(tmp_path_factory, trained_model_dicts,
                                                       name, edits):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_bytes(edit_bytes((dump_json17(trained_model_dicts[name]) + "\n").encode("ascii"),
                                edits))
    got = _load_or_refuse(path)
    if not edits:
        assert dump_json17(model_to_dict(got)) == dump_json17(trained_model_dicts[name])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(OWNED_FIELDS)),
       st.lists(st.tuples(st.integers(0, 10 ** 6), JSON_VALUES), min_size=1, max_size=3))
def test_load_model_takes_any_value_in_any_place(tmp_path_factory, trained_model_dicts,
                                                name, edits):
    """Each edit replaces one value of the model's JSON, the root included;
    NaN and the infinities are written as JSON's decoder reads them."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(replace_values(trained_model_dicts[name], edits)), encoding="ascii")
    _load_or_refuse(path)


EXTREMES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     sys.float_info.max, -sys.float_info.max, 1.0, -1.0, math.pi])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, 158, elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.resize(EXTREMES, 158))
def test_any_finite_vector_saves_and_loads_with_its_bits(tmp_path_factory, aamsc_model_dict,
                                                         vec):
    model = model_from_dict(edit_parameters(aamsc_model_dict, lambda v: vec))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert parameter_vector(load_model(path)).view(np.int64).tolist() == \
        vec.view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["replace", "insert", "delete"]),
       st.integers(0, 10 ** 6) | st.integers(-4, -1),  # half of them in the last four
       st.sampled_from(BASE64_DIGITS + "=") | st.characters())
def test_every_one_character_edit_of_the_parameters_is_refused_or_changes_the_vector(
        aamsc_model_dict, kind, i, char):
    text = aamsc_model_dict["parameters"]
    k = i % (len(text) + (kind == "insert"))
    edited = text[:k] + {"replace": char, "insert": char + text[k:k + 1], "delete": ""}[kind] \
        + text[k + 1:]
    assume(edited != text)
    try:
        model = model_from_dict({**aamsc_model_dict, "parameters": edited})
    except LabelNoiseError:
        return
    assert parameter_vector(model).tobytes() != base64.b64decode(text)


def test_write_loss_curve_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_loss_curve([(0, 1.5), (1, 0.25)], path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,1.5"
    assert float(lines[2].split(",")[1]) == 0.25
