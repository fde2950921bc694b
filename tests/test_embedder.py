"""MLP embedder, Adam updates, balanced batching, and the training loop."""

import json
import math

import numpy as np
import pytest

import labelnoise.embedder as embedder
from labelnoise.embedder import (
    AdamState,
    MlpParams,
    TrainConfig,
    adam_step,
    _sample_positions,
    easy_margin_boundary,
    embed_batch,
    init_mlp,
    load_model,
    mlp_backward,
    mlp_forward,
    model_from_dict,
    model_to_dict,
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
from labelnoise.jsonutil import dump_json17
from labelnoise.losses import AAMConfig, AAMSCConfig, CEConfig, GE2EConfig, nsl_config
from labelnoise.seeding import named_rng
from labelnoise.synthdata import Dataset, generate_dataset
from oracles import (
    BlockAdamState,
    block_adam_step,
    ids_by_observed_class,
    per_class_sample_positions,
    plain_aam_loss,
    plain_aamsc_loss,
    plain_adam_step,
    plain_ge2e_loss,
    plain_mlp_backward,
    plain_mlp_forward,
)


# ----------------------------------------------------------------------
# MLP forward/backward


def test_init_mlp_shapes_and_bounds():
    mlp = init_mlp((6, 5, 3), named_rng(0, "init"))
    assert [w.shape for w in mlp.weights] == [(5, 6), (3, 5)]
    assert [b.shape for b in mlp.biases] == [(5,), (3,)]
    assert mlp.layer_dims == (6, 5, 3)
    assert np.max(np.abs(mlp.weights[0])) <= 1.0 / math.sqrt(6)
    assert np.max(np.abs(mlp.weights[1])) <= 1.0 / math.sqrt(5)


def test_init_mlp_deterministic():
    a = init_mlp((4, 3), named_rng(5, "init"))
    b = init_mlp((4, 3), named_rng(5, "init"))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_mlp_validation():
    with pytest.raises(ConfigurationError):
        init_mlp((4,), named_rng(0, "init"))
    with pytest.raises(ConfigurationError):
        init_mlp((4, 0), named_rng(0, "init"))


def test_single_linear_identity_layer_passes_through():
    mlp = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.asarray([0.5, -1.2, 2.0])
    assert np.array_equal(embed_batch(mlp, x[None, :]), x[None, :])


def test_zero_parameters_give_zero_embedding():
    mlp = MlpParams(weights=[np.zeros((4, 3)), np.zeros((2, 4))],
                    biases=[np.zeros(4), np.zeros(2)])
    assert np.array_equal(embed_batch(mlp, np.asarray([[1.0, 2.0, 3.0]])), np.zeros((1, 2)))


def test_hidden_layers_apply_tanh_final_linear():
    mlp = MlpParams(weights=[np.eye(2) * 3.0, np.eye(2)],
                    biases=[np.zeros(2), np.zeros(2)])
    out = embed_batch(mlp, np.asarray([[1.0, -1.0]]))
    assert np.allclose(out, [[math.tanh(3.0), math.tanh(-3.0)]], atol=1e-15)


def test_forward_dim_mismatch():
    mlp = init_mlp((4, 3), named_rng(0, "init"))
    with pytest.raises(DomainError, match="dim-4"):
        embed_batch(mlp, np.ones((1, 5)))
    with pytest.raises(DomainError):
        mlp_forward(mlp, np.ones((2, 5)))


def test_embed_batch_matches_single():
    mlp = init_mlp((5, 4, 3), named_rng(1, "init"))
    x = named_rng(2, "x").standard_normal((6, 5))
    batch = embed_batch(mlp, x)
    for i in range(6):
        assert np.allclose(batch[i], embed_batch(mlp, x[i:i + 1])[0], atol=1e-15)


def test_mlp_backward_matches_finite_difference_jacobian():
    rng = named_rng(3, "fd")
    mlp = init_mlp((5, 6, 4), rng)
    x = rng.standard_normal((3, 5))
    v = rng.standard_normal((3, 4))  # random projection: scalar loss v . f(x)

    out, cache = mlp_forward(mlp, x)
    grad_w, grad_b = mlp_backward(mlp, cache, v)
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


def test_mlp_backward_has_the_bits_of_the_full_backward_pass():
    rng = named_rng(4, "backward")
    mlp = init_mlp((20, 64, 64, 32), rng)
    x = rng.standard_normal((50, 20))
    _, cache = mlp_forward(mlp, x)
    grad_out = rng.standard_normal((50, 32))
    grad_w, grad_b = mlp_backward(mlp, cache, grad_out)
    want_w, want_b, _ = plain_mlp_backward(mlp, cache, grad_out)
    assert [g.tobytes() for g in grad_w] == [g.tobytes() for g in want_w]
    assert [g.tobytes() for g in grad_b] == [g.tobytes() for g in want_b]


# ----------------------------------------------------------------------
# Adam


def test_adam_scalar_hand_oracle():
    # fresh state, g=1: m-hat = 1, v-hat = 1, step = lr / (1 + eps)
    p = np.asarray([0.0])
    state = AdamState.fresh(p, learning_rate=1e-4)
    adam_step(p, np.asarray([1.0]), state)
    assert p[0] == pytest.approx(-1e-4 / (1.0 + 1e-8), rel=1e-12)
    assert state.step_count == 1


def test_adam_zero_gradient_leaves_parameters():
    p = np.asarray([1.5, -2.5])
    state = AdamState.fresh(p, learning_rate=1e-4)
    adam_step(p, np.zeros(2), state)
    assert np.array_equal(p, [1.5, -2.5])


def test_adam_two_runs_bit_identical():
    rng = named_rng(4, "adam")
    grads = [rng.standard_normal(6) for _ in range(10)]

    def run():
        p = np.zeros(6)
        state = AdamState.fresh(p, learning_rate=1e-3)
        for g in grads:
            adam_step(p, g, state)
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
        adam_step(p, np.zeros(3), state)
    with pytest.raises(ConfigurationError):  # state built for another vector
        adam_step(np.zeros(3), np.zeros(3), state)


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
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), state)
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
        adam_step(p, g, state)
        plain_adam_step(ref_p, g, ref_state)
    assert 1.0 - state.beta1 ** state.step_count == 1.0
    assert p.tobytes() == ref_p.tobytes()
    assert state.m.tobytes() == ref_state.m.tobytes()
    assert state.v.tobytes() == ref_state.v.tobytes()


# ----------------------------------------------------------------------
# batch sampling


def small_ds(class_count=4, per_class=5, seed=0):
    return generate_dataset(class_count, per_class, 2, 6, 0.1, seed=seed)


def sample(ds, n_speakers, m_utts, rng):
    """The batch draw ``train`` makes: (N, M) positions and N labels."""
    return _sample_positions(ds.class_table(m_utts), n_speakers, m_utts, rng)


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
    full = generate_dataset(60, 60, 2, 6, 0.1, seed=4)
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
        for _ in range(300):
            positions, labels = _sample_positions(table, n_speakers, m_utts, rng)
            ref_positions, ref_labels = per_class_sample_positions(groups, n_speakers, m_utts, ref)
            assert positions.dtype == ref_positions.dtype and labels.dtype == ref_labels.dtype
            assert np.array_equal(positions, ref_positions)
            assert np.array_equal(labels, ref_labels)
        assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ConfigurationError, match=f"only {eligible} eligible"):
        _sample_positions(table, eligible + 1, m_utts, named_rng(0, "batches"))


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
    for _ in range(200):
        positions, labels = _sample_positions(table, 2, 4, rng)
        ref_positions, ref_labels = per_class_sample_positions(groups, 2, 4, ref)
        assert np.array_equal(positions, ref_positions)
        assert np.array_equal(labels, ref_labels)
    assert rng.bit_generator.state == ref.bit_generator.state


# ----------------------------------------------------------------------
# TrainConfig


def test_train_config_validation():
    with pytest.raises(ConfigurationError, match="GE2E"):
        TrainConfig(loss=GE2EConfig(), utts_per_speaker=1)
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
    ds = small_ds()
    model, curve = train(ds, tiny_cfg(steps=0))
    assert curve == []
    assert model.embedder.layer_dims == (6, 8, 6)
    assert model.train_manifest["total_steps"] == 0
    assert np.all(np.isfinite(model.classifier.weight))


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
    ds = generate_dataset(4, 8, 4, 8, 0.0, seed=123)
    cfg = TrainConfig(loss=CEConfig(class_count=4), total_steps=2000,
                      batch_speakers=4, utts_per_speaker=1, seed=7)
    model, curve = train(ds, cfg)
    assert curve[-1][1] < 0.1


def test_train_class_count_mismatch():
    ds = small_ds(class_count=4)
    cfg = tiny_cfg(loss=CEConfig(class_count=5))
    with pytest.raises(ConfigurationError, match="class_count"):
        train(ds, cfg)


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

    def recording_adam(params, grads, state, blocks=None):
        states.append(state)
        return adam(params, grads, state, blocks)

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
                        ("mlp_backward", lambda *args: plain_mlp_backward(*args)[:2])]:
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
                        ("mlp_backward", lambda *args: plain_mlp_backward(*args)[:2])]:
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
    for name in ("ce_loss", "aamsc_loss", "ge2e_loss", "mlp_backward"):
        def recording(*args, _real=getattr(embedder, name), _name=name):
            seen[_name] = result = _real(*args)
            return result
        monkeypatch.setattr(embedder, name, recording)
    steps = []

    def checking_adam(params, grads, state, blocks=None):
        gw, gb = seen.pop("mlp_backward")
        (out,) = seen.values()
        seen.clear()
        fields = [getattr(out.grad_params, f) for f in ("weight", "bias", "ge2e_w", "ge2e_b")]
        expected = np.concatenate([g.ravel() for pair in zip(gw, gb) for g in pair]
                                  + [np.ravel(f) for f in fields if f is not None])
        assert grads.tobytes() == expected.tobytes()
        steps.append(len(blocks))
        return adam_step(params, grads, state, blocks)

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

    def adam_step_then_nan(params, grads, state, blocks=None):
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


def test_model_from_dict_validates_classifier_shape():
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    d = model_to_dict(model)
    d["classifier"]["weight"] = [[0.0] * 6] * 3  # wrong row count for C=4
    with pytest.raises(ConfigurationError, match="classifier weight shape"):
        model_from_dict(d)


def test_model_from_dict_rejects_unknown_version():
    ds = small_ds()
    model, _ = train(ds, tiny_cfg())
    d = model_to_dict(model)
    d["format_version"] = 42
    with pytest.raises(ConfigurationError, match="format_version"):
        model_from_dict(d)


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


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: [d.pop(k) for k in list(d) if k != "format_version"], "model.mlp is missing"),
    (_set(["format_version"], True), "format_version"),
    (_set(["format_version"], "1"), "format_version"),
    (_drop("mlp", "biases"), "model.mlp.biases is missing"),
    (_set(["mlp", "weights"], {}), "model.mlp.weights must be a list"),
    (_set(["mlp", "weights", 0, 0, 0], "x"), r"model.mlp.weights\[0\] must be"),
    (_set(["mlp", "weights", 0, 0, 0], True), r"model.mlp.weights\[0\] must be"),
    (_set(["mlp", "weights", 0, 0, 0], 10 ** 400), r"model.mlp.weights\[0\] must be"),
    (_set(["mlp", "weights", 0, 1], [0.5]), r"model.mlp.weights\[0\] must be"),
    (_set(["mlp", "biases", 1, 0], math.nan), r"model.mlp.biases\[1\] must be"),
    (_set(["mlp", "biases", 0], [0.0]), "layer 0: .* do not chain"),
    (lambda d: [row.pop() for row in d["mlp"]["weights"][1]], "layer 1: .* do not chain"),
    (_set(["mlp", "biases"], []), "as many biases as weights"),
    (_drop("classifier", "bias"), "model.classifier.bias is missing"),
    (_set(["classifier", "weight"], "x"), "model.classifier.weight must be a list"),
    (_set(["classifier", "ge2e_w"], "x"), "model.classifier.ge2e_w must be a finite number"),
    (_set(["loss_config"], []), "model.loss_config must be an object"),
    (_set(["loss_config", "kind"], "bogus"), "unknown loss kind"),
    (_set(["loss_config", "class_count"], "5"), "model.loss_config.class_count must be an integer"),
    (_set(["loss_config", "class_count"], 4.0), "model.loss_config.class_count must be an integer"),
    (_set(["loss_config", "class_count"], True), "model.loss_config.class_count must be an integer"),
    (_set(["loss_config", "subcenters"], "x"), "model.loss_config.subcenters must be an integer"),
    (_drop("loss_config", "subcenters"), "model.loss_config.subcenters is missing"),
    (_set(["loss_config", "scale"], True), "model.loss_config.scale must be a finite number"),
    (_set(["loss_config", "margin"], "0.1"), "model.loss_config.margin must be a finite number"),
    (_set(["loss_config", "easy_margin"], "false"), "model.loss_config.easy_margin must be a bool"),
    (_set(["loss_config"], {"kind": "ge2e", "init_w": "x", "init_b": -5.0}),
     "model.loss_config.init_w must be a finite number"),
    (_set(["loss_config"], {"kind": "ge2e", "init_w": 10.0, "init_b": math.inf}),
     "model.loss_config.init_b must be a finite number"),
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
# A value of the right JSON kind for each field (C=4, K=1, embed_dim 6).
FIELD_VALUES = {"weight": [[0.5] * 6] * 4, "bias": [0.5] * 4, "ge2e_w": 3.0, "ge2e_b": 0.0}


@pytest.fixture(scope="module")
def trained_model_dicts():
    """One trained model per loss kind, as plain JSON values."""
    dicts = {}
    for name, (loss, _) in OWNED_FIELDS.items():
        cfg = tiny_ge2e_cfg(steps=3) if name == "ge2e" else tiny_cfg(loss=loss, steps=3)
        model, _ = train(small_ds(per_class=6), cfg)
        dicts[name] = json.loads(dump_json17(model_to_dict(model)))
    return dicts


@pytest.mark.parametrize("name", sorted(OWNED_FIELDS))
def test_every_trained_model_loads_and_owns_only_its_classifier_fields(trained_model_dicts,
                                                                       name):
    d = trained_model_dicts[name]
    model = model_from_dict(json.loads(json.dumps(d)))
    owned = OWNED_FIELDS[name][1]
    assert [k for k, v in d["classifier"].items() if v is not None] == sorted(owned)
    assert dump_json17(model_to_dict(model)) == dump_json17(d)


@pytest.mark.parametrize("name,key", [(name, key) for name, (_, owned) in OWNED_FIELDS.items()
                                      for key in FIELD_VALUES])
def test_model_from_dict_refuses_classifier_fields_of_another_loss_kind(trained_model_dicts,
                                                                        name, key):
    # an owned field set to null, or a field the kind does not own set to a value
    d = json.loads(json.dumps(trained_model_dicts[name]))
    owned = key in OWNED_FIELDS[name][1]
    d["classifier"][key] = None if owned else FIELD_VALUES[key]
    kind = d["loss_config"]["kind"]
    need = "must not be null" if owned else "must be null"
    with pytest.raises(ConfigurationError,
                       match=rf"^model\.classifier\.{key} {need} for loss kind '{kind}'$"):
        model_from_dict(d)


def test_model_from_dict_rejects_non_object():
    with pytest.raises(ConfigurationError, match="format_version"):
        model_from_dict([1, 2])


def test_load_model_malformed_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json", encoding="ascii")
    with pytest.raises(ParseError, match=r"malformed model file .*: Expecting .* \(line 1\)"):
        load_model(path)


def test_write_loss_curve_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_loss_curve([(0, 1.5), (1, 0.25)], path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,1.5"
    assert float(lines[2].split(",")[1]) == 0.25
