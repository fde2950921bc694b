"""MLP embedder, Adam updates, balanced batching, and the training loop."""

import json
import math

import numpy as np
import pytest

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
from labelnoise.errors import ConfigurationError, DivergenceError, DomainError
from labelnoise.jsonutil import dump_json17
from labelnoise.losses import AAMSCConfig, CEConfig, GE2EConfig
from labelnoise.seeding import named_rng
from labelnoise.synthdata import generate_dataset


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
    grad_w, grad_b, grad_x = mlp_backward(mlp, cache, v)

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


# ----------------------------------------------------------------------
# Adam


def test_adam_scalar_hand_oracle():
    # fresh state, g=1: m-hat = 1, v-hat = 1, step = lr / (1 + eps)
    p = [np.asarray([0.0])]
    state = AdamState.fresh(p, learning_rate=1e-4)
    adam_step(p, [np.asarray([1.0])], state)
    assert p[0][0] == pytest.approx(-1e-4 / (1.0 + 1e-8), rel=1e-12)
    assert state.step_count == 1


def test_adam_zero_gradient_leaves_parameters():
    p = [np.asarray([1.5, -2.5])]
    state = AdamState.fresh(p, learning_rate=1e-4)
    adam_step(p, [np.zeros(2)], state)
    assert np.array_equal(p[0], [1.5, -2.5])


def test_adam_two_runs_bit_identical():
    rng = named_rng(4, "adam")
    grads = [rng.standard_normal((3, 2)) for _ in range(10)]

    def run():
        p = [np.zeros((3, 2))]
        state = AdamState.fresh(p, learning_rate=1e-3)
        for g in grads:
            adam_step(p, [g], state)
        return p[0]

    assert np.array_equal(run(), run())


def test_adam_rejects_non_finite_gradient():
    p = [np.zeros(2)]
    state = AdamState.fresh(p, learning_rate=1e-4)
    with pytest.raises(DivergenceError, match="classifier.weight"):
        adam_step(p, [np.asarray([1.0, np.nan])], state, names=["classifier.weight"])


def test_adam_rejects_shape_mismatch():
    p = [np.zeros(2)]
    state = AdamState.fresh(p, learning_rate=1e-4)
    with pytest.raises(ConfigurationError):
        adam_step(p, [np.zeros(3)], state)
    with pytest.raises(ConfigurationError):
        adam_step(p, [np.zeros(2), np.zeros(2)], state)


# ----------------------------------------------------------------------
# batch sampling


def small_ds(class_count=4, per_class=5, seed=0):
    return generate_dataset(class_count, per_class, 2, 6, 0.1, seed=seed)


def sample(ds, n_speakers, m_utts, rng):
    """The batch draw ``train`` makes: (N, M) positions and N labels."""
    return _sample_positions(ds.ids_by_observed_class(), n_speakers, m_utts, rng)


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
    cfg = TrainConfig(loss=GE2EConfig(), batch_speakers=8, utts_per_speaker=2)
    assert cfg.batch_size == 16


def test_train_config_round_trip():
    cfg = TrainConfig(loss=AAMSCConfig(class_count=5, scale=15.0, margin=0.2,
                                       subcenters=3),
                      total_steps=123, batch_speakers=5, seed=9,
                      hidden_dims=(32, 16), embed_dim=8)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


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
    cfg = TrainConfig(loss=GE2EConfig(), total_steps=40, batch_speakers=3,
                      utts_per_speaker=2, seed=3, hidden_dims=(8,), embed_dim=6)
    model, curve = train(ds, cfg)
    # b has an exactly-zero analytic gradient: only float-summation noise
    # can move it, never more than a hair from its -5 initialization
    assert abs(model.classifier.ge2e_b + 5.0) < 1e-6
    assert model.classifier.ge2e_w >= 1e-4
    assert model.classifier.ge2e_w != 10.0  # w does learn
    assert all(math.isfinite(v) for _, v in curve)


def test_train_aamsc_runs_and_records_boundary():
    ds = small_ds()
    cfg = tiny_cfg(loss=AAMSCConfig(class_count=4, scale=30.0, margin=0.1,
                                    subcenters=3), steps=16)
    model, _ = train(ds, cfg)
    assert model.train_manifest["easy_margin_boundary"] == 2  # ceil(16/8)
    assert model.classifier.weight.shape == (12, 6)


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


def test_load_model_malformed_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json", encoding="ascii")
    with pytest.raises(ConfigurationError, match="malformed"):
        load_model(path)


def test_write_loss_curve_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_loss_curve([(0, 1.5), (1, 0.25)], path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,1.5"
    assert float(lines[2].split(",")[1]) == 0.25
