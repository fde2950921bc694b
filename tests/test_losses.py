"""Loss values and analytic gradients: frozen scalars, reductions, FD checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise.embedder import init_parameters, parameter_layout
from labelnoise.errors import ConfigurationError, DomainError
from labelnoise.losses import (
    AAMConfig,
    AAMSCConfig,
    CEConfig,
    ClassifierParams,
    GE2EConfig,
    _margin_cross_entropy,
    _softmax_cross_entropy,
    aamsc_loss,
    ce_loss,
    classify_confidence,
    ge2e_loss,
    loss_config_from_dict,
    nsl_config,
)
from labelnoise.numerics import l2_normalize_rows, log_sum_exp, softmax
from labelnoise.seeding import named_rng
from oracles import (
    _plain_margin_cross_entropy,
    einsum_ge2e_loss,
    plain_aam_loss,
    plain_aamsc_loss,
    plain_ce_loss,
    plain_classify_confidence,
    plain_ge2e_loss,
    plain_l2_normalize_rows,
)

FD_EPS = 1e-6


def fd_gradient(value_fn, array, eps=FD_EPS):
    """Central finite differences of value_fn() w.r.t. one array, in place."""
    grad = np.zeros_like(array)
    flat, gflat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = value_fn()
        flat[i] = orig - eps
        lo = value_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), floor)
    return float(np.linalg.norm(a - b)) / denom


# ----------------------------------------------------------------------
# CE


def test_ce_uniform_logits_value_is_ln_c():
    c, d = 5, 3
    params = ClassifierParams(weight=np.zeros((c, d)), bias=np.zeros(c))
    x = named_rng(0, "x").standard_normal((4, d))
    out = ce_loss(x, [0, 1, 2, 3], params)
    assert out.value == pytest.approx(math.log(c), abs=1e-12)


def test_ce_symmetric_two_class_bias_gradient():
    # identical logits for both classes: grad of the target logit is -0.5/n
    params = ClassifierParams(weight=np.asarray([[1.0, 0.0], [1.0, 0.0]]),
                              bias=np.zeros(2))
    out = ce_loss(np.asarray([[0.3, -0.7]]), [0], params)
    assert np.allclose(out.grad_params.bias, [-0.5, 0.5], atol=1e-12)
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_ce_gradients_match_finite_differences():
    rng = named_rng(1, "ce-fd")
    d, c, n = 8, 4, 4
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    params = ClassifierParams(weight=rng.standard_normal((c, d)),
                              bias=rng.standard_normal(c))
    out = ce_loss(x, y, params)
    value_fn = lambda: ce_loss(x, y, params).value
    assert rel_err(out.grad_embeddings, fd_gradient(value_fn, x)) <= 1e-6
    assert rel_err(out.grad_params.weight, fd_gradient(value_fn, params.weight)) <= 1e-6
    assert rel_err(out.grad_params.bias, fd_gradient(value_fn, params.bias)) <= 1e-6


def test_ce_label_validation():
    params = ClassifierParams(weight=np.zeros((3, 2)), bias=np.zeros(3))
    with pytest.raises(DomainError):
        ce_loss(np.ones((1, 2)), [3], params)
    with pytest.raises(DomainError):
        ce_loss(np.ones((1, 2)), [-1], params)
    with pytest.raises(DomainError):
        ce_loss(np.ones((0, 2)), [], params)
    with pytest.raises(DomainError, match="mismatch"):
        ce_loss(np.ones((2, 2)), [0], params)


def _ce_bits(loss, x, y, w, b):
    """The bytes of value and gradients, or the type and message of the error."""
    try:
        out = loss(x, y, ClassifierParams(weight=w, bias=b))
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return (np.float64(out.value).tobytes(), out.grad_embeddings.tobytes(),
            out.grad_params.weight.tobytes(), out.grad_params.bias.tobytes())


@st.composite
def ce_batches(draw):
    """n x d embeddings and a C x d weight with bias, row scales 1e-3 .. 1e3,
    and rows whose logits tie exactly or to within a few ulps."""
    n, c, d = draw(st.integers(1, 60)), draw(st.integers(2, 60)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    w = rng.standard_normal((c, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(c, 1))
    b = rng.standard_normal(c) * 10.0 ** rng.uniform(-3.0, 3.0)
    tie = draw(st.sampled_from([None, 0.0, 1e-15]))
    if tie is not None:  # every class scores the first one's logit, or nearly
        w[1:] = w[0] * (1.0 + tie * rng.standard_normal((c - 1, 1)))
        b[1:] = b[0]
    return x, rng.integers(c, size=n), w, b


@given(ce_batches())
@settings(max_examples=300, deadline=None)
def test_ce_matches_the_plain_step_bit_for_bit(batch):
    assert _ce_bits(ce_loss, *batch) == _ce_bits(plain_ce_loss, *batch)


@pytest.mark.parametrize("where", ["x", "w", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ce_errors_match_the_plain_step_for_non_finite_input(where, bad):
    rng = named_rng(20, "ce-nonfinite")
    arrays = {"x": rng.standard_normal((5, 3)), "w": rng.standard_normal((4, 3)),
              "b": rng.standard_normal(4)}
    arrays[where].reshape(-1)[1] = bad
    x, w, b = arrays["x"], arrays["w"], arrays["b"]
    y = np.arange(5) % 4
    with np.errstate(all="ignore"):
        got = _ce_bits(ce_loss, x, y, w, b)
        assert got == _ce_bits(plain_ce_loss, x, y, w, b)
    assert got[0] is DomainError


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_cross_entropy_refuses_a_non_finite_logit(bad):
    # the one check of the fused log-sum-exp and softmax, with its message
    logits = np.zeros((3, 4))
    logits[1, 2] = bad
    with pytest.raises(DomainError, match="^log_sum_exp input contains non-finite entries$"):
        _softmax_cross_entropy(logits, np.arange(0, 12, 4))


@pytest.mark.parametrize("where", ["x", "w0", "w1", "w2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_aamsc_errors_match_the_plain_step_for_non_finite_input(where, bad):
    # a non-finite weight in any sub-center, not only the first, is refused
    rng = named_rng(20, "aamsc-nonfinite")
    cfg = AAMSCConfig(class_count=4, scale=30.0, margin=0.2, subcenters=3)
    x, w = rng.standard_normal((5, 3)), rng.standard_normal((12, 3))
    if where == "x":
        x[1, 2] = bad
    else:  # class 1's sub-center k is weight row 1*K + k
        w[3 + int(where[1]), 1] = bad
    y = np.arange(5) % 4

    def bits(loss):
        try:
            return _bits(loss(x, y, ClassifierParams(weight=w), cfg))
        except Exception as exc:  # the error itself is compared
            return type(exc), str(exc)

    with np.errstate(all="ignore"):
        got = bits(aamsc_loss)
        assert got == bits(plain_aamsc_loss)
    assert got[0] is DomainError


def _layouts(a):
    """``a`` as a Fortran-order array, a column-strided and a row-strided view."""
    return np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2], np.repeat(a, 2, axis=0)[::2]


@pytest.mark.parametrize("loss", ["ce", "aamsc"])
def test_ce_and_aamsc_bits_do_not_depend_on_the_memory_layout(loss):
    rng = named_rng(19, f"{loss}-layout")
    for n, c, d in [(1, 2, 1), (7, 5, 3), (50, 50, 32)]:
        x, y = rng.standard_normal((n, d)), rng.integers(c, size=n)
        if loss == "ce":
            b = rng.standard_normal(c)
            bits = lambda f, x, w: _ce_bits(f, x, y, w, b)
            new, plain, w = ce_loss, plain_ce_loss, rng.standard_normal((c, d))
        else:
            cfg = AAMSCConfig(class_count=c, scale=30.0, margin=0.2, subcenters=3)
            bits = lambda f, x, w: _bits(f(x, y, ClassifierParams(weight=w), cfg))
            new, plain, w = aamsc_loss, plain_aamsc_loss, rng.standard_normal((c * 3, d))
        want = bits(plain, x, w)
        for view in _layouts(x):
            assert bits(new, view, w) == want
        for view in _layouts(w):
            assert bits(new, x, view) == want


# ----------------------------------------------------------------------
# AAM


def test_aam_orthonormal_zero_margin_value():
    c = 3
    params = ClassifierParams(weight=np.eye(c))
    cfg = AAMConfig(class_count=c, scale=1.0, margin=0.0)
    out = aamsc_loss(np.asarray([[1.0, 0.0, 0.0]]), [0], params, cfg)
    expected = -math.log(math.e / (math.e + (c - 1)))
    assert out.value == pytest.approx(expected, abs=1e-12)


def test_aam_aligned_target_with_margin_tiny_loss():
    # cos(target) = 1, cos(other) = 0, s = 30, m = 0.2
    params = ClassifierParams(weight=np.asarray([[1.0, 0.0], [0.0, 1.0]]))
    cfg = AAMConfig(class_count=2, scale=30.0, margin=0.2)
    out = aamsc_loss(np.asarray([[1.0, 0.0]]), [0], params, cfg)
    expected = math.log1p(math.exp(-30.0 * math.cos(0.2)))
    assert out.value == pytest.approx(expected, rel=1e-6)
    assert out.value < 1e-12


def test_aam_nsl_reduction_matches_plain_softmax_ce():
    rng = named_rng(2, "nsl")
    d, c, n, s = 6, 4, 5, 15.0
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    params = ClassifierParams(weight=rng.standard_normal((c, d)))
    cfg = nsl_config(class_count=c, scale=s)
    assert cfg.margin == 0.0 and cfg.kind == "aam"
    out = aamsc_loss(x, y, params, cfg)
    xhat, _ = l2_normalize_rows(x, "embedding")
    what, _ = l2_normalize_rows(params.weight, "weight")
    logits = s * np.clip(xhat @ what.T, -1.0, 1.0)
    rows = np.arange(n)
    manual = float(np.mean(log_sum_exp(logits)[0] - logits[rows, y]))
    assert out.value == pytest.approx(manual, abs=1e-12)


def test_aam_scale_invariance_of_inputs():
    rng = named_rng(3, "scale")
    d, c, n = 5, 3, 4
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    w = rng.standard_normal((c, d))
    cfg = AAMConfig(class_count=c, scale=30.0, margin=0.1)
    base = aamsc_loss(x, y, ClassifierParams(weight=w), cfg).value
    x2 = x.copy()
    x2[1] *= 37.5
    w2 = w.copy()
    w2[2] *= 0.004
    assert aamsc_loss(x2, y, ClassifierParams(weight=w), cfg).value == pytest.approx(
        base, abs=1e-10)
    assert aamsc_loss(x, y, ClassifierParams(weight=w2), cfg).value == pytest.approx(
        base, abs=1e-10)


@pytest.mark.parametrize("margin,scale", [(0.1, 15.0), (0.1, 30.0), (0.2, 15.0), (0.2, 30.0)])
def test_aam_gradients_match_finite_differences(margin, scale):
    rng = named_rng(4, f"aam-fd-{margin}-{scale}")
    d, c, n = 6, 4, 5
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    params = ClassifierParams(weight=rng.standard_normal((c, d)))
    cfg = AAMConfig(class_count=c, scale=scale, margin=margin)
    out = aamsc_loss(x, y, params, cfg)
    value_fn = lambda: aamsc_loss(x, y, params, cfg).value
    assert rel_err(out.grad_embeddings, fd_gradient(value_fn, x)) <= 1e-5
    assert rel_err(out.grad_params.weight, fd_gradient(value_fn, params.weight)) <= 1e-5


def test_aam_easy_margin_gradients_away_from_switch():
    rng = named_rng(5, "aam-easy")
    d, c, n = 6, 4, 5
    cfg = AAMConfig(class_count=c, scale=30.0, margin=0.2, easy_margin=True)
    for _ in range(20):
        x = rng.standard_normal((n, d))
        y = rng.integers(c, size=n)
        params = ClassifierParams(weight=rng.standard_normal((c, d)))
        xhat, _ = l2_normalize_rows(x, "embedding")
        what, _ = l2_normalize_rows(params.weight, "weight")
        target_cos = (xhat @ what.T)[np.arange(n), y]
        if np.min(np.abs(target_cos)) < 1e-3:  # easy-margin switch point
            continue
        out = aamsc_loss(x, y, params, cfg)
        value_fn = lambda: aamsc_loss(x, y, params, cfg).value
        assert rel_err(out.grad_embeddings, fd_gradient(value_fn, x)) <= 1e-5
        assert rel_err(out.grad_params.weight,
                       fd_gradient(value_fn, params.weight)) <= 1e-5
        break
    else:
        pytest.fail("no instance away from the easy-margin switch point")


def test_aam_rejects_degenerate_inputs():
    cfg = AAMConfig(class_count=2, scale=30.0, margin=0.1)
    params = ClassifierParams(weight=np.asarray([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="embedding"):
        aamsc_loss(np.zeros((1, 2)), [0], params, cfg)
    bad = ClassifierParams(weight=np.asarray([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError, match="weight"):
        aamsc_loss(np.ones((1, 2)), [0], bad, cfg)


def test_aam_config_validation():
    with pytest.raises(ConfigurationError):
        AAMConfig(class_count=1, scale=30.0, margin=0.1)
    with pytest.raises(ConfigurationError):
        AAMConfig(class_count=2, scale=0.0, margin=0.1)
    with pytest.raises(ConfigurationError):
        AAMConfig(class_count=2, scale=30.0, margin=-0.1)
    with pytest.raises(ConfigurationError):
        AAMConfig(class_count=2, scale=30.0, margin=math.pi / 2)


# ----------------------------------------------------------------------
# AAMSC


def test_aamsc_k1_identical_to_aam():
    # AAM and AAMSC with K = 1 both run through aamsc_loss; the plain AAM
    # step in tests/oracles.py fixes every bit of the value and gradients
    rng = named_rng(6, "aamsc-k1")
    d, c, n = 5, 3, 4
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    params = ClassifierParams(weight=rng.standard_normal((c, d)))
    for margin, easy_margin in itertools.product((0.0, 0.1), (False, True)):
        aam = AAMConfig(class_count=c, scale=30.0, margin=margin, easy_margin=easy_margin)
        k1 = AAMSCConfig(class_count=c, scale=30.0, margin=margin, subcenters=1,
                         easy_margin=easy_margin)
        ref = _bits(plain_aam_loss(x, y, params, aam))
        assert _bits(aamsc_loss(x, y, params, aam)) == ref
        assert _bits(aamsc_loss(x, y, params, k1)) == ref


def test_aamsc_max_subcenter_selected():
    # class 0 owns sub-centers [x, orth, orth]: its selected cosine is 1,
    # so the loss equals the AAM loss on the best row per class
    x = np.asarray([[1.0, 0.0, 0.0, 0.0]])
    w = np.asarray([
        [1.0, 0.0, 0.0, 0.0],   # class 0, sub 0 (aligned)
        [0.0, 1.0, 0.0, 0.0],   # class 0, sub 1
        [0.0, 0.0, 1.0, 0.0],   # class 0, sub 2
        [0.0, 0.0, 0.0, 1.0],   # class 1, sub 0
        [0.0, -1.0, 0.0, 0.0],  # class 1, sub 1
        [-1.0, 0.0, 0.0, 0.0],  # class 1, sub 2
    ])
    cfg = AAMSCConfig(class_count=2, scale=30.0, margin=0.2, subcenters=3)
    out = aamsc_loss(x, [0], ClassifierParams(weight=w), cfg)
    best = np.asarray([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    ref = plain_aam_loss(x, [0], ClassifierParams(weight=best),
                         AAMConfig(class_count=2, scale=30.0, margin=0.2))
    assert out.value == pytest.approx(ref.value, abs=1e-12)


def test_aamsc_tie_breaks_to_lowest_subcenter():
    # sub-centers 0 and 1 of class 0 are identical: only row 0 gets gradient
    x = np.asarray([[0.6, 0.8]])
    w = np.asarray([
        [1.0, 0.0],  # class 0, sub 0
        [1.0, 0.0],  # class 0, sub 1 (exact tie)
        [0.0, 1.0],  # class 1, sub 0
        [0.0, -1.0],  # class 1, sub 1
    ])
    cfg = AAMSCConfig(class_count=2, scale=30.0, margin=0.1, subcenters=2)
    out = aamsc_loss(x, [0], ClassifierParams(weight=w), cfg)
    gw = out.grad_params.weight
    assert np.any(gw[0] != 0.0)
    assert np.all(gw[1] == 0.0)


@pytest.mark.parametrize("subcenters", [3, 10])
def test_aamsc_gradients_match_finite_differences(subcenters):
    rng = named_rng(7, f"aamsc-fd-{subcenters}")
    d, c, n = 6, 3, 4
    cfg = AAMSCConfig(class_count=c, scale=30.0, margin=0.1, subcenters=subcenters)
    for _ in range(20):
        x = rng.standard_normal((n, d))
        y = rng.integers(c, size=n)
        params = ClassifierParams(weight=rng.standard_normal((c * subcenters, d)))
        xhat, _ = l2_normalize_rows(x, "embedding")
        what, _ = l2_normalize_rows(params.weight, "weight")
        cos_sub = (xhat @ what.T).reshape(n, c, subcenters)
        top2 = np.sort(cos_sub, axis=2)[:, :, -2:]
        if float(np.min(top2[:, :, 1] - top2[:, :, 0])) < 1e-4:  # argmax tie
            continue
        out = aamsc_loss(x, y, params, cfg)
        value_fn = lambda: aamsc_loss(x, y, params, cfg).value
        assert rel_err(out.grad_embeddings, fd_gradient(value_fn, x)) <= 1e-5
        assert rel_err(out.grad_params.weight,
                       fd_gradient(value_fn, params.weight)) <= 1e-5
        break
    else:
        pytest.fail("no tie-free AAMSC instance drawn")


def test_aamsc_scale_invariance():
    rng = named_rng(8, "aamsc-scale")
    d, c, k, n = 5, 3, 3, 4
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    w = rng.standard_normal((c * k, d))
    cfg = AAMSCConfig(class_count=c, scale=30.0, margin=0.1, subcenters=k)
    base = aamsc_loss(x, y, ClassifierParams(weight=w), cfg).value
    w2 = w.copy()
    w2[4] *= 100.0
    assert aamsc_loss(x, y, ClassifierParams(weight=w2), cfg).value == pytest.approx(
        base, abs=1e-10)


def test_aamsc_config_validation():
    with pytest.raises(ConfigurationError):
        AAMSCConfig(class_count=2, scale=30.0, margin=0.1, subcenters=0)


# ----------------------------------------------------------------------
# GE2E


def test_ge2e_orthogonal_speakers_frozen_value():
    e = np.asarray([
        [[1.0, 0.0], [1.0, 0.0]],
        [[0.0, 1.0], [0.0, 1.0]],
    ])
    params = ClassifierParams(ge2e_w=1.0, ge2e_b=0.0)
    out = ge2e_loss(e, params)
    expected = -1.0 + math.log(math.e + 1.0)  # 0.3132616875182229
    assert out.value == pytest.approx(expected, abs=1e-12)


def test_ge2e_identical_embeddings_value_ln_n():
    n, m = 3, 2
    v = np.asarray([1.0, 1.0]) / math.sqrt(2.0)
    e = np.tile(v, (n, m, 1))
    out = ge2e_loss(e, ClassifierParams(ge2e_w=10.0, ge2e_b=-5.0))
    assert out.value == pytest.approx(math.log(n), abs=1e-12)


def test_ge2e_speaker_permutation_invariance():
    rng = named_rng(9, "ge2e-perm")
    e = rng.standard_normal((3, 4, 5))
    params = ClassifierParams(ge2e_w=7.0, ge2e_b=-2.0)
    out = ge2e_loss(e, params)
    perm = [2, 0, 1]
    out_p = ge2e_loss(e[perm], params)
    assert out_p.value == pytest.approx(out.value, abs=1e-12)
    assert np.allclose(out_p.grad_embeddings, out.grad_embeddings[perm], atol=1e-12)


def test_ge2e_gradients_match_finite_differences():
    rng = named_rng(10, "ge2e-fd")
    e = rng.standard_normal((3, 4, 6))
    w0, b0 = 8.0, -4.0
    out = ge2e_loss(e, ClassifierParams(ge2e_w=w0, ge2e_b=b0))

    value_fn = lambda: ge2e_loss(e, ClassifierParams(ge2e_w=w0, ge2e_b=b0)).value
    assert rel_err(out.grad_embeddings, fd_gradient(value_fn, e)) <= 1e-5

    eps = FD_EPS
    fd_w = (ge2e_loss(e, ClassifierParams(ge2e_w=w0 + eps, ge2e_b=b0)).value
            - ge2e_loss(e, ClassifierParams(ge2e_w=w0 - eps, ge2e_b=b0)).value) / (2 * eps)
    assert abs(out.grad_params.ge2e_w - fd_w) / max(abs(fd_w), 1e-8) <= 1e-5


def test_ge2e_bias_gradient_is_analytically_zero():
    # scores are softmax-normalized per utterance, so a constant shift b
    # cannot change the loss: both analytic and numeric gradients vanish
    rng = named_rng(11, "ge2e-b")
    e = rng.standard_normal((3, 3, 5))
    w0, b0 = 9.0, -5.0
    out = ge2e_loss(e, ClassifierParams(ge2e_w=w0, ge2e_b=b0))
    assert abs(out.grad_params.ge2e_b) <= 1e-12
    eps = FD_EPS
    fd_b = (ge2e_loss(e, ClassifierParams(ge2e_w=w0, ge2e_b=b0 + eps)).value
            - ge2e_loss(e, ClassifierParams(ge2e_w=w0, ge2e_b=b0 - eps)).value) / (2 * eps)
    assert abs(fd_b) <= 1e-6


def test_ge2e_shape_validation():
    params = ClassifierParams(ge2e_w=10.0, ge2e_b=-5.0)
    with pytest.raises(ConfigurationError, match="N x M"):
        ge2e_loss(np.ones((4, 3)), params)
    with pytest.raises(ConfigurationError, match="M >= 2"):
        ge2e_loss(np.ones((4, 1, 3)), params)
    bad = np.ones((2, 2, 3))
    bad[0, 1] = 0.0
    with pytest.raises(DomainError, match="zero norm"):
        ge2e_loss(bad, params)


A, B = np.asarray([1.0, 2.0]), np.asarray([-3.0, 0.5])  # for the zero-norm cases


@pytest.mark.parametrize("e,message", [
    # speaker 0 is {a, -a}: its centroid is zero, its self-excluded ones are not
    ([[A, -A], [B, 2 * B]], "speaker 0 has a zero-norm centroid"),
    # speaker 0 is {a, b, -b}: utterance (0, 0)'s self-excluded centroid is zero
    ([[A, B, -B], [B, A, A]], "self-excluded centroid (0, 0) has zero norm"),
    # a zero embedding is named before an earlier speaker's zero centroid
    ([[A, -A], [B, 0 * B]], "embedding (1, 1) has zero norm"),
    # a zero centroid is named before an earlier zero self-excluded centroid
    ([[A, B, -B], [A, -2 * A, A]], "speaker 1 has a zero-norm centroid"),
])
def test_ge2e_names_the_first_zero_norm(e, message):
    params = ClassifierParams(ge2e_w=10.0, ge2e_b=-5.0)
    for loss in (ge2e_loss, plain_ge2e_loss):
        with pytest.raises(DomainError) as info:
            loss(np.asarray(e), params)
        assert str(info.value) == message


def _ge2e_bits(loss, e, w, b):
    """The bytes of value and gradients, or the type and message of the error."""
    try:
        out = loss(e, ClassifierParams(ge2e_w=w, ge2e_b=b))
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return tuple(np.float64(v).tobytes() for v in (out.value, out.grad_params.ge2e_w,
                                                   out.grad_params.ge2e_b)) + (
        out.grad_embeddings.tobytes(), out.grad_embeddings.shape)


@st.composite
def ge2e_batches(draw):
    """N x M x d embeddings with row scales 1e-3 .. 1e3, some rows repeated,
    coordinates set to 0.0 or -0.0, and near-antipodal rows that clip."""
    n, m, d = draw(st.integers(2, 20)), draw(st.integers(2, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.standard_normal((n, m, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, m, 1))
    if draw(st.booleans()):  # repeated vectors, within and across speakers
        e[:, -1] = e[:, 0]
        e[-1] = e[0]
    for zero in (0.0, -0.0):
        if draw(st.booleans()):
            e[rng.random(e.shape) < 0.3] = zero
    if draw(st.booleans()):  # each speaker's first utterance against the rest
        e[:, 0] = -e[:, 1:].sum(axis=1) * (1.0 + 1e-9)
    w = draw(st.floats(1e-4, 40.0))
    b = draw(st.floats(-20.0, 5.0))
    return e, w, b


@given(ge2e_batches())
@settings(max_examples=300, deadline=None)
def test_ge2e_matches_the_plain_step_bit_for_bit(batch):
    e, w, b = batch
    assert _ge2e_bits(ge2e_loss, e, w, b) == _ge2e_bits(plain_ge2e_loss, e, w, b)


@given(ge2e_batches())
@settings(max_examples=300, deadline=None)
def test_ge2e_matches_the_einsum_step_to_rounding(batch):
    # the BLAS products round differently from np.einsum, so each output is
    # compared at its own scale: the value at ln N (its value when all
    # cosines are equal), grad_w and grad_b as they are (both at most 2)
    e, w, b = batch
    try:
        want = einsum_ge2e_loss(e, ClassifierParams(ge2e_w=w, ge2e_b=b))
    except DomainError as exc:  # zero-norm draws: the same refusal
        assert _ge2e_bits(ge2e_loss, e, w, b) == (DomainError, str(exc))
        return
    got = ge2e_loss(e, ClassifierParams(ge2e_w=w, ge2e_b=b))
    n, m, _ = e.shape
    assert abs(got.value - want.value) / math.log(n) <= 1e-12
    assert abs(got.grad_params.ge2e_w - want.grad_params.ge2e_w) <= 1e-12
    assert abs(got.grad_params.ge2e_b - want.grad_params.ge2e_b) <= 1e-12
    # a speaker's gradient rows are w over its embedding, centroid and
    # self-excluded centroid norms; the smallest of these sets their scale
    csum = e.sum(axis=1)
    cex = (csum[:, None] - e) / (m - 1)
    smallest = np.minimum.reduce([np.linalg.norm(e, axis=2).min(axis=1),
                                  np.linalg.norm(csum / m, axis=1),
                                  np.linalg.norm(cex, axis=2).min(axis=1)])
    err = np.abs(got.grad_embeddings - want.grad_embeddings) * (smallest / w)[:, None, None]
    assert err.max() <= 1e-12


def test_ge2e_bit_for_bit_draws_reach_the_clip():
    # antipodal rows give diagonal cosines that round past -1 or +1
    rng = np.random.default_rng(4)
    clipped = 0
    for _ in range(50):
        e = rng.standard_normal((3, 2, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 2, 1))
        e[:, 0] = -e[:, 1] * (1.0 + 1e-9)
        ehat = e / np.linalg.norm(e, axis=2)[:, :, None]
        cex = e[:, ::-1]
        cexhat = cex / np.linalg.norm(cex, axis=2)[:, :, None]
        clipped += int(np.any(np.abs(np.einsum("jid,jid->ji", ehat, cexhat)) > 1.0))
        assert _ge2e_bits(ge2e_loss, e, 3.0, -1.0) == _ge2e_bits(plain_ge2e_loss, e, 3.0, -1.0)
    assert clipped > 0


def test_ge2e_bits_do_not_depend_on_the_memory_layout():
    rng = named_rng(18, "ge2e-layout")
    for n, m, d in [(1, 2, 1), (4, 3, 5), (16, 4, 32)]:
        e = rng.standard_normal((n, m, d))
        want = _ge2e_bits(plain_ge2e_loss, e, 7.0, -3.0)
        for view in (np.asfortranarray(e), e.transpose(1, 0, 2).copy().transpose(1, 0, 2),
                     np.repeat(e, 2, axis=1)[:, ::2]):
            assert _ge2e_bits(ge2e_loss, view, 7.0, -3.0) == want


@pytest.mark.parametrize("where", [(0, 0, 0), (1, 1, 2), (2, 0, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("zero", [None, (0, 1), (2, 1)])
def test_ge2e_errors_match_the_plain_step_for_non_finite_input(where, bad, zero):
    # the error, not the numpy warnings on the way, is what must agree
    e = named_rng(15, "ge2e-nonfinite").standard_normal((3, 2, 4))
    e[where] = bad
    if zero is not None:
        e[zero] = 0.0
    with np.errstate(all="ignore"):
        got = _ge2e_bits(ge2e_loss, e, 10.0, -5.0)
        assert got == _ge2e_bits(plain_ge2e_loss, e, 10.0, -5.0)
    assert got[0] is DomainError


@pytest.mark.parametrize("w,b", [(np.nan, -5.0), (np.inf, -5.0), (-np.inf, -5.0),
                                 (10.0, np.nan), (10.0, np.inf)])
def test_ge2e_errors_match_the_plain_step_for_non_finite_w_or_b(w, b):
    e = named_rng(15, "ge2e-nonfinite").standard_normal((3, 2, 4))
    with np.errstate(all="ignore"):
        got = _ge2e_bits(ge2e_loss, e, w, b)
        assert got == _ge2e_bits(plain_ge2e_loss, e, w, b)
    assert got[0] is DomainError


# ----------------------------------------------------------------------
# shared properties


def _random_outputs():
    rng = named_rng(12, "all-losses")
    d, c, n = 6, 4, 8
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    yield ce_loss(x, y, ClassifierParams(weight=rng.standard_normal((c, d)),
                                         bias=rng.standard_normal(c)))
    yield aamsc_loss(x, y, ClassifierParams(weight=rng.standard_normal((c, d))),
                     AAMConfig(class_count=c, scale=15.0, margin=0.2))
    yield aamsc_loss(x, y, ClassifierParams(weight=rng.standard_normal((c * 3, d))),
                     AAMSCConfig(class_count=c, scale=15.0, margin=0.2, subcenters=3))
    yield ge2e_loss(rng.standard_normal((4, 2, d)),
                    ClassifierParams(ge2e_w=10.0, ge2e_b=-5.0))


@pytest.mark.parametrize("loss", ["ce", "aam", "aamsc"])
def test_label_count_must_match_the_batch(loss):
    # one label is not broadcast over five embeddings, and two labels end
    # in the same located error, not an IndexError
    x = named_rng(14, "label-count").standard_normal((5, 3))
    if loss == "ce":
        params = ClassifierParams(weight=np.ones((4, 3)), bias=np.zeros(4))
        run = lambda y: ce_loss(x, y, params)
    elif loss == "aam":
        params = ClassifierParams(weight=np.eye(4, 3) + 0.5)
        run = lambda y: aamsc_loss(x, y, params, AAMConfig(class_count=4, scale=30.0, margin=0.1))
    else:
        params = ClassifierParams(weight=np.eye(8, 3) + 0.5)
        cfg = AAMSCConfig(class_count=4, scale=30.0, margin=0.1, subcenters=2)
        run = lambda y: aamsc_loss(x, y, params, cfg)
    assert math.isfinite(run([2] * 5).value)
    for labels in ([2], [2, 1]):
        with pytest.raises(DomainError,
                           match=f"batch size mismatch: 5 embeddings, {len(labels)} labels"):
            run(labels)


def test_all_losses_nonnegative_and_finite():
    for out in _random_outputs():
        assert out.value >= -1e-12
        assert math.isfinite(out.value)
        assert np.all(np.isfinite(out.grad_embeddings))


def test_init_parameters_classifier_blocks():
    # the classifier blocks of a fresh vector, each loss kind after a 3 -> 8 layer
    def classifier(cfg):
        layout = parameter_layout((3, 8), cfg)
        flat = init_parameters(layout, cfg, named_rng(13, "init"))
        return {name: flat[sl].reshape(shape) for name, shape, sl in layout[2:]}

    ce = classifier(CEConfig(class_count=4))
    assert {k: v.shape for k, v in ce.items()} == {"classifier.weight": (4, 8),
                                                  "classifier.bias": (4,)}
    aam = classifier(AAMConfig(class_count=4, scale=30.0, margin=0.1))
    assert {k: v.shape for k, v in aam.items()} == {"classifier.weight": (4, 8)}
    sc = classifier(AAMSCConfig(class_count=4, scale=30.0, margin=0.1, subcenters=3))
    assert {k: v.shape for k, v in sc.items()} == {"classifier.weight": (12, 8)}
    for blocks in (ce, aam, sc):
        assert all(0 < np.max(np.abs(v)) <= 1.0 / math.sqrt(8) for v in blocks.values())
    assert classifier(GE2EConfig()) == {"ge2e.w": 10.0, "ge2e.b": -5.0}


def test_aamsc_config_is_an_aam_config_with_required_subcenters():
    # AAMSCConfig inherits AAMConfig's checks; its subcenters field does not
    # default to the one sub-center of the base class
    with pytest.raises(TypeError, match="subcenters"):
        AAMSCConfig(class_count=4, scale=30.0, margin=0.1)
    with pytest.raises(ConfigurationError, match="margin"):
        AAMSCConfig(class_count=4, scale=30.0, margin=2.0, subcenters=2)
    aam = AAMConfig(class_count=4, scale=30.0, margin=0.1)
    sc = AAMSCConfig(class_count=4, scale=30.0, margin=0.1, subcenters=2, easy_margin=True)
    assert aam.subcenters == 1 and sc.subcenters == 2
    assert aam.to_dict() == {"kind": "aam", "class_count": 4, "scale": 30.0, "margin": 0.1,
                             "easy_margin": False}
    assert sc.to_dict() == {"kind": "aamsc", "class_count": 4, "scale": 30.0, "margin": 0.1,
                            "subcenters": 2, "easy_margin": True}
    # with several bad fields the first in class_count, scale, margin,
    # subcenters, easy_margin order is named
    bad = {**sc.to_dict(), "subcenters": "2", "easy_margin": 1}
    with pytest.raises(ConfigurationError, match="loss_config.subcenters must be an integer"):
        loss_config_from_dict(bad)
    with pytest.raises(ConfigurationError, match="loss_config.easy_margin must be a boolean"):
        loss_config_from_dict({**bad, "subcenters": 2})


def test_loss_config_round_trip():
    for cfg in (CEConfig(class_count=7),
                AAMConfig(class_count=7, scale=15.0, margin=0.2),
                AAMSCConfig(class_count=7, scale=30.0, margin=0.1, subcenters=10),
                GE2EConfig()):
        assert loss_config_from_dict(cfg.to_dict()) == cfg


# ----------------------------------------------------------------------
# classify_confidence


def test_confidence_aam_aligned_row():
    w = np.asarray([[1.0, 0.0], [0.0, 1.0]])
    cfg = AAMConfig(class_count=2, scale=30.0, margin=0.2)
    p = classify_confidence(np.asarray([2.0, 0.0]), ClassifierParams(weight=w), cfg, w)
    assert np.allclose(p, [0.7311, 0.2689], atol=1e-4)  # softmax([1, 0])
    assert float(np.sum(p)) == pytest.approx(1.0, abs=1e-12)


def test_confidence_ce_zero_params_uniform():
    c = 4
    params = ClassifierParams(weight=np.zeros((c, 3)), bias=np.zeros(c))
    p = classify_confidence(np.asarray([1.0, 2.0, 3.0]), params, CEConfig(class_count=c), None)
    assert np.allclose(p, np.full(c, 0.25), atol=1e-15)


def test_confidence_aamsc_k1_matches_aam():
    rng = named_rng(14, "conf")
    w = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    aam_cfg = AAMConfig(class_count=3, scale=30.0, margin=0.1)
    unit_w = l2_normalize_rows(w, "weight")[0]
    aam = classify_confidence(x, ClassifierParams(weight=w), aam_cfg, unit_w)
    sc = classify_confidence(x, ClassifierParams(weight=w),
                             AAMSCConfig(class_count=3, scale=30.0, margin=0.1,
                                         subcenters=1), unit_w)
    ref = plain_classify_confidence(x, ClassifierParams(weight=w), aam_cfg)
    assert sc.tobytes() == aam.tobytes() == ref.tobytes()


def test_confidence_aamsc_reduces_by_max():
    # class 0 has an aligned sub-center, class 1 only orthogonal ones
    w = np.asarray([
        [1.0, 0.0], [0.0, 1.0],   # class 0
        [0.0, 1.0], [0.0, -1.0],  # class 1
    ])
    cfg = AAMSCConfig(class_count=2, scale=30.0, margin=0.1, subcenters=2)
    p = classify_confidence(np.asarray([1.0, 0.0]), ClassifierParams(weight=w), cfg, w)
    assert np.allclose(p, softmax(np.asarray([1.0, 0.0])), atol=1e-12)


def test_confidence_degenerate_input():
    params = ClassifierParams(weight=np.eye(2), bias=np.zeros(2))
    with pytest.raises(DomainError, match="zero norm"):
        classify_confidence(np.zeros(2), params, CEConfig(class_count=2), None)
    with pytest.raises(DomainError, match="zero norm"):
        classify_confidence(np.zeros(2), params, AAMConfig(2, 30.0, 0.1), params.weight)


# ----------------------------------------------------------------------
# The fused AAM/AAMSC step against the plain one-call-per-operation form
# in tests/oracles.py: every value and gradient keeps its bits.


def _bits(out):
    return (np.float64(out.value).tobytes(), out.grad_embeddings.tobytes(),
            out.grad_params.weight.tobytes())


def _margin_instances(k: int):
    """(embeddings, labels, weight) with C = 4 classes of K sub-centers,
    covering the edges of the fused step."""
    rng = named_rng(15, f"fused-{k}")
    c, d, n = 4, 5, 9
    y = np.arange(n) % c
    w = rng.standard_normal((c * k, d))
    yield rng.standard_normal((n, d)), y, w
    # exact ties between sub-centers: the lowest index must win
    tied = w.copy()
    if k > 1:  # the second and the last sub-center of each class equal the first
        tied[1::k] = tied[k - 1::k] = tied[0::k]
    yield rng.standard_normal((n, d)), y, tied
    # embeddings parallel and antiparallel to weight rows: cosines of +-1,
    # drawn until one rounds past +-1 and is clipped
    scales = np.asarray([3.7, -0.3, 1e3, -1.0, 1.0, 0.7, -3e-2, 11.0, -5.0])[:, None]
    while True:
        clip_w = rng.standard_normal((c * k, d))
        x = clip_w[np.arange(n) % len(clip_w)] * scales
        xhat, what = l2_normalize_rows(x, "embedding")[0], l2_normalize_rows(clip_w, "weight")[0]
        if np.max(np.abs(xhat @ what.T)) > 1.0:
            break
    yield x, y, clip_w
    # rows whose norm is below 1e-150 are re-measured after scaling
    small_x, small_w = rng.standard_normal((n, d)), w.copy()
    small_x[::2] *= 1e-160
    small_w[::3] *= 1e-155
    yield small_x, y, small_w


@pytest.mark.parametrize("easy_margin", [False, True])
@pytest.mark.parametrize("margin", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_aamsc_and_aam_match_the_plain_step_bit_for_bit(k, margin, easy_margin):
    cfg = AAMSCConfig(class_count=4, scale=30.0, margin=margin, subcenters=k,
                      easy_margin=easy_margin)
    aam_cfg = AAMConfig(class_count=4, scale=30.0, margin=margin, easy_margin=easy_margin)
    for x, y, w in _margin_instances(k):
        params = ClassifierParams(weight=w)
        assert _bits(aamsc_loss(x, y, params, cfg)) == _bits(plain_aamsc_loss(x, y, params, cfg))
        if k == 1:
            assert _bits(aamsc_loss(x, y, params, aam_cfg)) == _bits(
                plain_aam_loss(x, y, params, aam_cfg))


@pytest.mark.parametrize("easy_margin", [False, True])
@pytest.mark.parametrize("margin", [0.0, 0.1, 0.5])
def test_margin_cross_entropy_matches_the_plain_form_at_its_switches(margin, easy_margin):
    # target cosines exactly at and one ulp around both fallback switches
    # (cos(pi - m) and 0), at the poles, and at -0.0
    switch = math.cos(math.pi - margin)
    targets = [switch, np.nextafter(switch, 2.0), max(np.nextafter(switch, -2.0), -1.0),
               0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.nextafter(1.0, 0.0), 0.3]
    n, c = len(targets), 5
    rng = named_rng(16, "switch")
    cos = rng.uniform(-1.0, 1.0, size=(n, c))
    y = np.arange(n) % c
    cos[np.arange(n), y] = targets
    value, dcos = _margin_cross_entropy(cos.copy(), y, 30.0, margin, easy_margin)
    ref_value, ref_dcos = _plain_margin_cross_entropy(cos.copy(), y, 30.0, margin, easy_margin)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert dcos.tobytes() == ref_dcos.tobytes()


def test_l2_normalize_rows_matches_the_linalg_norm_form_bit_for_bit():
    rng = named_rng(17, "norms")
    for shape in [(1, 1), (50, 32), (150, 32), (7, 3)]:
        m = rng.standard_normal(shape) * 10.0 ** rng.uniform(-200.0, 150.0, size=(shape[0], 1))
        if shape[0] > 1:
            m[0] = 0.0
            m[0, 0] = 5e-324  # a subnormal row, re-measured to a nonzero norm
        got, ref = l2_normalize_rows(m, "matrix"), plain_l2_normalize_rows(m, "matrix")
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
