"""Stable elementary operations: frozen examples plus algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelnoise.errors import DomainError
from labelnoise.numerics import l2_normalize_rows, log_sum_exp, row_dot, softmax
from oracles import as_vector, cosine_similarity, plain_log_sum_exp

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12).map(np.asarray)


# ----------------------------------------------------------------------
# cosine_similarity (the per-pair reference in tests/oracles.py)


def test_cosine_identical_vectors():
    assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0


def test_cosine_orthogonal_vectors():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_antipodal_vectors():
    assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0


def test_cosine_clamped_against_roundoff():
    v = np.asarray([0.1, 0.2, -0.3, 0.7])
    assert cosine_similarity(v, 3.0 * v) == 1.0
    assert cosine_similarity(v, -0.25 * v) == -1.0


def test_cosine_zero_norm_names_argument():
    with pytest.raises(DomainError, match="'a'"):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError, match="'b'"):
        cosine_similarity([1.0, 0.0], [0.0, 0.0])


def test_cosine_dimension_mismatch():
    with pytest.raises(DomainError, match="mismatch"):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_rejects_non_finite():
    with pytest.raises(DomainError):
        cosine_similarity([np.nan, 1.0], [1.0, 0.0])


@given(vectors, vectors)
def test_cosine_symmetric(a, b):
    if a.shape != b.shape or np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)


@given(vectors, st.floats(min_value=0.01, max_value=100.0))
@example(np.asarray([4.053014642635275e-159]), 0.5)  # its square underflows to a subnormal
def test_cosine_scale_invariant(a, c):
    if np.linalg.norm(a) == 0:
        return
    b = np.ones_like(a)
    assert cosine_similarity(c * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-12)


# ----------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_shift_safe_at_large_magnitude():
    assert np.allclose(softmax([1000.0, 1000.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_analytic_ln3():
    assert np.allclose(softmax([0.0, math.log(3.0)]), [0.25, 0.75], atol=1e-12)


def test_softmax_rowwise_axis():
    z = np.asarray([[0.0, 0.0], [0.0, math.log(3.0)]])
    out = softmax(z)
    assert np.allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-12)


def test_softmax_rejects_non_finite_and_empty():
    with pytest.raises(DomainError):
        softmax([np.inf, 0.0])
    with pytest.raises(DomainError):
        softmax([])


@given(vectors)
def test_softmax_sums_to_one_and_positive(z):
    p = softmax(z)
    assert abs(float(np.sum(p)) - 1.0) <= 1e-12
    assert np.all(p > 0)


@given(vectors, finite_floats)
def test_softmax_shift_invariant(z, c):
    assert np.allclose(softmax(z + c), softmax(z), atol=1e-12)


# ----------------------------------------------------------------------
# log_sum_exp


def test_lse_single_element():
    assert log_sum_exp([0.0])[0] == 0.0


def test_lse_large_pair():
    assert log_sum_exp([1000.0, 1000.0])[0] == pytest.approx(1000.6931471805599, abs=1e-10)


def test_lse_four_zeros():
    assert log_sum_exp([0.0, 0.0, 0.0, 0.0])[0] == pytest.approx(math.log(4.0), abs=1e-12)


def test_lse_rowwise_axis():
    z = np.asarray([[0.0, 0.0], [1000.0, 1000.0]])
    out, _ = log_sum_exp(z)
    assert np.allclose(out, [math.log(2.0), 1000.0 + math.log(2.0)], atol=1e-10)


@given(vectors)
def test_lse_bounds(z):
    val, _ = log_sum_exp(z)
    assert val >= float(np.max(z)) - 1e-12
    assert val <= float(np.max(z)) + math.log(z.size) + 1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([(7,), (1,), (5, 9), (16, 4, 16), (3, 1, 2)]),
       st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_log_sum_exp_matches_the_method_form_bit_for_bit(seed, shape, scale):
    # the log-sum-exp has the method form's bits, and the softmax it returns
    # with it has the bits of ``softmax`` on the same input
    z = np.random.default_rng(seed).standard_normal(shape) * scale
    (got, p), ref = log_sum_exp(z), plain_log_sum_exp(z)
    assert type(got) is type(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    assert p.tobytes() == softmax(z).tobytes()


@pytest.mark.parametrize("z,message", [
    ([], "log_sum_exp input must be non-empty"),
    ([0.0, np.nan], "log_sum_exp input contains non-finite entries"),
    ([[0.0, 1.0], [np.inf, 0.0]], "log_sum_exp input contains non-finite entries"),
])
def test_log_sum_exp_refuses_empty_and_non_finite_input(z, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        log_sum_exp(z)


# ----------------------------------------------------------------------
# l2_normalize_rows


def l2_normalize(v):
    return l2_normalize_rows(np.asarray([v], dtype=np.float64), "vector")[0][0]


def test_l2_normalize_345_triangle():
    assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


def test_l2_normalize_axis_aligned():
    assert np.allclose(l2_normalize([0.0, 2.0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(l2_normalize([1.0, 1.0]), [1.0 / math.sqrt(2)] * 2, atol=1e-15)


def test_l2_normalize_zero_norm():
    with pytest.raises(DomainError, match="zero norm"):
        l2_normalize([0.0, 0.0, 0.0])


@given(vectors)
@example(np.asarray([1.83168672e-162]))  # its square underflows to a subnormal
@settings(max_examples=50)
def test_l2_normalize_idempotent(a):
    if np.linalg.norm(a) == 0:
        return
    once = l2_normalize(a)
    assert abs(float(np.linalg.norm(once)) - 1.0) <= 1e-12
    assert np.allclose(l2_normalize(once), once, atol=1e-12)


def test_l2_normalize_rows_returns_norms():
    m = np.asarray([[3.0, 4.0], [0.0, 2.0]])
    normed, norms = l2_normalize_rows(m, "matrix")
    assert np.allclose(normed, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(norms, [5.0, 2.0], atol=1e-15)


def test_l2_normalize_rows_names_offender():
    m = np.asarray([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError, match="weight row 1"):
        l2_normalize_rows(m, "weight")


# ----------------------------------------------------------------------
# row_dot


@pytest.mark.parametrize("dim", [1, 3, 20, 32])
def test_row_dot_has_the_bits_of_per_row_np_dot(dim):
    rng = np.random.default_rng(dim)
    a, b = rng.standard_normal((500, dim)), rng.standard_normal((500, dim))
    got = row_dot(a, b)
    assert got.shape == (500,)
    assert got.tolist() == [float(np.dot(x, y)) for x, y in zip(a, b)]
    assert np.sqrt(row_dot(a, a)).tolist() == [float(np.linalg.norm(x)) for x in a]


def test_row_dot_empty():
    assert row_dot(np.empty((0, 4)), np.empty((0, 4))).shape == (0,)


# ----------------------------------------------------------------------
# as_vector (the input check of the oracle's cosine_similarity)


def test_as_vector_validates():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    with pytest.raises(DomainError, match="2-D|shape"):
        as_vector([[1.0, 2.0]])
    with pytest.raises(DomainError, match="non-empty"):
        as_vector([])
    with pytest.raises(DomainError, match="non-finite"):
        as_vector([1.0, np.inf])


# ----------------------------------------------------------------------
# numpy equalities that the per-utterance scoring path relies on to keep
# its bits (``losses.classify_confidence``, ``nld.CentroidClassifier``,
# ``softmax`` and the ``nld.inter_inconsistency`` loop). Each failure
# names the assumption a numpy upgrade broke.


def _special_vectors():
    """Seeded vectors of many lengths, with exact ties, signed zeros,
    exact +-1, subnormal and huge entries."""
    rng = np.random.default_rng(2024)
    out = []
    for size in (1, 2, 3, 4, 7, 32, 150, 600, 1001):
        for scale in (1e-160, 1e-3, 1.0, 1e150):
            v = rng.standard_normal(size) * scale
            pick = rng.integers(0, size, size=(4, max(1, size // 4)))
            v[pick[0]] = 0.0
            v[pick[1]] = -0.0
            v[pick[2]] = rng.choice([1.0, -1.0], size=pick.shape[1])
            v[pick[3]] = v[0]  # exact ties
            out.append(v)
    return out


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def test_numpy_vector_norm_is_the_sqrt_of_the_self_dot():
    for v in _special_vectors():
        assert _bits(np.linalg.norm(v)) == _bits(math.sqrt(v.dot(v))), \
            "np.linalg.norm(v) of a 1-D vector is no longer sqrt(v.dot(v))"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_numpy_columnwise_maximum_is_the_reshaped_row_max(k):
    for v in _special_vectors():
        m = np.clip(np.concatenate([v] * k)[:len(v) // k * k], -1.0, 1.0)
        if m.size == 0:
            continue
        sub = m.reshape(-1, k)
        got = sub[:, 0].copy()
        for j in range(1, k):
            np.maximum(got, sub[:, j], out=got)
        assert _bits(got) == _bits(sub.max(axis=1)), \
            "the K column-wise np.maximum calls no longer equal reshape(C, K).max(axis=1)"


def test_numpy_in_place_minimum_then_maximum_is_clip():
    for v in _special_vectors():
        peak = np.abs(v).max()
        for x in (v, v / (peak or 1.0) * (1.0 + 2.0 ** -52)):  # just past +-1 as well
            got = x.copy()
            np.minimum(got, 1.0, out=got)
            np.maximum(got, -1.0, out=got)
            assert _bits(got) == _bits(np.clip(x, -1.0, 1.0)), \
                "in-place np.minimum/np.maximum no longer equal np.clip(x, -1, 1)"


def test_numpy_reduce_calls_are_the_method_and_wrapper_reductions():
    for v in _special_vectors():
        for x in (v, v.reshape(1, -1), np.stack([v, v[::-1]])):
            kw = {"axis": -1, "keepdims": True}
            assert _bits(np.maximum.reduce(x, **kw)) == _bits(x.max(**kw)), \
                "np.maximum.reduce no longer equals ndarray.max"
            assert _bits(np.add.reduce(x, **kw)) == _bits(x.sum(**kw)), \
                "np.add.reduce no longer equals ndarray.sum"
        assert _bits(np.add.reduce(v)) == _bits(np.sum(v)), \
            "np.add.reduce no longer equals np.sum"
        assert _bits(np.minimum.reduce(v)) == _bits(np.min(v)), \
            "np.minimum.reduce no longer equals np.min"


def test_numpy_rowwise_reductions_are_the_per_row_ones():
    vectors = _special_vectors()
    for size in sorted({len(v) for v in vectors}):
        rows = np.stack([v for v in vectors if len(v) == size])
        for r, v in enumerate(rows):
            assert _bits(np.add.reduce(rows, axis=1)[r]) == _bits(np.add.reduce(v)), \
                "np.add.reduce along the rows of a block no longer equals it on one row"
            assert _bits(np.minimum.reduce(rows, axis=1)[r]) == _bits(np.minimum.reduce(v)), \
                "np.minimum.reduce along the rows of a block no longer equals it on one row"


def test_numpy_in_place_division_is_the_out_of_place_one():
    for v in _special_vectors():
        for t in (0.1, 1.0, 3.0):
            got = v.copy()
            got /= t
            assert _bits(got) == _bits(v / t), "in-place division no longer equals v / t"


# numpy equalities that the array centroid bank (``nld.compute_centroids``
# and the ``nld.CentroidClassifier`` constructor) relies on to keep the
# bits of the per-class means and norms


def _special_rows():
    """Seeded matrices whose rows mix scales, signed zeros, all -0.0 rows
    and exact ties, with row counts from 1 to 8000."""
    rng = np.random.default_rng(2025)
    out = []
    for n, d in ((1, 1), (2, 3), (7, 5), (300, 16), (8000, 32)):
        m = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))
        m[rng.integers(0, n, size=max(1, n // 5))] = -0.0
        m[rng.integers(0, n, size=max(1, n // 5)), rng.integers(0, d)] = 0.0
        m[rng.integers(0, n)] = m[0]
        out.append(m)
    out.append(np.full((3, 4), -0.0))
    return out


def test_numpy_zero_started_add_at_is_the_mean_over_axis_0():
    for m in _special_rows():
        rng = np.random.default_rng(len(m))
        classes = rng.integers(0, 6, size=len(m))
        counts = np.bincount(classes, minlength=6)
        sums = np.zeros((6, m.shape[1]))
        np.add.at(sums, classes, m)
        means = sums / np.maximum(counts, 1)[:, None]
        for c in np.flatnonzero(counts).tolist():
            assert _bits(means[c]) == _bits(m[classes == c].mean(axis=0)), \
                "np.add.at from +0.0, over the count, no longer equals mean(axis=0)"


def test_numpy_vector_row_norm_is_the_per_row_norm():
    for m in _special_rows():
        norms = np.sqrt(row_dot(m, m))
        assert _bits(norms) == _bits([np.linalg.norm(row) for row in m]), \
            "sqrt(row_dot(m, m)) no longer equals np.linalg.norm of each row"
        live = np.flatnonzero(norms != 0.0)
        assert _bits(m[live] / norms[live, None]) == _bits(
            [m[i] / np.linalg.norm(m[i]) for i in live.tolist()]), \
            "dividing the rows by their norms at once no longer equals row by row"
