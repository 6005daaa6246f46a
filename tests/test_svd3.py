import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steerkit as sk
from helpers import schmidt_product

matrices = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=9, max_size=9
).map(lambda xs: np.array(xs).reshape(3, 3))


def orthogonality_defect(q):
    return np.max(np.abs(q @ q.T - np.eye(3)))


def test_negative_scaled_identity():
    form = sk.svd3(np.diag([-0.3, -0.3, -0.3]))
    np.testing.assert_allclose(form.sigma, [0.3, 0.3, 0.3], atol=1e-15)


def test_identity():
    form = sk.svd3(np.eye(3))
    np.testing.assert_allclose(form.sigma, [1.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_array_equal(form.u, np.eye(3))
    np.testing.assert_array_equal(form.v, np.eye(3))


@pytest.mark.parametrize("alpha", [0.3, np.pi / 4, np.pi / 2])
def test_pure_state_tensor_singular_values(alpha):
    s = np.sin(alpha)
    form = sk.svd3(np.diag([-s, -s, -1.0]))
    np.testing.assert_allclose(form.sigma, [1.0, s, s], atol=1e-15)


def test_zero_matrix():
    form = sk.svd3(np.zeros((3, 3)))
    np.testing.assert_array_equal(form.sigma, [0.0, 0.0, 0.0])
    assert orthogonality_defect(form.u) <= 1e-15
    assert orthogonality_defect(form.v) <= 1e-15


def test_rank_one():
    a = np.array([0.6, 0.0, 0.8])
    b = np.array([0.0, 1.0, 0.0])
    form = sk.svd3(np.outer(a, b))
    np.testing.assert_allclose(form.sigma, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.max(np.abs(schmidt_product(form) - np.outer(a, b))) <= 1e-15


def test_repeated_columns():
    m = np.column_stack([np.ones(3), np.ones(3), np.zeros(3)])
    form = sk.svd3(m)
    assert np.max(np.abs(schmidt_product(form) - m)) <= 1e-14
    assert form.sigma[1] <= 1e-14


def test_input_validation():
    with pytest.raises(ValueError):
        sk.svd3(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sk.svd3(np.full((3, 3), np.nan))


def test_deterministic_output():
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, size=(3, 3))
    first = sk.svd3(m)
    second = sk.svd3(m.copy())
    np.testing.assert_array_equal(first.u, second.u)
    np.testing.assert_array_equal(first.sigma, second.sigma)
    np.testing.assert_array_equal(first.v, second.v)


def test_sign_convention():
    rng = np.random.default_rng(6)
    for _ in range(50):
        form = sk.svd3(rng.uniform(-1, 1, size=(3, 3)))
        for row in form.u:
            assert row[np.argmax(np.abs(row))] > 0.0


def test_values_match_lapack():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = rng.uniform(-1, 1, size=(3, 3))
        reference = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(sk.svd3(m).sigma - reference)) <= 1e-12


def test_reconstruction_batch():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m = rng.uniform(-1, 1, size=(3, 3))
        form = sk.svd3(m)
        assert np.max(np.abs(schmidt_product(form) - m)) <= 1e-12
        assert orthogonality_defect(form.u) <= 1e-12
        assert orthogonality_defect(form.v) <= 1e-12
        assert form.sigma[0] >= form.sigma[1] >= form.sigma[2] >= 0.0


@settings(max_examples=300, deadline=None)
@given(matrices)
@example(np.diag([0, 0, 2.7886e-157]))
def test_reconstruction_properties(m):
    form = sk.svd3(m)
    assert form.sigma[0] >= form.sigma[1] >= form.sigma[2] >= 0.0
    assert np.max(np.abs(schmidt_product(form) - m)) <= 1e-12
    assert orthogonality_defect(form.u) <= 1e-12
    assert orthogonality_defect(form.v) <= 1e-12
    again = sk.svd3(m)
    np.testing.assert_array_equal(form.u, again.u)
    np.testing.assert_array_equal(form.sigma, again.sigma)
    np.testing.assert_array_equal(form.v, again.v)


@pytest.mark.parametrize(
    "scale", [1e-300, 1e-200, 1e-170, 1e-157, 1e-100, 1.0, 1e100, 1e155, 1e200, 1e300]
)
def test_full_double_range(scale):
    """Singular values, reconstruction and bases hold at every scale.

    Each input is q1 @ diag(s) @ q2 with q1, q2 orthogonal, so its singular
    values are scale * s, known without an SVD.
    """
    rng = np.random.default_rng(11)
    for s in ([3.0, 2.0, 1.0], [1.0, 1e-3, 0.0], [2.0, 0.0, 0.0]):
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = q1 @ np.diag(scale * np.array(s)) @ q2
        peak = np.max(np.abs(m))
        form = sk.svd3(m)
        assert np.max(np.abs(form.sigma - scale * np.array(s))) <= 1e-12 * scale * s[0]
        assert np.max(np.abs(schmidt_product(form) - m)) <= 1e-12 * peak
        assert orthogonality_defect(form.u) <= 1e-12
        assert orthogonality_defect(form.v) <= 1e-12


def test_top_singular_value_is_max_correlation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        form = sk.svd3(tensor.block)
        for _ in range(50):
            m, n = sk.uniform_sphere(2, rng)
            assert float(m @ tensor.block @ n) <= form.t1 + 1e-12
        attained = float(form.u[0] @ tensor.block @ form.v[0])
        assert attained == pytest.approx(form.t1, abs=1e-12)
