import itertools

import numpy as np
import pytest

import steerkit as sk
from helpers import monomial_sphere_integral

FOUR_PI = 4.0 * np.pi


def abs_cos(p):
    return np.abs(p[:, 2])


@pytest.mark.parametrize("kwargs", [
    dict(n_theta=2),
    dict(n_theta=8),
    dict(n_theta=8, breakpoints=(0.0,)),
    dict(n_theta=4, breakpoints=(-0.5, 0.5)),
])
def test_weights_sum_to_full_solid_angle(kwargs):
    grid = sk.sphere_grid(**kwargs)
    assert abs(float(grid.weights.sum()) - FOUR_PI) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(grid.points, axis=1) - 1.0)) <= 1e-12


def test_grid_invariant_enforced():
    grid = sk.sphere_grid(2)
    with pytest.raises(ValueError):
        sk.SphereGrid(grid.points, grid.weights * 1.001)


def outer(p):
    return p[:, :, None] * p[:, None, :]


def test_orthogonality_minimal_grid():
    moments = sk.integrate(sk.sphere_grid(2), outer)
    assert np.max(np.abs(moments - (FOUR_PI / 3.0) * np.eye(3))) <= 1e-12


def test_orthogonality_production_grid():
    moments = sk.integrate(sk.sphere_grid(8), outer)
    assert np.max(np.abs(moments - (FOUR_PI / 3.0) * np.eye(3))) <= 1e-12


@pytest.mark.parametrize("grid", [
    sk.sphere_grid(2), sk.sphere_grid(8), sk.sphere_grid(8, (0.0,)), sk.sphere_grid(6, (-0.5, 0.5)),
], ids=["N2", "N8", "N8-split", "N6-panels"])
@pytest.mark.parametrize("f", [np.exp, outer], ids=["n3", "n33"])
def test_array_integrand_is_its_componentwise_integrals(grid, f):
    integral = sk.integrate(grid, f)
    shape = f(grid.points).shape[1:]
    assert isinstance(integral, np.ndarray) and integral.shape == shape
    # The array's sum adds the weighted rows in turn and a scalar's pairwise, so
    # they may part by the (n - 1) eps bound of a sum of n terms, scaled by int |f|.
    scale = sk.integrate(grid, lambda p: np.abs(f(p))).max()
    for index in np.ndindex(shape):
        scalar = sk.integrate(grid, lambda p: f(p)[(slice(None), *index)])
        assert type(scalar) is float
        assert scalar == float((grid.weights * f(grid.points)[(slice(None), *index)]).sum())
        assert abs(integral[index] - scalar) <= len(grid) * np.finfo(float).eps * scale, index


def test_off_diagonal_component_vanishes():
    grid = sk.sphere_grid(2)
    value = sk.integrate(grid, lambda p: p[:, 0] * p[:, 1])
    assert abs(value) <= 1e-14


def test_monte_carlo_orthogonality_defect_is_statistical():
    # same relation estimated with 1e6 uniform samples: defect should sit
    # at the 1/sqrt(N) scale, far from the quadrature's 1e-12
    points = sk.uniform_sphere(10**6, np.random.default_rng(42))
    moments = FOUR_PI * (points.T @ points) / len(points)
    defect = float(np.max(np.abs(moments - (FOUR_PI / 3.0) * np.eye(3))))
    assert 1e-4 < defect < 2e-2


def test_polynomial_exactness_up_to_degree():
    n_theta = 4
    grid = sk.sphere_grid(n_theta)
    for a, b, c in itertools.product(range(8), repeat=3):
        if a + b + c > 2 * n_theta - 1:
            continue
        value = sk.integrate(
            grid, lambda p: p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c
        )
        assert value == pytest.approx(
            monomial_sphere_integral(a, b, c), abs=1e-12
        ), (a, b, c)


def test_vector_integral_identity():
    # the degree-2 reduction behind the steering bound: the n-integral of
    # (m . T n)(n . lambda) collapses to (4pi/3) m . T lambda
    rng = np.random.default_rng(23)
    grid = sk.sphere_grid(4)
    for _ in range(50):
        t = rng.uniform(-1.0, 1.0, size=(3, 3))
        m, lam = sk.uniform_sphere(2, rng)
        quad = sk.integrate(grid, lambda p: (p @ (t.T @ m)) * (p @ lam))
        exact = (4.0 * np.pi / 3.0) * float(m @ t @ lam)
        assert quad == pytest.approx(exact, abs=1e-12)


def test_abs_cos_split_grid_exact():
    grid = sk.sphere_grid(8, breakpoints=(0.0,))
    assert abs(sk.integrate(grid, abs_cos) - 2.0 * np.pi) <= 1e-12


def test_abs_cos_unsplit_grid_inaccurate():
    # documents why the hemispherical split is required: the kink at the
    # equator costs the Gauss rule most of its digits
    grid = sk.sphere_grid(8)
    error = abs(sk.integrate(grid, abs_cos) - 2.0 * np.pi)
    assert 1e-3 < error < 1e-1


def test_signed_cos_vanishes_by_symmetry():
    grid = sk.sphere_grid(8)
    value = sk.integrate(grid, lambda p: p[:, 2])
    assert abs(value) <= 1e-14


def test_rules_are_read_only():
    grid = sk.sphere_grid(6, (0.0,))
    again = sk.sphere_grid(6, [0.0])
    np.testing.assert_array_equal(again.points, grid.points)
    np.testing.assert_array_equal(again.weights, grid.weights)
    assert not grid.points.flags.writeable
    assert not grid.weights.flags.writeable


# --- inner products over the product of spheres -------------------------------


def test_inner_product_constants():
    grid = sk.sphere_grid(4)
    one = lambda m, n: np.ones(len(m))
    assert sk.inner_product(one, one, grid) == pytest.approx(
        FOUR_PI**2, rel=1e-13
    )


def test_inner_product_orthogonal_modes():
    grid = sk.sphere_grid(4)
    f = lambda m, n: m[:, 0] * n[:, 0]
    g = lambda m, n: m[:, 1] * n[:, 1]
    assert abs(sk.inner_product(f, g, grid)) <= 1e-12


def test_inner_product_werner_norm():
    v = 0.7
    tensor = sk.pauli_expansion(sk.werner(v))
    eq = sk.correlation_fn(tensor)
    grid = sk.sphere_grid(4)
    expected = (16.0 * np.pi**2 / 9.0) * 3.0 * v**2
    assert sk.inner_product(eq, eq, grid) == pytest.approx(expected, rel=1e-10)


def test_uniform_sphere_points_are_unit():
    points = sk.uniform_sphere(1000, np.random.default_rng(1))
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-12
