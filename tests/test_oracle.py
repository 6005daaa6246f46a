
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerkit as sk
from helpers import tensor_from_block

Z = np.array([0.0, 0.0, 1.0])
FOUR_PI_3 = 4.0 * np.pi / 3.0


def single_component_model(lam, response):
    return sk.HiddenStateModel((sk.ModelComponent(1.0, lam, response),))


# --- responses and model validation -------------------------------------------


def test_sign_response_values():
    resp = sk.SignResponse(Z)
    assert resp(np.array([0.0, 0.0, 1.0])) == 1.0
    assert resp(np.array([1.0, 0.0, 0.0])) == 0.0
    values = resp(np.array([[0, 0, 1], [0, 0, -1]], dtype=float))
    np.testing.assert_array_equal(values, [1.0, -1.0])


def test_clipped_linear_response():
    resp = sk.ClippedLinearResponse(np.array([0.0, 0.0, 1.6]))
    assert resp(np.array([0.0, 0.0, 1.0])) == 1.0
    assert resp(np.array([0.0, 0.0, 0.5])) == pytest.approx(0.8)
    assert resp(np.array([0.0, -0.6, -0.8])) == -1.0  # past the kink at z = -1/1.6
    mild = sk.ClippedLinearResponse(np.array([0.0, 0.3, 0.4]))
    assert mild(np.array([0.0, 0.6, 0.8])) == pytest.approx(0.5)  # no kink below norm 1


def test_constant_response():
    resp = sk.ConstantResponse(-0.25)
    np.testing.assert_array_equal(resp(np.zeros((5, 3))), -0.25 * np.ones(5))


def test_response_validation():
    with pytest.raises(ValueError):
        sk.ConstantResponse(1.5)
    with pytest.raises(ValueError):
        sk.ClippedLinearResponse(np.array([3.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sk.SignResponse(np.array([0.0, 0.0, 2.0]))


def test_model_weight_validation():
    comp = sk.ModelComponent(0.4, Z, sk.ConstantResponse(1.0))
    with pytest.raises(ValueError):
        sk.HiddenStateModel((comp,))
    with pytest.raises(ValueError):
        sk.ModelComponent(-0.1, Z, sk.ConstantResponse(1.0))
    with pytest.raises(ValueError):
        sk.ModelComponent(1.0, np.array([0.0, 0.0, 0.5]), sk.ConstantResponse(1.0))
    with pytest.raises(ValueError):
        sk.HiddenStateModel(())


def test_unbounded_response_never_reaches_an_overlap():
    # Only the three built-in kinds, matched on the exact type, can be part
    # of a component, so neither overlap route can be handed a model whose
    # response leaves [-1, 1]: not a callable, not a subclass, and not a
    # stand-in that declares a built-in's attributes.
    class LoudSign(sk.SignResponse):
        def __call__(self, m):
            return 3.0 * super().__call__(m)

    stand_in = SimpleNamespace(axis=Z, vector=3.0 * Z)
    rng = np.random.default_rng(5)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    for response in (lambda m: 3.0 * (np.asarray(m) @ Z), LoudSign(Z), stand_in):
        with pytest.raises(TypeError):
            model = single_component_model(Z, response)
            sk.model_state_overlap(tensor, model)
        with pytest.raises(TypeError):
            model = single_component_model(Z, response)
            sk.model_state_overlap_mc(tensor, model, 1000, rng)


def test_builtin_responses_not_sampled(monkeypatch):
    # Built-in responses are bounded by construction, so the inequality
    # check never calls them; the overlap uses their clip formula.
    def refuse(self, m):
        raise AssertionError(f"{type(self).__name__} was sampled")

    for cls in (sk.SignResponse, sk.ClippedLinearResponse, sk.ConstantResponse):
        monkeypatch.setattr(cls, "__call__", refuse)
    rng = np.random.default_rng(21)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    models = [*sk.random_models(rng, 50), sk.saturating_model(sk.svd3(tensor.block))]
    checks = sk.verify_ns_inequality(tensor, models)
    assert len(checks) == 51
    assert all(check.holds for check in checks)


def test_sign_response_rejects_nan_axis():
    with pytest.raises(ValueError):
        sk.SignResponse([np.nan, 0.0, 1.0])
    with pytest.raises(ValueError):
        sk.ClippedLinearResponse([np.nan, 0.0, 0.0])


def test_constant_response_rejects_nan():
    with pytest.raises(ValueError):
        sk.ConstantResponse(np.nan)


def test_component_rejects_non_finite_weight():
    for weight in (np.nan, np.inf):
        with pytest.raises(ValueError):
            sk.ModelComponent(weight, Z, sk.ConstantResponse(1.0))
    # A stand-in that skips the component's checks is not a component.
    stand_in = SimpleNamespace(weight=np.nan, hidden_state=Z,
                               response=sk.ConstantResponse(1.0))
    with pytest.raises(TypeError):
        sk.HiddenStateModel((stand_in,))


def test_model_accepts_only_exact_components():
    # A stand-in, or a subclass that skips the checks in __post_init__,
    # would hand an unbounded response to every overlap route.
    class Unchecked(sk.ModelComponent):
        def __post_init__(self):
            pass

    loud = lambda m: 5.0 * (np.asarray(m) @ Z)  # noqa: E731
    for comp in (SimpleNamespace(weight=1.0, hidden_state=Z, response=loud),
                 Unchecked(1.0, Z, loud)):
        with pytest.raises(TypeError):
            sk.HiddenStateModel((comp,))


def test_component_rejects_nan_hidden_state():
    with pytest.raises(ValueError):
        sk.ModelComponent(1.0, [np.nan, 0.0, 0.0], sk.SignResponse(Z))


def test_clipped_response_geometry_down_to_zero():
    tiny = sk.ClippedLinearResponse(np.array([1e-13, 0.0, 0.0]))
    block = np.diag([0.5, -0.2, 0.1])
    model = single_component_model(np.array([0.6, 0.0, 0.8]), tiny)
    np.testing.assert_array_equal(model.axes, [[1.0, 0.0, 0.0]])
    expected = FOUR_PI_3 * FOUR_PI_3 * 1e-13 * 0.5 * 0.6
    assert sk.model_state_overlap(tensor_from_block(block), model) == pytest.approx(
        expected, rel=1e-14
    )
    zero = sk.ClippedLinearResponse(np.zeros(3))
    model = single_component_model(Z, zero)
    np.testing.assert_array_equal(model.axes, [[0.0, 0.0, 0.0]])
    assert sk.model_state_overlap(tensor_from_block(block), model) == 0.0


@pytest.mark.parametrize("norm", [None, 0.05, 1.0, 1.0 + 1e-9, 2.0])
def test_axial_response_is_the_clip_formula(norm):
    # The overlap integrates clip(norm z, -1, 1), z = m . axis, on the axis
    # and vector norm a model's columns hold, so that must be the response
    # itself on every setting. None is the sign, whose norm is inf.
    rng = np.random.default_rng(18)
    for _ in range(20):
        axis = sk.random_unit_vector(rng)
        response = (sk.SignResponse(axis) if norm is None
                    else sk.ClippedLinearResponse(norm * axis))
        model = single_component_model(Z, response)
        slope = np.inf if norm is None else np.linalg.norm(model.vectors[0])
        m = sk.uniform_sphere(500, rng)
        formula = np.clip(slope * (m @ model.axes[0]), -1.0, 1.0)
        defect = np.abs(response(m) - formula)
        assert defect.max() <= 1e-15


def test_declared_overlaps_build_no_rule(monkeypatch):
    # Clipped responses of norm above 1 each bring breakpoints of their own;
    # none of them, nor sign or constant responses, needs a sphere rule or
    # any other quadrature.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("an overlap ran a quadrature")

    monkeypatch.setattr(sk.sphere, "sphere_grid", no_quadrature)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_quadrature)
    rng = np.random.default_rng(17)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    for k in range(500):
        axis = sk.random_unit_vector(rng)
        response = (
            sk.ClippedLinearResponse((1.1 + k / 1000.0) * axis) if k % 3 == 0
            else sk.SignResponse(axis) if k % 3 == 1
            else sk.ConstantResponse(1.0)
        )
        sk.model_state_overlap(tensor, single_component_model(Z, response))


# --- E_NS evaluation -----------------------------------------------------------


def test_ns_correlation_aligned_deterministic():
    model = single_component_model(Z, sk.ConstantResponse(1.0))
    assert sk.ns_correlation_fn(model)(np.array([1.0, 0, 0]), Z) == pytest.approx(1.0)


def test_ns_correlation_zero_response():
    model = single_component_model(Z, sk.ConstantResponse(0.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = sk.random_unit_vector(rng)
        n = sk.random_unit_vector(rng)
        assert sk.ns_correlation_fn(model)(m, n) == 0.0


def test_ns_correlation_two_components():
    model = sk.HiddenStateModel(
        (
            sk.ModelComponent(0.5, Z, sk.SignResponse(Z)),
            sk.ModelComponent(0.5, -Z, sk.SignResponse(-Z)),
        )
    )
    assert sk.ns_correlation_fn(model)(Z, Z) == pytest.approx(1.0)


def test_ns_correlation_fn_matches_scalar():
    rng = np.random.default_rng(3)
    model = sk.random_model(rng)
    m = np.array([sk.random_unit_vector(rng) for _ in range(10)])
    n = np.array([sk.random_unit_vector(rng) for _ in range(10)])
    batch = sk.ns_correlation_fn(model)(m, n)
    for k in range(10):
        # E_NS(m, n) = sum_k p_k I_k(m) (n . lambda_k), written out per setting pair
        scalar = sum(c.weight * float(c.response(m[k])) * float(n[k] @ c.hidden_state)
                     for c in model.components)
        assert batch[k] == pytest.approx(scalar, abs=1e-14)
        assert abs(batch[k]) <= 1.0 + 1e-12


# --- bounds ---------------------------------------------------------------------


def test_norm_eq_analytic_closed_forms():
    v = 0.45
    assert sk.norm_eq_analytic(sk.pauli_expansion(sk.werner(v))) == pytest.approx(
        (16.0 * np.pi**2 / 9.0) * 3.0 * v**2, rel=1e-13
    )
    assert sk.norm_eq_analytic(tensor_from_block(np.zeros((3, 3)))) == 0.0
    alpha, v = 1.1, 0.6
    tensor = sk.pauli_expansion(sk.noisy_schmidt(alpha, v))
    assert sk.norm_eq_analytic(tensor) == pytest.approx(
        (16.0 * np.pi**2 / 9.0) * v**2 * (1.0 + 2.0 * np.sin(alpha) ** 2),
        rel=1e-12,
    )


def test_ns_bound_werner():
    v = 0.85
    schmidt = sk.svd3(sk.pauli_expansion(sk.werner(v)).block)
    assert sk.ns_bound(schmidt) == pytest.approx(8.0 * np.pi**2 / 3.0 * v, rel=1e-13)
    assert sk.lhv_bound(schmidt) == pytest.approx(4.0 * np.pi**2 * v, rel=1e-13)


def test_bound_ratio_is_two_thirds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        schmidt = sk.svd3(sk.pauli_expansion(sk.random_density_matrix(rng)).block)
        ratio = sk.ns_bound(schmidt) / sk.lhv_bound(schmidt)
        assert abs(ratio - 2.0 / 3.0) <= 5e-16


def test_zero_tensor_has_degenerate_top_direction():
    schmidt = sk.svd3(np.zeros((3, 3)))
    assert sk.ns_bound(schmidt) == 0.0
    with pytest.raises(sk.DegenerateTensor):
        sk.saturating_model(schmidt)


# --- overlaps against closed forms ----------------------------------------------


def test_overlap_sign_response_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        block = 0.8 * rng.uniform(-1, 1, size=(3, 3))
        tensor = tensor_from_block(block)
        lam = sk.random_unit_vector(rng)
        w = sk.random_unit_vector(rng)
        model = single_component_model(lam, sk.SignResponse(w))
        expected = FOUR_PI_3 * 2.0 * np.pi * float(w @ block @ lam)
        assert sk.model_state_overlap(tensor, model) == pytest.approx(
            expected, abs=1e-12
        )


def test_overlap_linear_response_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        block = 0.8 * rng.uniform(-1, 1, size=(3, 3))
        tensor = tensor_from_block(block)
        lam = sk.random_unit_vector(rng)
        w = rng.uniform(0.1, 1.0) * sk.random_unit_vector(rng)
        model = single_component_model(lam, sk.ClippedLinearResponse(w))
        expected = FOUR_PI_3**2 * float(w @ block @ lam)
        assert sk.model_state_overlap(tensor, model) == pytest.approx(
            expected, abs=1e-12
        )


def test_overlap_clipped_response_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        block = 0.8 * rng.uniform(-1, 1, size=(3, 3))
        tensor = tensor_from_block(block)
        lam = sk.random_unit_vector(rng)
        scale = rng.uniform(1.05, 2.0)
        w_hat = sk.random_unit_vector(rng)
        model = single_component_model(
            lam, sk.ClippedLinearResponse(scale * w_hat)
        )
        # piecewise integration of clip(scale*u, -1, 1) * u over [-1, 1]
        expected = (
            FOUR_PI_3
            * 2.0
            * np.pi
            * (1.0 - 1.0 / (3.0 * scale**2))
            * float(w_hat @ block @ lam)
        )
        assert sk.model_state_overlap(tensor, model) == pytest.approx(
            expected, abs=1e-12
        )


def test_overlap_constant_response_vanishes():
    rng = np.random.default_rng(9)
    tensor = tensor_from_block(0.8 * rng.uniform(-1, 1, size=(3, 3)))
    model = single_component_model(
        sk.random_unit_vector(rng), sk.ConstantResponse(1.0)
    )
    assert sk.model_state_overlap(tensor, model) == 0.0


def test_axial_moments_match_closed_forms():
    # 2 pi int_{-1}^{1} f(z) z dz, written out by hand per response family:
    # sign 2 pi; clip(r z) 4 pi r / 3 for r <= 1, 4 pi (1/2 - 1/(6 r^2)) above.
    axis = np.array([2.0, -3.0, 6.0]) / 7.0
    cases = [(sk.SignResponse(axis), 2.0 * np.pi)]
    for r in (0.05, 0.5, 1.0):
        cases.append((sk.ClippedLinearResponse(r * axis), 4.0 * np.pi * r / 3.0))
    for r in (1.0, 1.0 + 1e-9, 1.5, 2.0):
        cases.append((sk.ClippedLinearResponse(r * axis),
                      4.0 * np.pi * (0.5 - 1.0 / (6.0 * r * r))))
    tensor = tensor_from_block(np.eye(3))
    for response, moment in cases:
        model = single_component_model(axis, response)
        lhs = sk.model_state_overlap(tensor, model)
        assert abs(lhs - FOUR_PI_3 * moment) <= 1e-14 * FOUR_PI_3 * moment, moment


def test_moments_match_panel_quadrature():
    # The closed-form moments against the sphere rule of order 6 split at
    # +-1/norm (at 0 for a sign), exact for the piecewise polynomial
    # clip(norm z, -1, 1) z up to rounding.
    rng = np.random.default_rng(27)
    norms = [*np.linspace(0.0, 2.0, 401), *rng.uniform(0.0, 2.0, 200),
             1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-9, np.inf]
    for norm in norms:
        if np.isinf(norm):
            response, breakpoints = sk.SignResponse(Z), (0.0,)
        else:
            response = sk.ClippedLinearResponse(norm * Z)
            breakpoints = (-1.0 / norm, 1.0 / norm) if norm > 1.0 else ()
        quadrature = sk.integrate(
            sk.sphere_grid(6, breakpoints),
            lambda m: np.clip(norm * m[:, 2], -1.0, 1.0) * m[:, 2],
        )
        (moment,) = single_component_model(Z, response).coeffs
        assert abs(moment - quadrature) <= 1e-15 * max(quadrature, 1.0), norm


@pytest.mark.parametrize("axis", [
    (1e-7, 0.0, -1.0), (3e-7, 2e-7, -1.0), (-1e-7, 1e-7, -1.0),
    (1e-7, 0.0, 1.0), (3e-7, -2e-7, 1.0), (1e-9, 1e-9, -1.0),
    (1.0, 0.0, -0.0), (0.6, 0.8, 0.0),
])
def test_overlap_axes_near_poles(axis):
    w = np.array(axis) / np.linalg.norm(axis)
    block = np.diag([0.3, -0.5, 0.9])
    tensor = tensor_from_block(block)
    lam = np.array([0.0, 0.6, 0.8])
    sign = single_component_model(lam, sk.SignResponse(w))
    clipped = single_component_model(lam, sk.ClippedLinearResponse(1.5 * w))
    projection = float(w @ block @ lam)
    bound = 8.0 * np.pi**2 / 3.0 * 0.9
    assert abs(sk.model_state_overlap(tensor, sign)
               - FOUR_PI_3 * 2.0 * np.pi * projection) <= 1e-15 * bound
    gain = 4.0 * np.pi * (0.5 - 1.0 / (6.0 * 1.5**2))
    assert abs(sk.model_state_overlap(tensor, clipped)
               - FOUR_PI_3 * gain * projection) <= 1e-15 * bound


def test_overlap_agrees_with_full_product_quadrature():
    rng = np.random.default_rng(11)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    model = single_component_model(
        sk.random_unit_vector(rng),
        sk.ClippedLinearResponse(0.7 * sk.random_unit_vector(rng)),
    )
    reduced = sk.model_state_overlap(tensor, model)
    full = sk.inner_product(
        sk.correlation_fn(tensor),
        sk.ns_correlation_fn(model),
        sk.sphere_grid(4),
    )
    assert full == pytest.approx(reduced, abs=1e-12)


def test_overlap_sign_full_quadrature_on_aligned_split_grid():
    # |T3| largest, so the top left singular vector is the grid's polar
    # axis and the sign response jumps on its split equator.
    tensor = tensor_from_block(np.diag([0.2, -0.45, -0.7]))
    schmidt = sk.svd3(tensor.block)
    model = sk.saturating_model(schmidt)
    np.testing.assert_array_equal(np.abs(schmidt.u[0]), [0.0, 0.0, 1.0])
    grid = sk.sphere_grid(8, breakpoints=(0.0,))
    full = sk.inner_product(
        sk.correlation_fn(tensor), sk.ns_correlation_fn(model), grid
    )
    assert full == pytest.approx(sk.ns_bound(schmidt), rel=1e-10)


# --- stacks of models -------------------------------------------------------------


def test_random_models_contract():
    rng = np.random.default_rng(20)
    models = sk.random_models(rng, 400)
    assert len(models) == 400
    kinds = set()
    for model in models:
        assert 1 <= len(model.components) <= sk.oracle.MAX_COMPONENTS
        weights = np.array([c.weight for c in model.components])
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        for c in model.components:
            assert abs(np.linalg.norm(c.hidden_state) - 1.0) <= 1e-12
            kinds.add(type(c.response))
            if isinstance(c.response, sk.SignResponse):
                assert abs(np.linalg.norm(c.response.axis) - 1.0) <= 1e-12
            elif isinstance(c.response, sk.ClippedLinearResponse):
                assert 0.05 <= np.linalg.norm(c.response.vector) <= 2.0
            else:
                assert c.response.value in (-1.0, 1.0)
        axes = model.axes[model.kinds != 2]  # a constant has no axis
        assert np.all(np.abs(np.linalg.norm(axes, axis=1) - 1.0) <= 1e-12)
    assert kinds == {sk.SignResponse, sk.ClippedLinearResponse, sk.ConstantResponse}
    assert {len(m.components) for m in models} == set(
        range(1, sk.oracle.MAX_COMPONENTS + 1))
    assert sk.random_models(rng, 0) == []


def _model_data(model):
    out = []
    for c in model.components:
        r = c.response
        detail = (r.axis.tolist() if isinstance(r, sk.SignResponse)
                  else r.vector.tolist() if isinstance(r, sk.ClippedLinearResponse)
                  else r.value)
        out.append((c.weight, c.hidden_state.tolist(), type(r), detail))
    return out


def test_random_model_is_a_stack_of_one():
    for seed in range(50):
        single = sk.random_model(np.random.default_rng(seed))
        (stacked,) = sk.random_models(np.random.default_rng(seed), 1)
        assert _model_data(single) == _model_data(stacked)


def _extra_model(rng):
    # Components the random draw never makes: a response in [-1, 1] that is
    # constant but not +-1, and a zero clipped vector.
    responses = [sk.ConstantResponse(rng.uniform(-1.0, 1.0)),
                 sk.ClippedLinearResponse(np.zeros(3))]
    weights = rng.standard_exponential(2)
    return sk.HiddenStateModel(tuple(
        sk.ModelComponent(w, sk.random_unit_vector(rng), r)
        for w, r in zip((weights / weights.sum()).tolist(), responses)))


def test_model_state_overlaps_match_single_calls():
    rng = np.random.default_rng(21)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    bound = sk.ns_bound(sk.svd3(tensor.block))
    for k in range(500):
        models = sk.random_models(rng, k % 7)
        models.insert(int(rng.integers(len(models) + 1)), _extra_model(rng))
        stacked = sk.model_state_overlaps(tensor, models)
        assert len(stacked) == len(models)
        for model, value in zip(models, stacked):
            assert abs(value - sk.model_state_overlap(tensor, model)) <= 1e-15 * bound
    assert sk.model_state_overlaps(tensor, []) == []


def _closed_form_overlap(block, model):
    # Per component, the moments of test_overlap_*_closed_form: sign 2 pi,
    # clip(r z) 4 pi r / 3 up to r = 1 and 4 pi (1/2 - 1/(6 r^2)) above,
    # constant 0; each times p (axis . T lambda), all times 4 pi / 3.
    total = 0.0
    for kind, weight, lam, vector in zip(model.kinds, model.weights, model.hidden,
                                         model.vectors):
        r = float(np.linalg.norm(vector))
        if kind == 0:
            moment = 2.0 * np.pi
        elif kind == 1:
            moment = (4.0 * np.pi * r / 3.0 if r <= 1.0
                      else 4.0 * np.pi * (0.5 - 1.0 / (6.0 * r * r)))
        else:
            continue
        total += weight * moment * float(vector @ block @ lam) / (r if kind == 1 else 1.0)
    return FOUR_PI_3 * total


def test_random_models_build_no_objects(monkeypatch):
    # The draw goes from arrays to columns; no component or response object
    # is built on the way, and the overlaps still meet the closed forms.
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} was built")

    for cls in (sk.ModelComponent, sk.SignResponse, sk.ClippedLinearResponse,
                sk.ConstantResponse):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    rng = np.random.default_rng(23)
    models = sk.random_models(rng, 1000)
    assert {int(k) for m in models for k in m.kinds} == {0, 1, 2}
    for _ in range(3):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        bound = sk.ns_bound(sk.svd3(tensor.block))
        for model, value in zip(models, sk.model_state_overlaps(tensor, models)):
            assert abs(value - _closed_form_overlap(tensor.block, model)) <= 1e-12 * bound


def test_model_from_its_components_has_the_same_overlaps():
    rng = np.random.default_rng(24)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    models = [*sk.random_models(rng, 300), _extra_model(rng)]
    rebuilt = [sk.HiddenStateModel(model.components) for model in models]
    assert sk.model_state_overlaps(tensor, rebuilt) == sk.model_state_overlaps(tensor, models)
    for model, copy in zip(models, rebuilt):
        assert sk.model_state_overlap(tensor, copy) == sk.model_state_overlap(tensor, model)


def test_model_columns_are_read_only():
    model = sk.random_model(np.random.default_rng(25))
    with pytest.raises(AttributeError):
        model.coeffs = np.zeros(len(model.coeffs))
    for name in ("weights", "hidden", "kinds", "vectors", "values", "axes", "coeffs"):
        with pytest.raises(ValueError):
            getattr(model, name)[0] = 0.0


def test_component_keeps_no_view_of_its_inputs():
    # The hidden state and the sign axis are validated copies: scaling the
    # caller's array after construction changes neither them nor the overlap.
    h = np.array([0.0, 0.0, 1.0])
    component = sk.ModelComponent(1.0, h, sk.SignResponse(h))
    h *= -3.0
    for v in (component.hidden_state, component.response.axis):
        np.testing.assert_array_equal(v, Z)
        with pytest.raises(ValueError):
            v[0] = 1.0
    tensor = sk.pauli_expansion(sk.werner(1.0))
    target = -8.0 * np.pi**2 / 3.0 * sk.svd3(tensor.block).sigma[0]
    lhs = sk.model_state_overlap(tensor, sk.HiddenStateModel((component,)))
    assert abs(lhs - target) <= 1e-12 * abs(target)


def test_random_models_check_their_draw(monkeypatch):
    # The draw's hidden states and axes are checked for unit norm once per
    # stack, as a hand-built component's are when it is built.
    draw = sk.oracle.uniform_sphere
    monkeypatch.setattr(sk.oracle, "uniform_sphere", lambda n, rng: 1.001 * draw(n, rng))
    with pytest.raises(ValueError, match="not a unit vector"):
        sk.random_models(np.random.default_rng(26), 50)


# --- the bound and its saturation ------------------------------------------------


def test_saturating_model_singlet():
    schmidt = sk.svd3(sk.pauli_expansion(sk.werner(1.0)).block)
    model = sk.saturating_model(schmidt)
    lhs = sk.model_state_overlap(sk.pauli_expansion(sk.werner(1.0)), model)
    target = 8.0 * np.pi**2 / 3.0
    assert lhs == pytest.approx(target, rel=1e-6)
    assert abs(lhs - target) / target <= 1e-12


def test_saturating_model_scales_with_noise():
    tensor = sk.pauli_expansion(sk.werner(0.5))
    schmidt = sk.svd3(tensor.block)
    lhs = sk.model_state_overlap(tensor, sk.saturating_model(schmidt))
    assert lhs == pytest.approx(4.0 * np.pi**2 / 3.0, rel=1e-12)


def test_saturation_on_random_states():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        schmidt = sk.svd3(tensor.block)
        lhs = sk.model_state_overlap(tensor, sk.saturating_model(schmidt))
        bound = sk.ns_bound(schmidt)
        assert abs(lhs - bound) / bound <= 1e-6


def test_verify_ns_inequality_saturating_model():
    tensor = sk.pauli_expansion(sk.werner(1.0))
    schmidt = sk.svd3(tensor.block)
    (check,) = sk.verify_ns_inequality(tensor, [sk.saturating_model(schmidt)])
    assert check.holds
    assert check.lhs == pytest.approx(check.bound, rel=1e-10)


def test_verify_ns_inequality_zero_response():
    tensor = sk.pauli_expansion(sk.werner(0.9))
    model = single_component_model(Z, sk.ConstantResponse(0.0))
    (check,) = sk.verify_ns_inequality(tensor, [model])
    assert check.holds
    assert check.lhs == pytest.approx(0.0, abs=1e-13)


def test_verify_ns_inequality_random_models():
    rng = np.random.default_rng(14)
    for _ in range(5):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        checks = sk.verify_ns_inequality(tensor, sk.random_models(rng, 100))
        assert len(checks) == 100
        assert all(check.holds for check in checks)


def test_verify_ns_inequality_stack_matches_single_calls():
    rng = np.random.default_rng(19)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    models = sk.random_models(rng, 50)
    stacked = sk.verify_ns_inequality(tensor, models)
    for model, check in zip(models, stacked, strict=True):
        (single,) = sk.verify_ns_inequality(tensor, [model])
        assert (check.bound, check.tolerance, check.holds) == (
            single.bound, single.tolerance, single.holds)
        assert abs(check.lhs - single.lhs) <= 1e-15 * check.bound
    assert sk.verify_ns_inequality(tensor, []) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ns_inequality_property(seed):
    rng = np.random.default_rng(seed)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    (check,) = sk.verify_ns_inequality(tensor, [sk.random_model(rng)])
    assert check.holds


def test_steering_detection_equivalence():
    rng = np.random.default_rng(15)
    tie = sk.criteria.TIE_TOL
    for _ in range(100):
        tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
        schmidt = sk.svd3(tensor.block)
        rows = sk.ladder(schmidt.t1, schmidt.t2, sk.tensor_norm_sq(tensor))
        detected = sk.criteria.detected(rows[sk.Criterion.GEOMETRIC_STEERING][2])
        oracle_side = sk.norm_eq_analytic(tensor) > sk.ns_bound(schmidt) + (
            8.0 * np.pi**2 / 3.0
        ) * tie
        assert detected == oracle_side


def test_monte_carlo_overlap_consistent():
    rng = np.random.default_rng(16)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    model = sk.random_model(rng)
    exact = sk.model_state_overlap(tensor, model)
    estimate, stderr = sk.model_state_overlap_mc(tensor, model, 200_000, rng)
    assert abs(estimate - exact) <= 4.0 * stderr
    assert stderr < 0.1


@pytest.mark.parametrize("samples", [0, 1])
def test_monte_carlo_needs_two_samples(samples):
    tensor = sk.pauli_expansion(sk.werner(0.7))
    model = single_component_model(Z, sk.SignResponse(Z))
    with pytest.raises(ValueError):
        sk.model_state_overlap_mc(tensor, model, samples, np.random.default_rng(0))


def test_monte_carlo_memory_stays_bounded():
    # Drawing 300,000 samples at once would hold about 25 MB of (m, n)
    # arrays and products; blocks of 2**16 keep the peak near 8 MB.
    rng = np.random.default_rng(19)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    model = sk.random_model(rng)
    exact = sk.model_state_overlap(tensor, model)
    tracemalloc.start()
    try:
        estimate, stderr = sk.model_state_overlap_mc(tensor, model, 300_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert abs(estimate - exact) <= 4.0 * stderr


def test_monte_carlo_blocks_merge_exactly():
    # Three blocks, the last one partial: the merged mean and standard
    # error are those of all the samples taken in one pass.
    block = sk.oracle._MC_BLOCK
    samples = 2 * block + 5
    rng = np.random.default_rng(20)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    model = sk.random_model(rng)
    state = rng.bit_generator.state
    estimate, stderr = sk.model_state_overlap_mc(tensor, model, samples, rng)
    rng.bit_generator.state = state
    values = []
    for size in (block, block, 5):
        m = sk.uniform_sphere(size, rng)
        n = sk.uniform_sphere(size, rng)
        values.append(sk.correlation_fn(tensor)(m, n) * sk.ns_correlation_fn(model)(m, n))
    values = (4.0 * np.pi) ** 2 * np.concatenate(values)
    assert estimate == pytest.approx(values.mean(), rel=1e-12, abs=1e-12)
    assert stderr == pytest.approx(values.std(ddof=1) / np.sqrt(samples), rel=1e-12)


# --- the two-setting comparison ---------------------------------------------------


def test_chsh_grid_alone_reaches_two():
    value = sk.chsh_ns_max(step_deg=30.0)
    assert 2.0 - 1e-12 <= value <= 2.0 + 1e-9


def test_chsh_ns_max_value():
    value = sk.chsh_ns_max(step_deg=15.0)
    assert 2.0 - 1e-6 <= value <= 2.0 + 1e-9


def test_chsh_ns_max_fine_step_stays_small():
    # Finer steps land one ulp higher (2.000000000000001 at 3 degrees), so
    # no exact float is pinned.
    tracemalloc.start()
    try:
        value = sk.chsh_ns_max(step_deg=6.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - 2.0) <= 1e-15
    assert peak < 8e6


@pytest.mark.parametrize("step_deg, size", [(30.0, 62), (15.0, 266), (6.0, 1742)])
def test_chsh_grid_has_each_direction_once(step_deg, size):
    # The poles theta = 0 and 180 degrees are single directions, not rings.
    dirs = sk.oracle._direction_grid(step_deg)
    assert len(dirs) == size
    assert len(np.unique(np.round(dirs, 12), axis=0)) == size


@pytest.mark.parametrize("step_deg", [0.0, -15.0, np.nan, np.inf, 180.5])
def test_chsh_ns_max_rejects_bad_step(step_deg):
    with pytest.raises(ValueError):
        sk.chsh_ns_max(step_deg=step_deg)
