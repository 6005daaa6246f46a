import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerkit as sk
from helpers import SINGLET_PROJECTOR, criteria_for_state
from steerkit.criteria import boundary, detected


def test_werner_extremes():
    np.testing.assert_allclose(
        sk.werner(1.0).matrix, SINGLET_PROJECTOR, atol=1e-15
    )
    np.testing.assert_allclose(sk.werner(0.0).matrix, np.eye(4) / 4.0, atol=1e-15)


def test_werner_block_closed_form():
    rng = np.random.default_rng(41)
    for v in rng.uniform(0.0, 1.0, size=50):
        block = sk.pauli_expansion(sk.werner(float(v))).block
        assert np.max(np.abs(block - np.diag([-v, -v, -v]))) <= 1e-12


def test_werner_parameter_range():
    for bad in (-0.1, 1.1, -1.0 / 3.0 + 0.01):
        if 0.0 <= bad <= 1.0:
            continue
        with pytest.raises(sk.ParameterOutOfRange):
            sk.werner(bad)


def test_noisy_schmidt_block_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, np.pi))
        v = float(rng.uniform(0.0, 1.0))
        block = sk.pauli_expansion(sk.noisy_schmidt(alpha, v)).block
        expected = np.diag([-v * np.sin(alpha), -v * np.sin(alpha), -v])
        assert np.max(np.abs(block - expected)) <= 1e-12


def test_noisy_schmidt_right_angle_is_singlet():
    np.testing.assert_allclose(
        sk.noisy_schmidt(np.pi / 2, 1.0).matrix, SINGLET_PROJECTOR, atol=1e-15
    )


def test_noisy_schmidt_pure_tensor():
    alpha = 0.77
    block = sk.pauli_expansion(sk.noisy_schmidt(alpha, 1.0)).block
    s = np.sin(alpha)
    np.testing.assert_allclose(block, np.diag([-s, -s, -1.0]), atol=1e-14)


def test_noisy_schmidt_parameter_range():
    with pytest.raises(sk.ParameterOutOfRange):
        sk.noisy_schmidt(-0.1, 0.5)
    with pytest.raises(sk.ParameterOutOfRange):
        sk.noisy_schmidt(np.pi + 0.1, 0.5)
    with pytest.raises(sk.ParameterOutOfRange):
        sk.noisy_schmidt(1.0, 1.5)


def test_separable_limit_never_detects_steering():
    # alpha = 0 gives block diag(0, 0, -v): T1 = v but ||T||^2 = v^2, and
    # v < (2/3) v^2 has no solution on (0, 1]
    family = sk.noisy_schmidt_family(0.0)
    with pytest.raises(sk.NoDetection):
        sk.critical_noise(family, sk.Criterion.GEOMETRIC_STEERING)


def test_tensor_affine_in_noise():
    for family in (sk.werner_family(), sk.noisy_schmidt_family(1.2)):
        t_lo = sk.pauli_expansion(family.state_at(0.2)).full
        t_mid = sk.pauli_expansion(family.state_at(0.4)).full
        t_hi = sk.pauli_expansion(family.state_at(0.6)).full
        assert np.max(np.abs(t_lo + t_hi - 2.0 * t_mid)) <= 1e-12


def test_family_from_name():
    assert sk.family_from_name("werner").name == "werner"
    fam = sk.family_from_name("noisy-schmidt", alpha=0.4)
    assert fam.shape_parameters == {"alpha": 0.4}
    with pytest.raises(sk.ParameterOutOfRange):
        sk.family_from_name("noisy-schmidt")
    with pytest.raises(sk.ParameterOutOfRange):
        sk.family_from_name("ghz")
    with pytest.raises(sk.ParameterOutOfRange):
        sk.family_from_name("werner", alpha=1.0)
    names = sk.families.FAMILY_NAMES  # the CLI's --family choices
    assert tuple(sk.family_from_name(n, None if n == "werner" else 0.4).name
                 for n in names) == names


def test_sweep_grid_and_order():
    result = sk.sweep(sk.werner_family(), np.linspace(0.0, 1.0, 11))
    assert len(result) == 11
    assert list(result.v) == pytest.approx(list(np.linspace(0, 1, 11)))
    margin = result.rows[sk.Criterion.GEOMETRIC_STEERING][2]
    assert list(result.v[detected(margin)]) == pytest.approx(
        [0.6, 0.7, 0.8, 0.9, 1.0])


def test_sweep_empty_grid():
    result = sk.sweep(sk.werner_family(), [])
    assert len(result) == 0
    assert result.sigma.shape == (0, 3)
    assert all(len(a) == 0 for row in result.rows.values() for a in row)


def same_columns(a, b):
    return (np.array_equal(a.v, b.v) and np.array_equal(a.sigma, b.sigma)
            and np.array_equal(a.norm_sq, b.norm_sq)
            and all(np.array_equal(x, y) for c in a.rows
                    for x, y in zip(a.rows[c], b.rows[c])))


def test_sweep_takes_any_iterable_grid():
    grid = [0.9, 0.1, 0.5]
    expected = sk.sweep(sk.werner_family(), grid)
    assert expected.v.tolist() == [0.1, 0.5, 0.9]
    assert same_columns(sk.sweep(sk.werner_family(), (v for v in grid)), expected)
    assert same_columns(sk.sweep(sk.werner_family(), np.array(grid)), expected)


def test_sweep_records_recomputable():
    # The built-in blocks are diagonal, so v·sigma(T(1)) is the SVD bit for bit.
    for family in [sk.werner_family()] + [
            sk.noisy_schmidt_family(a) for a in (0.3, 1.0, 1.0472, 2.0, 2.9)]:
        result = sk.sweep(family, [0.0, 0.3, 0.8, 1.0])
        for k, v in enumerate(result.v):
            block = v * family.unit_block
            schmidt = sk.svd3(block)
            norm_sq = float(np.sum(block * block))
            assert result.sigma[k].tolist() == schmidt.sigma.tolist()
            assert result.norm_sq[k] == norm_sq
            rows = sk.ladder(schmidt.t1, schmidt.t2, norm_sq)
            for c, row in rows.items():
                assert tuple(a[k] for a in result.rows[c]) == row


def per_state_rows(family, v_grid):
    """Each grid point the long way: state, Pauli table, SVD, ladder."""
    rows = []
    for v in v_grid:
        _, schmidt, norm_sq, ladder = criteria_for_state(family.state_at(float(v)))
        rows.append((schmidt.t1, norm_sq, ladder))
    return rows


@pytest.mark.parametrize("family", [
    sk.werner_family(), sk.noisy_schmidt_family(np.pi / 3),
    sk.noisy_schmidt_family(0.4), sk.noisy_schmidt_family(2.9),
], ids=lambda f: f"{f.name}{f.shape_parameters.get('alpha', '')}")
def test_scaled_sweep_matches_per_state_path(family):
    v_grid = np.linspace(0.0, 1.0, 301)
    result = sk.sweep(family, v_grid)
    reference = per_state_rows(family, v_grid)
    for k, (t1, norm_sq, ladder) in enumerate(reference):
        assert abs(result.sigma[k, 0] - t1) <= 1e-15
        assert abs(result.norm_sq[k] - norm_sq) <= 1e-15
        for c, want in ladder.items():
            got = tuple(a[k] for a in result.rows[c])
            assert (detected(got[2]), boundary(got[2])) == (
                detected(want[2]), boundary(want[2]))
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-15


def test_sweep_rejects_noise_outside_unit_interval():
    for bad in ([0.5, 1.5], [-0.1], [0.2, float("nan")]):
        with pytest.raises(sk.ParameterOutOfRange):
            sk.sweep(sk.werner_family(), bad)


def test_noisy_schmidt_family_checks_alpha_when_built():
    for bad in (-0.1, np.pi + 0.1, 99.0, float("nan")):
        with pytest.raises(sk.ParameterOutOfRange):
            sk.noisy_schmidt_family(bad)


def test_endpoint_must_be_a_validated_state():
    # pauli_expansion is the one check; a non-finite matrix is refused by
    # validate_state before it can become an endpoint (test_states.py).
    for endpoint in (sk.werner(1.0).matrix, np.array([0.0, 1.0, -1.0, 0.0]),
                     sk.pauli_expansion(sk.werner(1.0))):
        with pytest.raises(TypeError):
            sk.NoiseFamily("unvalidated", sk.werner, endpoint)


def test_family_spectrum_is_one_svd3_call(monkeypatch):
    results = []

    def counting(block):
        results.append(sk.svd3(block))
        return results[-1]

    monkeypatch.setattr(sk.families, "svd3", counting)
    for build in (sk.werner_family, lambda: sk.noisy_schmidt_family(0.9)):
        family = build()
        assert family.unit_sigma is results[-1].sigma
    assert len(results) == 2


def threshold_or_none(family, criterion):
    try:
        return sk.critical_noise(family, criterion)
    except sk.NoDetection:
        return None


def test_closed_form_thresholds_match_bisection():
    # Independent reference: the thresholds written out with s = sin(alpha),
    # entanglement 1/(1+2s^2), steering 3/(2(1+2s^2)), Bell 9/(4(1+2s^2))
    # and CHSH 1/sqrt(1+s^2); Werner is the case s = 1.
    sines = [1.0] + [float(np.sin(a)) for a in np.linspace(0.0, np.pi, 61)]
    families = [sk.werner_family()] + [
        sk.noisy_schmidt_family(float(a)) for a in np.linspace(0.0, np.pi, 61)
    ]
    undetected = 0
    for s, family in zip(sines, families):
        q = 1.0 + 2.0 * s * s
        expected = {
            sk.Criterion.GEOMETRIC_ENTANGLEMENT: 1.0 / q,
            sk.Criterion.GEOMETRIC_STEERING: 3.0 / (2.0 * q),
            sk.Criterion.GEOMETRIC_BELL: 9.0 / (4.0 * q),
            sk.Criterion.CHSH_HORODECKI: 1.0 / np.sqrt(1.0 + s * s),
        }
        for criterion, want in expected.items():
            found = threshold_or_none(family, criterion)
            assert (found is None) == (want >= 1.0 - 1e-9), (family, criterion)
            if found is None:
                undetected += 1
            else:
                assert abs(found - want) <= 1e-11
    assert 0 < undetected < 4 * len(families)


def test_closed_form_survives_state_at_swap():
    family = sk.noisy_schmidt_family(1.3)

    def refuse(v):
        raise AssertionError("state_at called on a declared family")

    swapped = dataclasses.replace(family, state_at=refuse)
    assert np.array_equal(swapped.unit_block, family.unit_block)
    # replace reruns __post_init__: the spectrum is taken again, not passed on
    assert swapped.unit_sigma is not family.unit_sigma
    assert np.array_equal(swapped.unit_sigma, family.unit_sigma)
    assert swapped.unit_norm_sq == family.unit_norm_sq
    with pytest.raises(ValueError):
        swapped.unit_sigma[0] = 0.0
    for c in sk.Criterion:
        assert sk.critical_noise(swapped, c) == sk.critical_noise(family, c)
    assert np.array_equal(sk.sweep(swapped, [0.2, 0.9]).sigma,
                          sk.sweep(family, [0.2, 0.9]).sigma)


def test_threshold_curve_matches_closed_form():
    # critical noise against the analytic threshold 3 / (2 (1 + 2 sin^2 a)),
    # which stays inside [0, 1] for alpha between pi/6 and 5 pi/6
    for alpha in np.linspace(np.pi / 6 + 0.05, 5 * np.pi / 6 - 0.05, 20):
        family = sk.noisy_schmidt_family(float(alpha))
        found = sk.critical_noise(family, sk.Criterion.GEOMETRIC_STEERING)
        expected = 3.0 / (2.0 * (1.0 + 2.0 * np.sin(alpha) ** 2))
        assert found == pytest.approx(expected, abs=1e-8)


def test_threshold_curve_outside_steerable_window():
    # past 5 pi/6 the closed form exceeds 1 and the family is not detected
    for alpha in (5 * np.pi / 6 + 0.05, np.pi):
        assert 3.0 / (2.0 * (1.0 + 2.0 * np.sin(alpha) ** 2)) > 1.0
        with pytest.raises(sk.NoDetection):
            sk.critical_noise(
                sk.noisy_schmidt_family(alpha), sk.Criterion.GEOMETRIC_STEERING
            )


def test_boundary_angle_is_inconclusive_everywhere():
    # at alpha = pi/6 the analytic threshold sits exactly at v = 1, and the
    # strict comparison reports the endpoint as boundary, not detection
    family = sk.noisy_schmidt_family(np.pi / 6)
    margin = criteria_for_state(family.state_at(1.0))[3][
        sk.Criterion.GEOMETRIC_STEERING][2]
    assert boundary(margin)
    assert not detected(margin)
    with pytest.raises(sk.NoDetection):
        sk.critical_noise(family, sk.Criterion.GEOMETRIC_STEERING)


def test_families_hash_and_compare_by_identity():
    for build in (sk.werner_family, lambda: sk.noisy_schmidt_family(1.0)):
        family = build()
        assert family == family
        assert family != build()
        assert {family: 1}[family] == 1


def test_thresholds_and_sweeps_take_no_svd(monkeypatch):
    # The spectrum of T(1) is taken once, when the family is built.
    family = sk.noisy_schmidt_family(1.2)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: calls.append(a) or svd(a, **kw))
    for c in sk.Criterion:
        threshold_or_none(family, c)
    sk.sweep(family, np.linspace(0.0, 1.0, 11))
    assert calls == []
    sk.noisy_schmidt_family(1.2)
    assert len(calls) == 1


def random_endpoint(rng, rank):
    """G G†/Tr with G a 4 x rank complex Ginibre matrix; rank 1 is pure."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return sk.validate_state(rho / np.trace(rho).real)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_random_endpoint_family_scales_its_spectrum(seed, rank):
    endpoint = random_endpoint(np.random.default_rng(seed), rank)

    def state_at(v):
        return sk.validate_state(v * endpoint.matrix + (1.0 - v) * np.eye(4) / 4.0)

    family = sk.NoiseFamily("random", state_at, endpoint)
    # v·sigma(T(1)) is not the per-point SVD bit for bit off the diagonal
    v_grid = np.linspace(0.0, 1.0, 21)
    result = sk.sweep(family, v_grid)
    for k, v in enumerate(result.v):
        reference = sk.svd3(v * family.unit_block).sigma
        assert np.max(np.abs(result.sigma[k] - reference)) <= 1e-14
    for c in sk.Criterion:
        found = threshold_or_none(family, c)
        margin_at = lambda v: criteria_for_state(state_at(v))[3][c][2]
        assert (found is None) == (not detected(margin_at(1.0)))
        if found is not None:
            assert detected(margin_at(min(1.0, found * (1.0 + 1e-9))))
            assert not detected(margin_at(found * (1.0 - 1e-9)))
