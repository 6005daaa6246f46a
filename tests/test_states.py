import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import steerkit as sk
from helpers import PAULI, SINGLET_PROJECTOR, bob_branch, brute_pauli_table, pauli_sum

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_maximally_mixed_is_valid():
    sk.validate_state(np.eye(4) / 4.0)


def test_singlet_projector_is_valid():
    sk.validate_state(SINGLET_PROJECTOR)


def test_negative_eigenvalue_rejected():
    # trace of diag(2, -1, 0, 0) is exactly 1, so positivity is the only
    # violated invariant
    with pytest.raises(sk.StateValidationError) as exc:
        sk.validate_state(np.diag([2.0, -1.0, 0.0, 0.0]))
    assert [v.invariant for v in exc.value.violations] == ["NotPositive"]
    assert exc.value.violations[0].magnitude == pytest.approx(-1.0)


def test_all_violations_reported_together():
    with pytest.raises(sk.StateValidationError) as exc:
        sk.validate_state(np.diag([2.0, -1.0, 0.0, 0.5]))
    names = [v.invariant for v in exc.value.violations]
    assert names == ["TraceNotOne", "NotPositive"]
    assert "NotPositive" in str(exc.value)


def test_non_hermitian_rejected():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.5
    with pytest.raises(sk.StateValidationError) as exc:
        sk.validate_state(m)
    assert [v.invariant for v in exc.value.violations] == ["NotHermitian"]


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        sk.validate_state(np.eye(3) / 3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entry_rejected(bad):
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = bad
    with pytest.raises(sk.StateValidationError) as exc:
        sk.validate_state(m)
    assert [v.invariant for v in exc.value.violations] == ["NonFinite"]


@pytest.mark.parametrize("upper, lower, diagonal", [
    pytest.param(9e307, 9e307, 0.25, id="9e+307-0.25"),
    pytest.param(0.0, 0.0, 1e308, id="0.0-1e+308"),
    pytest.param(1e308, -1e308, 0.25, id="1e+308--1e+308-0.25"),
])
def test_overflowing_entries_rejected(upper, lower, diagonal):
    # m + m^H or m - m^H overflows to inf on these matrices; both are taken
    # from the halved 0.5 m, so LAPACK sees finite entries, numpy warns of no
    # overflow, and the state is refused by its invariants, never by a
    # LinAlgError.
    m = np.eye(4, dtype=complex) * diagonal
    m[0, 1], m[1, 0] = upper, lower
    with pytest.raises(sk.StateValidationError):
        sk.validate_state(m)


def test_trace_defect_is_numpys_trace():
    # The defect is summed by hand from the halved diagonal; it must equal
    # abs(trace - 1) as numpy sums the trace, bit for bit, on states off unit
    # trace and on generic matrices, so a numpy that sums in another order
    # shows here.
    rng = np.random.default_rng(31)
    for k in range(600):
        if k % 2:
            m = sk.random_density_matrix(rng).matrix * (1.0 + rng.uniform(-0.5, 0.5))
        else:
            m = 10.0 ** rng.uniform(-3, 3) * (rng.normal(size=(4, 4))
                                             + 1j * rng.normal(size=(4, 4)))
        with pytest.raises(sk.StateValidationError) as exc:
            sk.validate_state(m)
        defects = [v.magnitude for v in exc.value.violations if v.invariant == "TraceNotOne"]
        assert defects == [abs(complex(m.trace()) - 1.0)]


def overflowing_trace_matrix() -> np.ndarray:
    # Every entry is finite, but |trace - 1| is about 2.4e308.
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.7e308 + 1.7e308j
    return m


def test_overflowing_trace_defect_reads_inf():
    # abs() of a Python complex raises OverflowError once the modulus
    # overflows; the defect reads as inf instead.
    with pytest.raises(sk.StateValidationError) as exc:
        sk.validate_state(overflowing_trace_matrix())
    assert ("TraceNotOne", np.inf) in exc.value.violations


@settings(max_examples=300, deadline=None)
@given(arrays(complex, (4, 4), elements=st.complex_numbers()))
@example(overflowing_trace_matrix())
@example(np.full((4, 4), 9e307 + 0j))
@example(np.eye(4, dtype=complex) * 1e308)
@example(np.eye(4, dtype=complex) / 4.0)
def test_validate_state_accepts_or_refuses_any_4x4(m):
    try:
        state = sk.validate_state(m)
    except sk.StateValidationError:
        return
    assert isinstance(state, sk.DensityMatrix4)


def test_validation_error_is_value_error():
    with pytest.raises(ValueError):
        sk.validate_state(np.diag([2.0, -1.0, 0.0, 0.0]))


# --- Pauli expansion ---------------------------------------------------------


def test_expansion_maximally_mixed():
    tensor = sk.pauli_expansion(sk.validate_state(np.eye(4) / 4.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(tensor.full, expected, atol=1e-14)


def test_expansion_werner_block():
    tensor = sk.pauli_expansion(sk.werner(0.37))
    np.testing.assert_allclose(tensor.block, np.diag([-0.37] * 3), atol=1e-14)
    np.testing.assert_allclose(tensor.full[1:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(tensor.full[0, 1:], 0.0, atol=1e-14)


def test_expansion_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    tensor = sk.pauli_expansion(sk.validate_state(rho))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 0] = expected[0, 3] = expected[3, 3] = 1.0
    np.testing.assert_allclose(tensor.full, expected, atol=1e-14)


def test_expansion_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = sk.random_density_matrix(rng)
        np.testing.assert_allclose(
            sk.pauli_expansion(state).full,
            brute_pauli_table(state.matrix),
            atol=1e-13,
        )


def test_pauli_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        state = sk.random_density_matrix(rng)
        rebuilt = pauli_sum(sk.pauli_expansion(state).full)
        assert np.max(np.abs(rebuilt - state.matrix)) <= 1e-12


def test_non_real_component_guard():
    # The expansion trusts validation, so an unvalidated stand-in is refused.
    class Raw:
        matrix = np.eye(4, dtype=complex) / 4.0 + 0.5j * np.diag([1, -1, 1, -1])

    with pytest.raises(TypeError):
        sk.pauli_expansion(Raw())


BELL_STATES = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
) / np.sqrt(2.0)


@pytest.mark.parametrize("negatives", [1, 2, 3])
def test_every_accepted_bell_diagonal_state_expands(negatives):
    # Eigenvalues at the positivity floor push a diagonal T entry past 1 by
    # a few 1e-9. No local rotation: it would spread T and hide the case.
    floor = -0.999999e-9
    spectrum = (1.0 - negatives * floor, *[floor] * negatives,
                *[0.0] * (3 - negatives))
    worst = 0.0
    for lam in set(itertools.permutations(spectrum)):
        rho = sum(p * np.outer(b, b) for p, b in zip(lam, BELL_STATES))
        tensor = sk.pauli_expansion(sk.validate_state(rho))
        worst = max(worst, float(np.abs(tensor.full).max()))
    assert 1.0 + 1e-9 < worst <= 1.0 + 1e-8


def test_tensor_requires_exact_unit_corner():
    full = np.zeros((4, 4))
    full[0, 0] = 1.0 + 1e-9
    with pytest.raises(ValueError):
        sk.CorrelationTensor(full)


def test_tensor_rejects_nan_entry():
    full = np.eye(4)
    full[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sk.CorrelationTensor(full)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_entries_bounded(seed):
    rng = np.random.default_rng(seed)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    assert tensor.full[0, 0] == 1.0
    assert np.max(np.abs(tensor.full)) <= 1.0 + 1e-10


# --- correlation function ----------------------------------------------------


def test_correlation_werner_zz():
    tensor = sk.pauli_expansion(sk.werner(0.8))
    assert sk.correlation_fn(tensor)(Z, Z) == pytest.approx(-0.8, abs=1e-12)


def test_correlation_singlet_xx():
    tensor = sk.pauli_expansion(sk.werner(1.0))
    assert sk.correlation_fn(tensor)(X, X) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_maximally_mixed_vanishes():
    tensor = sk.pauli_expansion(sk.validate_state(np.eye(4) / 4.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, n = sk.uniform_sphere(2, rng)
        assert sk.correlation_fn(tensor)(m, n) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correlation_bounded_for_valid_states(seed):
    rng = np.random.default_rng(seed)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    m, n = sk.uniform_sphere(2, rng)
    assert abs(sk.correlation_fn(tensor)(m, n)) <= 1.0 + 1e-10


# --- joint probabilities -----------------------------------------------------


def test_singlet_perfect_anticorrelation():
    singlet = sk.werner(1.0)
    assert sk.joint_probability(singlet, Z, Z, 1, 1) == pytest.approx(0.0, abs=1e-14)
    assert sk.joint_probability(singlet, Z, Z, 1, -1) == pytest.approx(0.5, abs=1e-14)


def test_maximally_mixed_uniform_outcomes():
    mixed = sk.validate_state(np.eye(4) / 4.0)
    for r1 in (1, -1):
        for r2 in (1, -1):
            assert sk.joint_probability(mixed, Z, X, r1, r2) == pytest.approx(
                0.25, abs=1e-14
            )


def test_joint_probability_rejects_bad_outcome():
    with pytest.raises(ValueError):
        sk.joint_probability(sk.werner(0.5), Z, Z, 0, 1)


def test_joint_probability_rejects_non_unit_setting():
    with pytest.raises(ValueError):
        sk.joint_probability(sk.werner(0.5), [0.0, 0.0, 2.0], Z, 1, 1)


def test_joint_probability_matches_kron_reference():
    # Reference: the Born rule with the projectors' product built by np.kron.
    rng = np.random.default_rng(25)
    for _ in range(200):
        state = sk.random_density_matrix(rng)
        a, b = sk.uniform_sphere(2, rng)
        for r1, r2 in itertools.product((1, -1), repeat=2):
            pa = 0.5 * (PAULI[0] + r1 * (a[0] * PAULI[1] + a[1] * PAULI[2] + a[2] * PAULI[3]))
            pb = 0.5 * (PAULI[0] + r2 * (b[0] * PAULI[1] + b[1] * PAULI[2] + b[2] * PAULI[3]))
            expected = np.trace(state.matrix @ np.kron(pa, pb)).real
            assert sk.joint_probability(state, a, b, r1, r2) == expected


def test_probability_completeness_and_correlation():
    rng = np.random.default_rng(21)
    for _ in range(50):
        state = sk.random_density_matrix(rng)
        a, b = sk.uniform_sphere(2, rng)
        probs = {
            (r1, r2): sk.joint_probability(state, a, b, r1, r2)
            for r1 in (1, -1)
            for r2 in (1, -1)
        }
        assert all(p >= -1e-14 for p in probs.values())
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        correlation = sum(r1 * r2 * p for (r1, r2), p in probs.items())
        tensor = sk.pauli_expansion(state)
        assert correlation == pytest.approx(
            sk.correlation_fn(tensor)(a, b), abs=1e-12
        )


# --- conditional states ------------------------------------------------------


def test_singlet_conditional_state():
    probability, weighted = bob_branch(sk.werner(1.0), Z, 1)
    assert probability == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(weighted / probability, [0.0, 0.0, -1.0], atol=1e-13)


def test_maximally_mixed_not_steered():
    mixed = sk.validate_state(np.eye(4) / 4.0)
    probability, weighted = bob_branch(mixed, X, -1)
    assert probability == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(weighted, [0.0, 0.0, 0.0], atol=1e-14)


def test_zero_probability_branch():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    probability, weighted = bob_branch(sk.validate_state(rho), Z, -1)
    assert probability < 1e-14
    np.testing.assert_allclose(weighted, 0.0, atol=1e-14)


def test_non_signaling():
    rng = np.random.default_rng(31)
    for _ in range(50):
        state = sk.random_density_matrix(rng)
        x = sk.uniform_sphere(1, rng)[0]
        p_plus, plus = bob_branch(state, x, 1)
        p_minus, minus = bob_branch(state, x, -1)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
        marginal = sk.pauli_expansion(state).full[0, 1:]
        assert np.max(np.abs(plus + minus - marginal)) <= 1e-12


# --- vector checks -----------------------------------------------------------


def test_unit_vector_tolerance():
    v = np.array([1.0, 0.0, 1e-13])
    sk.states.unit_vector(v)
    with pytest.raises(ValueError):
        sk.states.unit_vector([1.0, 0.0, 1e-5])


def test_unit_vector_rejects_non_finite():
    for bad in ([np.nan, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            sk.states.unit_vector(bad)


def test_matrices_are_read_only():
    state = sk.werner(0.5)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 2.0
    tensor = sk.pauli_expansion(state)
    with pytest.raises(ValueError):
        tensor.full[0, 0] = 2.0
