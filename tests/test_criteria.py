import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerkit as sk
from helpers import criteria_for_state, haar_unitary2, locally_rotated
from steerkit.criteria import boundary, detected


def rows_for(state):
    """The ladder rows (lhs, bound, margin) of a state, by criterion name."""
    return {c.value: row for c, row in criteria_for_state(state)[3].items()}


def test_steering_werner_06_detected():
    lhs, bound, margin = rows_for(sk.werner(0.6))["steering"]
    assert lhs == pytest.approx(0.6, abs=1e-12)
    assert bound == pytest.approx(0.72, abs=1e-12)
    assert margin == pytest.approx(0.12, abs=1e-12)
    assert detected(margin) and not boundary(margin)


def test_steering_werner_04_inconclusive():
    lhs, bound, margin = rows_for(sk.werner(0.4))["steering"]
    assert lhs == pytest.approx(0.4, abs=1e-12)
    assert bound == pytest.approx(0.32, abs=1e-12)
    assert not detected(margin)


def test_maximally_mixed_all_boundary():
    mixed = sk.validate_state(np.eye(4) / 4.0)
    rows = rows_for(mixed)
    for name in ("entanglement", "steering", "bell"):
        assert boundary(rows[name][2])
        assert not detected(rows[name][2])
    assert not detected(rows["chsh"][2])
    assert not boundary(rows["chsh"][2])


def test_bell_werner_08_detected():
    lhs, bound, margin = rows_for(sk.werner(0.8))["bell"]
    assert lhs == pytest.approx(0.8, abs=1e-12)
    assert bound == pytest.approx((4.0 / 9.0) * 1.92, abs=1e-12)
    assert detected(margin)


def test_bell_werner_07_inconclusive():
    _, bound, margin = rows_for(sk.werner(0.7))["bell"]
    assert bound == pytest.approx(0.65333333333, abs=1e-9)
    assert not detected(margin)


def test_entanglement_werner_04_detected():
    _, bound, margin = rows_for(sk.werner(0.4))["entanglement"]
    assert bound == pytest.approx(0.48, abs=1e-12)
    assert detected(margin)


def test_entanglement_werner_third_boundary():
    margin = rows_for(sk.werner(1.0 / 3.0))["entanglement"][2]
    assert boundary(margin)
    assert not detected(margin)


def test_product_state_boundary():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    lhs, bound, margin = rows_for(sk.validate_state(rho))["entanglement"]
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert bound == pytest.approx(1.0, abs=1e-12)
    assert boundary(margin)
    assert not detected(margin)


def test_chsh_werner():
    assert detected(rows_for(sk.werner(0.8))["chsh"][2])
    lhs, _, margin = rows_for(sk.werner(0.7))["chsh"]
    assert lhs == pytest.approx(0.98, abs=1e-12)
    assert not detected(margin)
    assert detected(rows_for(sk.werner(1.0))["chsh"][2])


def test_margin_signs():
    rows = rows_for(sk.werner(0.9))
    lhs, bound, margin = rows["steering"]
    assert margin == bound - lhs
    lhs, bound, margin = rows["chsh"]
    assert margin == lhs - bound
    assert margin == pytest.approx(2 * 0.81 - 1.0, abs=1e-12)


def test_tensor_norm_sq_closed_forms():
    assert sk.tensor_norm_sq(sk.pauli_expansion(sk.werner(0.6))) == pytest.approx(
        3 * 0.36, abs=1e-12
    )
    mixed = sk.validate_state(np.eye(4) / 4.0)
    assert sk.tensor_norm_sq(sk.pauli_expansion(mixed)) == pytest.approx(
        0.0, abs=1e-14
    )
    alpha, v = 0.9, 0.55
    tensor = sk.pauli_expansion(sk.noisy_schmidt(alpha, v))
    assert sk.tensor_norm_sq(tensor) == pytest.approx(
        v**2 * (1 + 2 * np.sin(alpha) ** 2), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_norm_bounded_for_valid_states(seed):
    rng = np.random.default_rng(seed)
    tensor = sk.pauli_expansion(sk.random_density_matrix(rng))
    norm_sq = sk.tensor_norm_sq(tensor)
    assert 0.0 <= norm_sq <= 3.0 + 1e-10
    assert norm_sq == pytest.approx(float(np.sum(tensor.block**2)), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ladder_ordering(seed):
    rng = np.random.default_rng(seed)
    rows = rows_for(sk.random_density_matrix(rng))
    if detected(rows["bell"][2]):
        assert detected(rows["steering"][2])
    if detected(rows["steering"][2]):
        assert detected(rows["entanglement"][2])


def partial_transpose_min_eig(rho):
    """Smallest eigenvalue of rho with Bob's qubit transposed. For two
    qubits a negative one is necessary and sufficient for entanglement
    (Peres-Horodecki)."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return np.linalg.eigvalsh(pt)[0]


unit_interval = st.floats(0.0, 1.0)
any_state = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: sk.random_density_matrix(np.random.default_rng(seed))),
    unit_interval.map(sk.werner),
    st.tuples(st.floats(0.0, np.pi), unit_interval).map(
        lambda args: sk.noisy_schmidt(*args)),
)


@settings(max_examples=200, deadline=None)
@given(any_state)
def test_detection_implies_negative_partial_transpose(state):
    rows = rows_for(state)
    if detected(rows["entanglement"][2]) or detected(rows["steering"][2]):
        assert partial_transpose_min_eig(state.matrix) < 0.0


def test_local_rotation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = sk.random_density_matrix(rng)
        rotated = locally_rotated(state, haar_unitary2(rng), haar_unitary2(rng))
        originals = rows_for(state)
        transformed = rows_for(rotated)
        for name, (lhs, bound, margin) in originals.items():
            lhs_r, bound_r, margin_r = transformed[name]
            assert detected(margin) == detected(margin_r)
            assert boundary(margin) == boundary(margin_r)
            assert lhs == pytest.approx(lhs_r, abs=1e-10)
            assert bound == pytest.approx(bound_r, abs=1e-10)


def test_detection_interval_along_werner():
    flags = [
        detected(rows_for(sk.werner(v))["steering"][2])
        for v in np.linspace(0, 1, 21)
    ]
    first = flags.index(True)
    assert all(flags[first:])
    assert not any(flags[:first])


# --- critical noise ----------------------------------------------------------


WERNER_THRESHOLDS = {
    sk.Criterion.GEOMETRIC_ENTANGLEMENT: 1.0 / 3.0,
    sk.Criterion.GEOMETRIC_STEERING: 0.5,
    sk.Criterion.CHSH_HORODECKI: 1.0 / np.sqrt(2.0),
    sk.Criterion.GEOMETRIC_BELL: 0.75,
}


@pytest.mark.parametrize("criterion,expected", sorted(
    WERNER_THRESHOLDS.items(), key=lambda kv: kv[1]
), ids=lambda x: str(getattr(x, "value", x)))
def test_werner_thresholds(criterion, expected):
    found = sk.critical_noise(sk.werner_family(), criterion)
    assert found == pytest.approx(expected, abs=1e-8)


def test_noisy_schmidt_right_angle_matches_werner():
    found = sk.critical_noise(
        sk.noisy_schmidt_family(np.pi / 2), sk.Criterion.GEOMETRIC_STEERING
    )
    assert found == pytest.approx(0.5, abs=1e-8)


def test_noisy_schmidt_shallow_angle_never_detects():
    with pytest.raises(sk.NoDetection):
        sk.critical_noise(
            sk.noisy_schmidt_family(np.pi / 8), sk.Criterion.GEOMETRIC_STEERING
        )
