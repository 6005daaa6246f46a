"""Pins the benchmark's independent references to known values.

Run with ``python3 -m pytest perfbench``. The repository's own test
command collects only ``tests/``, so these add nothing to its time.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402


def werner_state(v: float) -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return v * np.outer(psi, psi) + (1.0 - v) * np.eye(4) / 4.0


def margins_of(rho) -> dict:
    block = ref.pauli_table(rho)[1:, 1:]
    return ref.criterion_margins(ref.singular_values(block), float(np.sum(block * block)))


@pytest.mark.parametrize("criterion, threshold", [
    ("entanglement", 1.0 / 3.0), ("steering", 0.5), ("bell", 0.75),
    ("chsh", 1.0 / math.sqrt(2.0)),
])
def test_werner_thresholds(criterion, threshold):
    assert ref.noisy_schmidt_threshold(math.pi / 2.0, criterion) == pytest.approx(
        threshold, abs=1e-15)
    assert not ref.detected(margins_of(werner_state(threshold - 1e-6))[criterion])
    assert ref.detected(margins_of(werner_state(threshold + 1e-6))[criterion])


def test_no_detection_exactly_when_threshold_exceeds_one():
    alpha = 0.3  # sin^2 = 0.087: steering needs 1.5 < 1 + 2 sin^2, Bell 2.25
    assert ref.noisy_schmidt_threshold(alpha, "steering") is None
    assert ref.noisy_schmidt_threshold(alpha, "bell") is None
    assert ref.noisy_schmidt_threshold(alpha, "entanglement") < 1.0
    assert ref.noisy_schmidt_threshold(alpha, "chsh") < 1.0
    psi = np.array([0.0, math.sin(alpha / 2.0), -math.cos(alpha / 2.0), 0.0])
    margins = margins_of(np.outer(psi, psi))  # v = 1, the end of the interval
    assert not ref.detected(margins["steering"]) and not ref.detected(margins["bell"])
    assert ref.detected(margins["entanglement"]) and ref.detected(margins["chsh"])


def test_werner_pauli_table():
    table = ref.pauli_table(werner_state(0.6))
    assert np.allclose(table, np.diag([1.0, -0.6, -0.6, -0.6]), atol=1e-15)


def test_product_state_table_is_outer_product_of_bloch_vectors():
    a, b = np.array([0.3, -0.2, 0.5]), np.array([0.0, 0.7, -0.1])

    def qubit(r):
        return 0.5 * (ref.PAULIS[0] + sum(r[k] * ref.PAULIS[k + 1] for k in range(3)))

    table = ref.pauli_table(np.kron(qubit(a), qubit(b)))
    assert np.allclose(table, np.outer([1.0, *a], [1.0, *b]), atol=1e-15)


def test_singular_values_are_roots_of_gram_eigenvalues():
    m = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 3))
    expected = np.sqrt(np.sort(np.linalg.eigvalsh(m.T @ m))[::-1])
    assert np.allclose(ref.singular_values(m), expected, atol=1e-14)


@pytest.mark.parametrize("v, expected", [(0.2, 0.1), (0.6, -0.2), (1.0, -0.5)])
def test_partial_transpose_of_werner(v, expected):
    assert ref.partial_transpose_min_eig(werner_state(v)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("kind, r", [("sign", 1.0), ("clipped", 0.5), ("clipped", 1.0),
                                     ("clipped", 2.0), ("constant", 1.0)])
def test_response_gain_matches_quadrature(kind, r):
    # 2 pi * integral over u = cos(theta) of I(u) u, by a fine midpoint rule.
    n = 400_000
    u = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    response = {"sign": np.sign(u), "clipped": np.clip(r * u, -1.0, 1.0),
                "constant": np.ones_like(u)}[kind]
    numeric = 2.0 * math.pi * float(np.sum(response * u)) * (2.0 / n)
    assert ref.response_gain(kind, np.array([0.0, 0.0, r])) == pytest.approx(
        numeric, abs=1e-9)


def random_table(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    table = ref.pauli_table(rho / np.trace(rho).real)
    table[0, 0] = 1.0
    return table


def test_sign_model_on_top_singular_pair_reaches_the_bound():
    block = random_table(np.random.default_rng(1))[1:, 1:]
    u, s, vt = np.linalg.svd(block)
    overlap = ref.model_overlap(block, [(1.0, vt[0], "sign", u[:, 0])])
    assert overlap == pytest.approx(ref.ns_bound(s[0]), rel=1e-14)
    assert ref.ns_bound(s[0]) == pytest.approx(8.0 * math.pi ** 2 / 3.0 * s[0], rel=1e-15)


def test_program_saturating_model_reaches_the_bound():
    import steerkit
    from workloads import model_components

    table = random_table(np.random.default_rng(2))
    tensor = steerkit.CorrelationTensor(table)
    model = steerkit.saturating_model(steerkit.svd3(tensor.block))
    bound = ref.ns_bound(ref.singular_values(table[1:, 1:])[0])
    assert ref.model_overlap(table[1:, 1:], model_components(model)) == pytest.approx(
        bound, rel=1e-12)
    assert steerkit.model_state_overlap(tensor, model) == pytest.approx(bound, rel=1e-9)


def test_closed_form_overlap_agrees_with_quadrature_on_random_models():
    import steerkit
    from workloads import model_components

    rng = np.random.default_rng(3)
    for _ in range(100):
        table = random_table(rng)
        model = steerkit.random_model(rng)
        bound = ref.ns_bound(ref.singular_values(table[1:, 1:])[0])
        program = steerkit.model_state_overlap(steerkit.CorrelationTensor(table), model)
        closed = ref.model_overlap(table[1:, 1:], model_components(model))
        assert abs(program - closed) <= 1e-12 * bound
        assert closed <= bound * (1.0 + 1e-12)
