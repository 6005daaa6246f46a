"""The verify bench's power: each plausible fault, patched in alone, fails
the bench lines that are meant to see it and no other."""

import numpy as np
import pytest

from steerkit import oracle, states, verify


def transposed_expansion(monkeypatch):
    # Alice and Bob swapped: T[mu, nu] read as T[nu, mu].
    expand = states.pauli_expansion
    monkeypatch.setattr(states, "pauli_expansion",
                        lambda state: states.CorrelationTensor(expand(state).full.T))


def conjugated_expansion(monkeypatch):
    # The expansion of rho*: every coefficient with one Y changes sign.
    expand = states.pauli_expansion
    monkeypatch.setattr(states, "pauli_expansion",
                        lambda state: expand(states.DensityMatrix4(state.matrix.conj())))


def transposed_overlap_block(monkeypatch):
    # (E_Q, E_NS) integrated against T transposed.
    overlap = oracle.model_state_overlap
    monkeypatch.setattr(oracle, "model_state_overlap", lambda tensor, model: overlap(
        states.CorrelationTensor(tensor.full.T), model))


def _patch_moments(monkeypatch, change):
    # Every moment table the builder returns passes through ``change``.
    build = oracle._columns

    def patched(*args, **kwargs):
        *columns, tables = build(*args, **kwargs)
        return (*columns, change(tables))

    monkeypatch.setattr(oracle, "_columns", patched)


def _patch_rows(monkeypatch, change):
    # The builder reads its (weights, hidden, kinds, vectors) rows through ``change``.
    build = oracle._columns

    def patched(weights, hidden, kinds, vectors, values, starts):
        return build(*change(weights, hidden, kinds, vectors), values, starts)

    monkeypatch.setattr(oracle, "_columns", patched)


def _kind_weight(monkeypatch, kind):
    # The rows of one kind weighted 1% high in every moment built.
    _patch_rows(monkeypatch, lambda w, h, k, v: (np.where(k == kind, 1.01 * w, w), h, k, v))


def clipped_moment(monkeypatch):
    _kind_weight(monkeypatch, oracle._CLIPPED)


def sign_moment(monkeypatch):
    _kind_weight(monkeypatch, oracle._SIGN)


def constant_moment(monkeypatch):
    # Constant rows given the moment 0.05 * 2pi along their hidden state: the builder
    # reads the vector 0.075 lambda (clipped moment 4pi 0.075 / 3 = 0.05 * 2pi), which
    # the correlation function ignores for a constant.
    _patch_rows(monkeypatch, lambda w, h, k, v: (
        w, h, k, np.where((k == oracle._CONSTANT)[:, None], 0.075 * h, v)))


def transposed_moment(monkeypatch):
    # Each model's C built as lambda a^T in place of a lambda^T.
    _patch_moments(monkeypatch, lambda t: t.reshape(-1, 4, 4).transpose(0, 2, 1).reshape(-1, 16))


def moment_factor(monkeypatch):
    # The 4 pi / 3 of the moment builder off by 1%.
    _patch_moments(monkeypatch, lambda t: 1.01 * t)


def ns_coefficient(monkeypatch):
    monkeypatch.setattr(oracle, "_NS_COEFF", oracle._NS_COEFF * 1.01)


def lhv_coefficient(monkeypatch):
    # The LHV bound's saturation is integrated, so a wrong coefficient shows.
    monkeypatch.setattr(oracle, "_LHV_COEFF", oracle._LHV_COEFF * 1.01)


CHSH, SATURATION, LHV, CLIPPED = (
    "chsh maximum, Born rule (5 states)", "ns bound saturation (5 states)",
    "lhv bound saturation (5 states)", "clipped moment quadrature (r = 0.5, 1.5)")

# Each fault with the lines, in print order, that must fail under it.
FAULTS = [
    (transposed_expansion, [CHSH]),
    (conjugated_expansion, [CHSH]),
    (transposed_overlap_block, [SATURATION]),
    (transposed_moment, [SATURATION]),
    # The clipped moment line reads the builder's C_zz / (4pi/3) as well.
    (moment_factor, [SATURATION, CLIPPED]),
    (ns_coefficient, [SATURATION]),
    (lhv_coefficient, [LHV]),
    (clipped_moment, [CLIPPED]),
    (sign_moment, [SATURATION]),
]


@pytest.mark.parametrize("fault, lines", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS])
def test_fault_fails_its_line(monkeypatch, fault, lines):
    fault(monkeypatch)
    failed = [check.name for check in verify.run_checks("fast", 42) if not check.passed]
    assert failed == lines


MONTE_CARLO = "ns overlap Monte Carlo (1e6 samples)"

# Faults whose lines differ at the full level, with the lines that must fail there.
FULL_FAULTS = [
    # Only the full level's Monte Carlo line samples E_NS itself.
    (constant_moment, [MONTE_CARLO]),
    # The Monte Carlo line's exact side is an overlap too.
    (transposed_overlap_block, ["ns bound saturation (20 states)", MONTE_CARLO]),
]


@pytest.mark.parametrize("fault, lines", FULL_FAULTS,
                         ids=[fault.__name__ for fault, _ in FULL_FAULTS])
def test_fault_fails_its_full_lines(monkeypatch, fault, lines):
    fault(monkeypatch)
    failed = [check.name for check in verify.run_checks("full", 42) if not check.passed]
    assert failed == lines
