"""The verify bench's power: each plausible fault, patched in alone, fails
the bench lines that are meant to see it and no other."""

import numpy as np
import pytest

from steerkit import criteria, oracle, states, verify


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


def _kind_weight(monkeypatch, kind, factor=1.01):
    # The rows of one kind weighted ``factor`` high in every moment built.
    _patch_rows(monkeypatch, lambda w, h, k, v: (np.where(k == kind, factor * w, w), h, k, v))


def clipped_moment(monkeypatch):
    _kind_weight(monkeypatch, oracle._CLIPPED)


def clipped_moment_large(monkeypatch):
    # A clipped moment 50% high lifts a one-component r = 2 model past 2pi.
    _kind_weight(monkeypatch, oracle._CLIPPED, 1.5)


def sign_moment(monkeypatch):
    _kind_weight(monkeypatch, oracle._SIGN)


def first_row_weight(monkeypatch):
    # Each model's first row weighted 1% high, the rows after it as drawn.
    build = oracle._columns

    def patched(weights, hidden, kinds, vectors, values, starts):
        weights = weights.copy()
        weights[starts] *= 1.01
        return build(weights, hidden, kinds, vectors, values, starts)

    monkeypatch.setattr(oracle, "_columns", patched)


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


def _factor(monkeypatch, criterion):
    # One factor of the criteria ladder 1% high, as the bounds read it.
    monkeypatch.setitem(criteria._GEOMETRIC, criterion, 1.01 * criteria._GEOMETRIC[criterion])


def steering_factor(monkeypatch):
    _factor(monkeypatch, criteria.Criterion.GEOMETRIC_STEERING)


def bell_factor(monkeypatch):
    # The LHV bound's saturation is integrated, so a wrong factor shows.
    _factor(monkeypatch, criteria.Criterion.GEOMETRIC_BELL)


CHSH, INEQUALITY, SATURATION, LHV, CLIPPED = (
    "chsh maximum, Born rule (5 states)", "ns inequality (1000 models)",
    "ns bound saturation (5 states)", "lhv bound saturation (5 states)",
    "clipped moment quadrature (r = 0.5, 1.5)")

# Each fault with the lines, in print order, that must fail under it.
FAULTS = [
    (transposed_expansion, [CHSH]),
    (conjugated_expansion, [CHSH]),
    (transposed_overlap_block, [SATURATION]),
    # A transposed C keeps its trace norm.
    (transposed_moment, [SATURATION]),
    # The clipped moment line reads the builder's C_zz / (4pi/3) as well.
    (moment_factor, [INEQUALITY, SATURATION, CLIPPED]),
    (steering_factor, [INEQUALITY, SATURATION]),
    (bell_factor, [LHV]),
    (clipped_moment, [CLIPPED]),
    (clipped_moment_large, [INEQUALITY, CLIPPED]),
    # A one-component sign model sits on the bound, so 1% lifts it past.
    (sign_moment, [INEQUALITY, SATURATION]),
    (first_row_weight, [INEQUALITY, SATURATION, CLIPPED]),
]


@pytest.mark.parametrize("fault, lines", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS])
def test_fault_fails_its_line(monkeypatch, fault, lines):
    fault(monkeypatch)
    failed = [check.name for check in verify.run_checks("fast", 42) if not check.passed]
    assert failed == lines


MONTE_CARLO = "ns overlap Monte Carlo (1e6 samples)"
FULL_INEQUALITY, FULL_SATURATION = (
    "ns inequality (10000 models)", "ns bound saturation (20 states)")

# Faults checked at the full level too, with the lines that must fail there.
FULL_FAULTS = [
    # Only the full level's Monte Carlo line samples E_NS itself.
    (constant_moment, [MONTE_CARLO]),
    # The Monte Carlo line's exact side is an overlap too.
    (transposed_overlap_block, [FULL_SATURATION, MONTE_CARLO]),
    (clipped_moment_large, [FULL_INEQUALITY, CLIPPED]),
    (first_row_weight, [FULL_INEQUALITY, FULL_SATURATION, CLIPPED]),
]


@pytest.mark.parametrize("fault, lines", FULL_FAULTS,
                         ids=[fault.__name__ for fault, _ in FULL_FAULTS])
def test_fault_fails_its_full_lines(monkeypatch, fault, lines):
    fault(monkeypatch)
    failed = [check.name for check in verify.run_checks("full", 42) if not check.passed]
    assert failed == lines
