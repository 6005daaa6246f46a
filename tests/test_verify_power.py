"""The verify bench's power: each plausible fault, patched in alone, fails
the bench line that is meant to see it and no other."""

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
    overlaps = oracle.model_state_overlaps
    monkeypatch.setattr(oracle, "model_state_overlaps", lambda tensor, models: overlaps(
        states.CorrelationTensor(tensor.full.T), models))


def _patch_moments(monkeypatch, change):
    # Every moment table the builder returns passes through ``change``.
    build = oracle._columns

    def patched(*args, **kwargs):
        *columns, tables = build(*args, **kwargs)
        return (*columns, change(tables))

    monkeypatch.setattr(oracle, "_columns", patched)


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


# Each fault with the one line that must fail under it.
FAULTS = [
    (transposed_expansion, "chsh maximum, Born rule (5 states)"),
    (conjugated_expansion, "chsh maximum, Born rule (5 states)"),
    (transposed_overlap_block, "ns bound saturation (5 states)"),
    (transposed_moment, "ns bound saturation (5 states)"),
    (moment_factor, "ns bound saturation (5 states)"),
    (ns_coefficient, "ns bound saturation (5 states)"),
    (lhv_coefficient, "lhv bound saturation (5 states)"),
]


@pytest.mark.parametrize("fault, line", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS])
def test_fault_fails_its_line(monkeypatch, fault, line):
    fault(monkeypatch)
    failed = [check.name for check in verify.run_checks("fast", 42) if not check.passed]
    assert failed == [line]
