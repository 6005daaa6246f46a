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
    (ns_coefficient, "ns bound saturation (5 states)"),
    (lhv_coefficient, "lhv bound saturation (5 states)"),
]


@pytest.mark.parametrize("fault, line", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS])
def test_fault_fails_its_line(monkeypatch, fault, line):
    fault(monkeypatch)
    failed = [check.name for check in verify.run_checks("fast", 42) if not check.passed]
    assert failed == [line]
