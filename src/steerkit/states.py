"""Two-qubit density matrices and their Pauli expansion.

States live in the product basis |00>, |01>, |10>, |11> (first factor is
Alice's qubit). The Pauli expansion of a state is the real 4x4 coefficient
table T[mu, nu] = Tr[rho (sigma_mu x sigma_nu)] with sigma_0 the identity;
its 3x3 lower-right block is the correlation tensor that drives every
criterion in this package.

The expansion is one product with the (16, 16) matrix PAULI_PRODUCTS,
whose row 4·mu + nu is sigma_mu x sigma_nu flattened: the traces are
PAULI_PRODUCTS @ rho.T.ravel().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
UNIT_NORM_TOL = 1e-12

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

PAULI_PRODUCTS = np.array([np.kron(a, b).ravel() for a in PAULI for b in PAULI])
PAULI_PRODUCTS.setflags(write=False)


class Violation(NamedTuple):
    invariant: str
    magnitude: float


class StateValidationError(ValueError):
    """A 4x4 matrix failed one or more density-matrix invariants.

    ``violations`` lists every failed invariant, in the order checked, with
    the magnitude of the defect.
    """

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = tuple(violations)
        detail = "; ".join(
            f"{v.invariant} (defect {v.magnitude:.3e})" for v in self.violations
        )
        super().__init__(f"not a valid two-qubit state: {detail}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """Validated two-qubit density matrix.

    Construction checks that every entry is finite (a NonFinite
    violation whose magnitude counts the offending entries), then
    hermiticity, unit trace and positive semidefiniteness (the smallest
    eigenvalue may dip to -1e-9 so that slightly rounded tomographic
    inputs are not rejected). The stored array is read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        # NaN compares false against every tolerance below, so check first.
        non_finite = m.size - np.count_nonzero(np.isfinite(m))
        if non_finite:
            raise StateValidationError((Violation("NonFinite", non_finite),))
        violations = []
        # Halved, as m + m^H and m - m^H overflow past ~9e307. The trace is summed
        # in Python floats, where an overflow is a quiet inf, as (d0 + d1) + (d2 + d3):
        # the order of numpy's current complex reduce, so the defect keeps the bytes
        # of abs(trace - 1) only while numpy keeps that order (a test pins it). abs()
        # of a complex raises once the modulus overflows; that defect reads as inf.
        h = 0.5 * m
        herm_defect = 2.0 * float(np.abs(h - h.conj().T).max())
        if herm_defect > HERMITICITY_TOL:
            violations.append(Violation("NotHermitian", herm_defect))
        d = h.diagonal().tolist()
        try:
            trace_defect = 2.0 * abs((d[0] + d[1]) + (d[2] + d[3]) - 0.5)
        except OverflowError:
            trace_defect = math.inf
        if trace_defect > TRACE_TOL:
            violations.append(Violation("TraceNotOne", trace_defect))
        min_eig = float(np.linalg.eigvalsh(h + h.conj().T)[0])
        if min_eig < -PSD_TOL:
            violations.append(Violation("NotPositive", min_eig))
        if violations:
            raise StateValidationError(tuple(violations))
        object.__setattr__(self, "matrix", _readonly(m))


def validate_state(entries) -> DensityMatrix4:
    """Validate a 4x4 complex array as a two-qubit density matrix.

    Raises StateValidationError, whose ``violations`` name every violated
    invariant (NonFinite alone, otherwise any of NotHermitian, TraceNotOne
    and NotPositive) with its magnitude.
    """
    return DensityMatrix4(entries)


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Pauli expansion coefficients T[mu, nu] of a two-qubit state.

    ``full`` is the 4x4 table with full[0, 0] == 1, Alice's marginal in
    the column full[1:, 0] and Bob's in the row full[0, 1:]; ``block`` is
    the 3x3 correlation tensor T_ij.
    """

    full: np.ndarray

    def __post_init__(self):
        f = np.array(self.full, dtype=float)
        if f.shape != (4, 4):
            raise ValueError(f"expected a 4x4 table, got shape {f.shape}")
        if not np.isfinite(f).all():
            raise ValueError("table entries must be finite")
        if f[0, 0] != 1.0:
            raise ValueError(f"T[0,0] must be exactly 1, got {f[0, 0]!r}")
        overshoot = float(np.abs(f).max()) - 1.0
        # A valid state has |T_mu,nu| <= ||rho||_1 <= 1 + TRACE_TOL + 6 PSD_TOL.
        if overshoot > 1e-8:
            raise ValueError(f"component magnitude exceeds 1 by {overshoot:.3e}")
        object.__setattr__(self, "full", _readonly(f))

    @property
    def block(self) -> np.ndarray:
        return self.full[1:, 1:]


def pauli_expansion(state: DensityMatrix4) -> CorrelationTensor:
    """Expand a validated state over the 16 Pauli products.

    Validation makes the traces real to within 2e-10 and pins T[0,0] to 1
    within TRACE_TOL, so the real parts are taken and the corner is set to
    exactly 1. Anything but a DensityMatrix4 raises TypeError.
    """
    if not isinstance(state, DensityMatrix4):
        raise TypeError(f"expected a DensityMatrix4, got {type(state).__name__}")
    full = (PAULI_PRODUCTS @ state.matrix.T.ravel()).real.reshape(4, 4)
    full[0, 0] = 1.0
    return CorrelationTensor(full)


def correlation_fn(tensor: CorrelationTensor):
    """Vectorized E(m, n) over arrays of paired settings, for quadrature."""
    block = tensor.block

    def eq(m, n):
        return np.einsum("...i,ij,...j->...", m, block, n)

    return eq


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix4:
    """Full-rank random state rho = G G^dag / Tr, G complex Ginibre."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = g @ g.conj().T
    h = 0.5 * (h + h.conj().T)
    return validate_state(h / np.trace(h).real)
