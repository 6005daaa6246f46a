"""Independent reference computations for checking steerkit's outputs.

Nothing here imports steerkit. Each quantity is computed from its
definition or its closed form, by a different route than the program:

* the Pauli table from the 16 traces Tr[rho (s_mu x s_nu)], one at a time;
* singular values from LAPACK (``np.linalg.svd``), not from a Jacobi sweep;
* the criterion margins from the documented inequalities;
* the noisy-Schmidt thresholds in closed form, not by bisection;
* the hidden-state overlap in closed form, not by quadrature;
* the Peres-Horodecki partial-transpose eigenvalue.
"""

from __future__ import annotations

import math

import numpy as np

# A detection needs a margin above this (documented in the steerkit README).
TIE_TOL = 1e-12

_S0 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (_S0, _SX, _SY, _SZ)
_PRODUCTS = [[np.kron(a, b) for b in PAULIS] for a in PAULIS]

# Multiples c of ||T||^2 in the geometric criteria T1 < c ||T||^2.
GEOMETRIC = (("entanglement", 1.0), ("steering", 2.0 / 3.0), ("bell", 4.0 / 9.0))
CRITERIA = ("entanglement", "steering", "bell", "chsh")


def pauli_table(rho) -> np.ndarray:
    """Real 4x4 table T[mu, nu] = Tr[rho (s_mu x s_nu)], trace by trace."""
    rho = np.asarray(rho, dtype=complex)
    table = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            table[mu, nu] = np.trace(rho @ _PRODUCTS[mu][nu]).real
    return table


def singular_values(block) -> np.ndarray:
    """Descending singular values of a 3x3 block, from LAPACK."""
    return np.linalg.svd(np.asarray(block, dtype=float), compute_uv=False)


def criterion_margins(sigma, norm_sq) -> dict:
    """Signed detection margin of each criterion; detected iff > TIE_TOL.

    Geometric criteria: c ||T||^2 - T1. CHSH: T1^2 + T2^2 - 1. Works on
    scalars and elementwise on arrays.
    """
    t1, t2 = sigma[0], sigma[1]
    margins = {name: c * norm_sq - t1 for name, c in GEOMETRIC}
    margins["chsh"] = t1 * t1 + t2 * t2 - 1.0
    return margins


def detected(margin):
    return margin > TIE_TOL


def partial_transpose_min_eig(rho) -> float:
    """Smallest eigenvalue of rho with Bob's factor transposed.

    Negative exactly for entangled two-qubit states (Peres-Horodecki).
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    pt = r.transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def noisy_schmidt_sigma(alpha: float, v) -> tuple:
    """Singular values of the noisy-Schmidt block diag(-v sin a, -v sin a, -v);
    ``v`` may be an array of grid points."""
    s = abs(math.sin(alpha))
    return (v, v * s, v * s)


def noisy_schmidt_norm_sq(alpha: float, v):
    return v * v * (1.0 + 2.0 * math.sin(alpha) ** 2)


def noisy_schmidt_threshold(alpha: float, criterion: str) -> float | None:
    """Critical noise of the noisy-Schmidt family in closed form.

    1/(c (1 + 2 sin^2 a)) for the geometric criteria, 1/sqrt(1 + sin^2 a)
    for CHSH; None (no detection on [0, 1]) exactly when that exceeds 1.
    Werner is the case a = pi/2.
    """
    s2 = math.sin(alpha) ** 2
    if criterion == "chsh":
        v = 1.0 / math.sqrt(1.0 + s2)
    else:
        c = dict(GEOMETRIC)[criterion]
        v = 1.0 / (c * (1.0 + 2.0 * s2))
    return None if v > 1.0 else v


def response_gain(kind: str, vector) -> float:
    """g in  integral I(m) (m . c) dOmega = g (a . c)  for a response along a.

    2 pi for sign(m . a); 4 pi r / 3 for clip(r m . a) with r <= 1 and
    4 pi (1/2 - 1/(6 r^2)) with r > 1; 0 for a constant.
    """
    if kind == "sign":
        return 2.0 * math.pi
    if kind == "constant":
        return 0.0
    if kind != "clipped":
        raise ValueError(f"unknown response kind {kind!r}")
    r = float(np.linalg.norm(vector))
    if r <= 1.0:
        return 4.0 * math.pi * r / 3.0
    return 4.0 * math.pi * (0.5 - 1.0 / (6.0 * r * r))


def model_overlap(block, components) -> float:
    """(E_Q, E_NS) = (4 pi / 3) sum_k p_k g_k (a_k . T lambda_k) in closed form.

    ``components`` yields (weight, hidden_state, kind, vector) with kind
    "sign" (vector = unit axis), "clipped" (vector = r a) or "constant".
    """
    block = np.asarray(block, dtype=float)
    total = 0.0
    for weight, hidden, kind, vector in components:
        gain = response_gain(kind, vector)
        if gain == 0.0:
            continue
        axis = np.asarray(vector, dtype=float)
        axis = axis / np.linalg.norm(axis)
        total += weight * gain * float(axis @ (block @ np.asarray(hidden)))
    return (4.0 * math.pi / 3.0) * total


def ns_bound(t1: float) -> float:
    """Largest overlap of any non-steering model: (8 pi^2 / 3) T1."""
    return 8.0 * math.pi ** 2 / 3.0 * t1
