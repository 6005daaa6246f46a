"""Shared test utilities and independent oracles."""

import numpy as np

import steerkit as sk

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET_PROJECTOR = np.outer(SINGLET_VEC, SINGLET_VEC.conj())


def brute_pauli_table(rho: np.ndarray) -> np.ndarray:
    """Reference Pauli expansion: plain loops over the 16 products."""
    table = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            table[mu, nu] = np.trace(rho @ np.kron(PAULI[mu], PAULI[nu])).real
    return table


def haar_unitary2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def locally_rotated(state, ua: np.ndarray, ub: np.ndarray):
    u = np.kron(ua, ub)
    return sk.validate_state(u @ state.matrix @ u.conj().T)


def tensor_from_block(block: np.ndarray) -> sk.CorrelationTensor:
    full = np.zeros((4, 4))
    full[0, 0] = 1.0
    full[1:, 1:] = block
    return sk.CorrelationTensor(full)


def double_factorial(n: int) -> int:
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def monomial_sphere_integral(a: int, b: int, c: int) -> float:
    """Exact integral of x^a y^b z^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = (
        double_factorial(a - 1)
        * double_factorial(b - 1)
        * double_factorial(c - 1)
    )
    return 4.0 * np.pi * num / double_factorial(a + b + c + 1)


def criteria_for_state(state):
    """Tensor, Schmidt form, squared norm and ladder rows of one state."""
    tensor = sk.pauli_expansion(state)
    schmidt = sk.svd3(tensor.block)
    norm_sq = sk.tensor_norm_sq(tensor)
    return tensor, schmidt, norm_sq, sk.ladder(schmidt.t1, schmidt.t2, norm_sq)
