"""Shared test utilities and independent oracles."""

import math
import os
from pathlib import Path

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


def pauli_sum(table: np.ndarray) -> np.ndarray:
    """Reference inverse expansion: (1/4) sum T[mu, nu] sigma_mu x sigma_nu."""
    return sum(table[mu, nu] * np.kron(PAULI[mu], PAULI[nu])
               for mu in range(4) for nu in range(4)) / 4.0


def schmidt_product(form) -> np.ndarray:
    """The matrix an svd3 result stands for: u.T @ diag(sigma) @ v."""
    return form.u.T @ np.diag(form.sigma) @ form.v


def bob_branch(state, x, a: int):
    """Alice's outcome probability P(a | x) and Bob's weighted Bloch vector,
    whose component j is sum_r r P(a, r | x, e_j), by the Born rule alone."""
    p = np.array([[sk.joint_probability(state, x, e, a, r) for r in (1, -1)]
                  for e in np.eye(3)])
    return float(p[2].sum()), p[:, 0] - p[:, 1]


def moment_block(model) -> np.ndarray:
    """C, the lower-right 3x3 block of a model's raveled 4x4 moment table."""
    return model.moment.reshape(4, 4)[1:, 1:]


def unit_axes(model) -> np.ndarray:
    """Each row's axis: a clipped vector over its norm; a sign axis, a
    constant's zero and a zero vector as they are."""
    norms = np.linalg.norm(model.vectors, axis=1)
    norms[(model.kinds == 0) | (norms == 0.0)] = 1.0
    return model.vectors / norms[:, None]


def reference_overlap(block: np.ndarray, model) -> float:
    """(E_Q, E_NS) term by term: (4 pi / 3) fsum_k p_k M_k (a_k . T lambda_k),
    with M = 2 pi for a sign, 4 pi r / 3 for a clipped vector of norm r <= 1,
    2 pi (1 - 1/(3 r^2)) above, and 0 for a constant."""
    terms = []
    for kind, weight, lam, axis, r in zip(model.kinds.tolist(), model.weights.tolist(),
                                          model.hidden, unit_axes(model),
                                          np.linalg.norm(model.vectors, axis=1).tolist()):
        moment = (2.0 * math.pi if kind == 0
                  else 4.0 * math.pi * r / 3.0 if kind == 1 and r <= 1.0
                  else 2.0 * math.pi * (1.0 - 1.0 / (3.0 * r * r)) if kind == 1
                  else 0.0)
        terms.append(weight * moment * float(axis @ block @ lam))
    return (4.0 * math.pi / 3.0) * math.fsum(terms)


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


def state_to_document(state, label=None) -> dict:
    """A state as the CLI reads it: nested [re, im] pairs, row-major."""
    doc = {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in state.matrix]}
    if label is not None:
        doc["label"] = label
    return doc


def perturb_low_grid(monkeypatch) -> None:
    """Make every N=2 sphere rule move 1e-6 of its first node's weight to
    its last node; the weights still sum to 4 pi, so the rule is accepted,
    but its orthogonality defect is far above 1e-12."""
    build = sk.sphere.sphere_grid

    def perturbed(n_theta, breakpoints=()):
        grid = build(n_theta, breakpoints)
        if n_theta != 2:
            return grid
        w = grid.weights.copy()
        delta = 1e-6 * w[0]
        w[0] += delta
        w[-1] -= delta
        return sk.SphereGrid(grid.points, w)

    monkeypatch.setattr(sk.sphere, "sphere_grid", perturbed)


def python_env() -> dict:
    """The environment of a fresh interpreter that imports this steerkit."""
    src = str(Path(sk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
