"""The verify bench: the paper's integral identities and the steering and LHV
bounds checked numerically, one record per check.

The CHSH line alone takes its correlations by the Born rule on the density
matrix, not from the Pauli expansion the other lines share, so it sees a
wrong expansion.

Every call goes through a module binding (``states.pauli_expansion``,
``sphere.sphere_grid``, ...), so patching a module attribute, as the
perfbench tracer and the fault tests do, reaches the bench.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from . import families, oracle, sphere, states

# The package rebinds the name ``steerkit.svd3`` to the function; this is the module.
_svd3 = importlib.import_module(".svd3", __package__)

# How far (E_Q, E_NS) may pass (8 pi^2 / 3) T1, relative to the bound.
NS_RELATIVE_TOL = 1e-6

# _SIGMAS[i, k, j] is sigma_k[i, j] (x, y, z), so a setting x gives x . sigma = x @ _SIGMAS.
_SIGMAS = np.array(states.PAULI[1:]).transpose(1, 0, 2)


@dataclass(frozen=True)
class Check:
    """One line of the bench: ``value`` computed against ``target``, and its
    ``defect`` held to the tolerance ``tol``."""

    name: str
    target: str
    value: float
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


def _orthogonality_defect(grid: sphere.SphereGrid) -> float:
    """Max defect of integral(n_k n_l) against (4 pi / 3) delta_kl."""
    moments = (grid.points * grid.weights[:, None]).T @ grid.points
    return float(np.max(np.abs(moments - (sphere.FOUR_PI / 3.0) * np.eye(3))))


def _signed_first_moment(grid: sphere.SphereGrid, frame: np.ndarray) -> np.ndarray:
    """int sign(n.f0) n dn on ``grid`` turned to put its pole on f0, where a rule
    split at the equator is exact; ``frame`` holds orthonormal rows f0, f1, f2."""
    points = grid.points @ frame[[1, 2, 0]]
    return (grid.weights * np.sign(points @ frame[0])) @ points


def _born_correlation(state: states.DensityMatrix4, x, y) -> float:
    """E(x, y) = sum r1 r2 P(r1, r2 | x, y) by the Born rule on rho, not from T.
    The outcome-weighted projectors sum to x . sigma, so E(x, y) is
    Tr[rho (x . sigma x y . sigma)]: one product for all four outcomes."""
    a, b = x @ _SIGMAS, y @ _SIGMAS
    observable = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)  # kron(a, b)
    # The observable is Hermitian, so vdot's conjugate of it is its transpose.
    return float(np.vdot(observable, state.matrix).real)


def _chsh_born_defect(state: states.DensityMatrix4) -> float:
    """|S / (2 sqrt(T1^2+T2^2)) - 1| at Horodecki's settings a = u1, a' = u2,
    b, b' = c v1 +- s v2, (c, s) = (T1, T2) / sqrt(T1^2+T2^2), each E by
    ``_born_correlation``."""
    schmidt = _svd3.svd3(states.pauli_expansion(state).block)
    t12 = math.hypot(schmidt.t1, schmidt.t2)
    (u1, u2, _), (v1, v2, _) = schmidt.u, schmidt.v
    c, s = schmidt.t1 / t12, schmidt.t2 / t12
    b, b_prime = c * v1 + s * v2, c * v1 - s * v2
    chsh = (_born_correlation(state, u1, b) + _born_correlation(state, u1, b_prime)
            + _born_correlation(state, u2, b) - _born_correlation(state, u2, b_prime))
    return abs(chsh / (2.0 * t12) - 1.0)


def run_checks(level: str, seed: int) -> list[Check]:
    """The bench's records in print order. ``level`` is "fast" or "full"
    (more draws and a Monte Carlo line), else ValueError; every draw comes
    from one ``default_rng(seed)``, so the records are fixed by the seed."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    fast = level == "fast"
    rng = np.random.default_rng(seed)
    checks: list[Check] = []

    for n_theta in (2, 8):
        defect = _orthogonality_defect(sphere.sphere_grid(n_theta))
        checks.append(Check(f"orthogonality(N={n_theta})", "(4pi/3) delta_kl",
                            defect, defect, 1e-12))

    g4 = sphere.sphere_grid(4)
    target = 16.0 * math.pi ** 2 / 3.0
    eq1 = states.correlation_fn(states.pauli_expansion(families.werner(1.0)))
    value = sphere.inner_product(eq1, eq1, g4)
    checks.append(Check("(E_Q,E_Q) Werner(1) = 16pi^2/3", f"{target:.6f}", value,
                        abs(value - target) / target, 1e-10))

    n_states = 10 if fast else 100
    worst = 0.0
    for _ in range(n_states):
        tensor = states.pauli_expansion(states.random_density_matrix(rng))
        eq = states.correlation_fn(tensor)
        numeric = sphere.inner_product(eq, eq, g4)
        analytic = oracle.norm_eq_analytic(tensor)
        worst = max(worst, abs(numeric - analytic) / analytic)
    checks.append(Check(f"norm identity ({n_states} random states)",
                        "(16pi^2/9)||T||^2", worst, worst, 1e-10))

    n_triples = 20 if fast else 200
    worst = 0.0
    for _ in range(n_triples):
        t = rng.uniform(-1.0, 1.0, size=(3, 3))
        m, lam = sphere.uniform_sphere(2, rng)
        quad = sphere.integrate(g4, lambda pts: (pts @ (t.T @ m)) * (pts @ lam))
        exact = (4.0 * math.pi / 3.0) * float(m @ t @ lam)
        worst = max(worst, abs(quad - exact))
    checks.append(Check(f"vector integral identity ({n_triples} draws)",
                        "(4pi/3) m.T lambda", worst, worst, 1e-12))

    n_states_ns = 5 if fast else 20
    models_per_state = 200 if fast else 500
    worst_rel = -math.inf
    for _ in range(n_states_ns):
        tensor = states.pauli_expansion(states.random_density_matrix(rng))
        models = oracle.random_models(rng, models_per_state)
        bound = oracle.ns_bound(_svd3.svd3(tensor.block))
        for lhs in oracle.model_state_overlaps(tensor, models):
            worst_rel = max(worst_rel, (lhs - bound) / bound)
    checks.append(Check(f"ns inequality ({n_states_ns * models_per_state} models)",
                        "(E_Q,E_NS) <= (8pi^2/3) T1", worst_rel, max(0.0, worst_rel),
                        NS_RELATIVE_TOL))

    n_sat = 5 if fast else 20
    worst = 0.0
    for _ in range(n_sat):
        tensor = states.pauli_expansion(states.random_density_matrix(rng))
        schmidt = _svd3.svd3(tensor.block)
        bound = oracle.ns_bound(schmidt)
        (lhs,) = oracle.model_state_overlaps(tensor, [oracle.saturating_model(schmidt)])
        worst = max(worst, abs(lhs - bound) / bound)
    checks.append(Check(f"ns bound saturation ({n_sat} states)", "(8pi^2/3) T1",
                        worst, worst, NS_RELATIVE_TOL))

    if not fast:
        tensor = states.pauli_expansion(states.random_density_matrix(rng))
        model = oracle.random_model(rng)
        exact = oracle.model_state_overlap(tensor, model)
        estimate, stderr = oracle.model_state_overlap_mc(tensor, model, 10 ** 6, rng)
        z = abs(estimate - exact) / stderr
        checks.append(Check("ns overlap Monte Carlo (1e6 samples)", "z <= 3", z, z, 3.0))

    worst = max(_chsh_born_defect(states.random_density_matrix(rng)) for _ in range(5))
    checks.append(Check("chsh maximum, Born rule (5 states)", "2 sqrt(T1^2+T2^2)",
                        worst, worst, 1e-12))

    # |cos theta| has a kink at the equator, so only the split grid is exact.
    g_split = sphere.sphere_grid(8, breakpoints=(0.0,))
    abs_cos = sphere.integrate(g_split, lambda p: np.abs(p[:, 2]))
    checks.append(Check("abs-cos integral (split grid)", "2pi", abs_cos,
                        abs(abs_cos - 2.0 * math.pi), 1e-12))
    # The largest projection of a bounded response onto the coordinate functions.
    value = math.sqrt(3.0 / sphere.FOUR_PI) * abs_cos
    checks.append(Check("projection constant", "sqrt(3pi)", value,
                        abs(value - math.sqrt(3.0 * math.pi)), 1e-12))

    # sign(m.u1) sign(n.v1) attains the LHV bound: a.T b, a = int sign(m.u1) m dm.
    worst = 0.0
    for _ in range(5):
        tensor = states.pauli_expansion(states.random_density_matrix(rng))
        schmidt = _svd3.svd3(tensor.block)
        a, b = (_signed_first_moment(g_split, frame) for frame in (schmidt.u, schmidt.v))
        worst = max(worst, abs(float(a @ tensor.block @ b) / oracle.lhv_bound(schmidt) - 1.0))
    checks.append(Check("lhv bound saturation (5 states)", "(2pi)^2 T1", worst, worst, 1e-12))
    return checks
