"""Hidden-state models and numeric verification of the steering bound.

A non-steering (local-hidden-state) model assigns classical weights to
unit hidden Bloch vectors on Bob's side and bounded response functions to
Alice's settings. Its correlation function is

    E_NS(m, n) = sum_k p_k I_k(m) (n . lambda_k),   |I_k| <= 1.

Against a fixed quantum correlation E_Q(m, n) = m . T n, the scalar
product over the product of Bloch spheres obeys

    (E_Q, E_NS) <= (8 pi^2 / 3) T1,

with T1 the top singular value of T, while (E_Q, E_Q) equals
(16 pi^2 / 9) ||T||^2. The bound is attained by a single-component model
whose hidden state is the top right singular vector and whose response is
the sign of the projection onto the top left singular vector. This module
evaluates all of these quantities numerically.

Integration strategy: the inner integral over n is a degree-2 spherical
polynomial and reduces exactly to (4 pi / 3) * I(m) (m . T lambda); the
remaining m-integral is done per component on a grid whose polar axis is
aligned with the response's discontinuity normal and whose panels are
split at the response's kink latitudes, so the built-in response families
integrate exactly. Black-box responses, which declare no breakpoints, are
always integrated on the unaligned rule sphere_grid(48), also inside
verify_ns_inequality; at discontinuities use Monte Carlo instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import tensor_norm_sq
from .sphere import sphere_grid, uniform_sphere
from .states import correlation_fn, unit_vector
from .svd3 import SchmidtForm, svd3

WEIGHT_SUM_TOL = 1e-12
RESPONSE_BOUND_TOL = 1e-12
NS_RELATIVE_TOL = 1e-6
MAX_COMPONENTS = 8

_NS_COEFF = 8.0 * math.pi ** 2 / 3.0
_LHV_COEFF = 4.0 * math.pi ** 2
_NORM_COEFF = 16.0 * math.pi ** 2 / 9.0


class DegenerateTensor(ValueError):
    """The correlation tensor has no usable top singular direction."""


@dataclass(frozen=True, eq=False)
class SignResponse:
    """I(m) = sign(m . axis); jumps across the plane orthogonal to axis."""

    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_vector(self.axis))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)

    def __call__(self, m):
        return np.sign(np.asarray(m) @ self.axis)


@dataclass(frozen=True, eq=False)
class ClippedLinearResponse:
    """I(m) = clip(m . vector, -1, 1); kinks appear once |vector| > 1."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.shape != (3,) or np.linalg.norm(v) > 2.0 + 1e-12:
            raise ValueError("vector must be a 3-vector with norm <= 2")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def axis(self) -> np.ndarray | None:
        norm = float(np.linalg.norm(self.vector))
        return None if norm < 1e-12 else self.vector / norm

    @property
    def breakpoints(self) -> tuple[float, ...]:
        norm = float(np.linalg.norm(self.vector))
        if norm <= 1.0:
            return ()
        return (-1.0 / norm, 1.0 / norm)

    def __call__(self, m):
        return np.clip(np.asarray(m) @ self.vector, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class ConstantResponse:
    """I(m) = value, independent of the setting."""

    value: float
    axis: None = field(default=None, init=False)

    def __post_init__(self):
        if abs(self.value) > 1.0:
            raise ValueError("constant response must lie in [-1, 1]")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def __call__(self, m):
        return np.full(np.shape(m)[:-1], self.value, dtype=float)


@dataclass(frozen=True, eq=False)
class ModelComponent:
    weight: float
    hidden_state: np.ndarray
    response: object

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValueError(f"negative weight {self.weight!r}")
        object.__setattr__(self, "hidden_state", unit_vector(self.hidden_state))


@dataclass(frozen=True, eq=False)
class HiddenStateModel:
    """Finite non-steering model: weighted pure hidden states with responses."""

    components: tuple[ModelComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("model needs at least one component")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)

    def check_responses(self) -> None:
        """Sampled check that every response stays within [-1, 1]."""
        points = sphere_grid(6).points
        for k, comp in enumerate(self.components):
            worst = float(np.max(np.abs(comp.response(points))))
            if worst > 1.0 + RESPONSE_BOUND_TOL:
                raise ValueError(
                    f"component {k} response reaches {worst:.6f}, beyond 1"
                )


def eval_ns_correlation(model: HiddenStateModel, m, n) -> float:
    """E_NS(m, n) for unit settings m, n."""
    m = unit_vector(m)
    n = unit_vector(n)
    return math.fsum(
        c.weight * float(c.response(m)) * float(n @ c.hidden_state)
        for c in model.components
    )


def ns_correlation_fn(model: HiddenStateModel):
    """Vectorized E_NS over arrays of paired settings, for quadrature."""

    def ens(m, n):
        total = np.zeros(np.shape(m)[:-1], dtype=float)
        for c in model.components:
            total += c.weight * np.asarray(c.response(m), dtype=float) * (
                n @ c.hidden_state
            )
        return total

    return ens


def norm_eq_analytic(tensor) -> float:
    """Closed form of (E_Q, E_Q): (16 pi^2 / 9) ||T||^2."""
    return _NORM_COEFF * tensor_norm_sq(tensor)


def ns_bound(schmidt: SchmidtForm) -> float:
    """Largest (E_Q, E_NS) over non-steering models: (8 pi^2 / 3) T1."""
    return _NS_COEFF * schmidt.t1


def lhv_bound(schmidt: SchmidtForm) -> float:
    """Counterpart bound for local hidden variable models: (2 pi)^2 T1."""
    return _LHV_COEFF * schmidt.t1


def saturating_model(schmidt: SchmidtForm) -> HiddenStateModel:
    """Single-component model that attains the non-steering bound.

    The hidden state is the top right singular vector and the response is
    the sign of the projection onto the top left singular vector.
    """
    if schmidt.t1 <= 1e-14:
        raise DegenerateTensor(f"top singular value {schmidt.t1!r} is negligible")
    return HiddenStateModel(
        (ModelComponent(1.0, schmidt.v[0], SignResponse(schmidt.u[0])),)
    )


def model_state_overlap(tensor, model: HiddenStateModel) -> float:
    """(E_Q, E_NS) with the n-integral done analytically.

    Exact for the built-in response families; arbitrary callables without
    declared kink structure are integrated on ``sphere_grid(48)`` and may
    lose accuracy at discontinuities (use the Monte Carlo route for those).
    """
    block = tensor.block
    terms = []
    for comp in model.components:
        response = comp.response
        if hasattr(response, "breakpoints"):
            grid = sphere_grid(6, response.breakpoints, getattr(response, "axis", None))
        else:
            grid = sphere_grid(48)
        # m-integral of I(m) (m . T lambda) after the exact n-reduction.
        c = block @ comp.hidden_state
        values = np.asarray(response(grid.points), dtype=float) * (grid.points @ c)
        terms.append(comp.weight * float(np.sum(grid.weights * values)))
    return (4.0 * math.pi / 3.0) * math.fsum(terms)


def model_state_overlap_mc(tensor, model: HiddenStateModel, samples: int,
                           rng: np.random.Generator) -> tuple[float, float]:
    """(E_Q, E_NS) by Monte Carlo; returns (estimate, standard error)."""
    m = uniform_sphere(samples, rng)
    n = uniform_sphere(samples, rng)
    values = correlation_fn(tensor)(m, n) * ns_correlation_fn(model)(m, n)
    scale = (4.0 * math.pi) ** 2
    estimate = scale * float(values.mean())
    stderr = scale * float(values.std(ddof=1)) / math.sqrt(samples)
    return estimate, stderr


@dataclass(frozen=True)
class NsInequalityCheck:
    lhs: float
    bound: float
    tolerance: float
    holds: bool


def verify_ns_inequality(tensor, model: HiddenStateModel) -> NsInequalityCheck:
    """Check (E_Q, E_NS) <= (8 pi^2 / 3) T1 for one model.

    Response boundedness is sample-checked first. The comparison allows a
    1e-6 relative quadrature tolerance.
    """
    model.check_responses()
    schmidt = svd3(tensor.block)
    bound = ns_bound(schmidt)
    lhs = model_state_overlap(tensor, model)
    tolerance = NS_RELATIVE_TOL * bound + 1e-12
    return NsInequalityCheck(lhs, bound, tolerance, lhs <= bound + tolerance)


def random_model(rng: np.random.Generator) -> HiddenStateModel:
    """Random non-steering model for property testing.

    Component count uniform in 1..MAX_COMPONENTS, weights from a flat
    simplex sample, hidden states uniform on the sphere, responses drawn
    from the sign, clipped-linear and constant families. Broad enough to
    probe the bound, not exhaustive.
    """
    n = int(rng.integers(1, MAX_COMPONENTS + 1))
    weights = rng.dirichlet(np.ones(n))
    components = []
    for k in range(n):
        lam = uniform_sphere(1, rng)[0]
        kind = int(rng.integers(0, 3))
        if kind == 0:
            response = SignResponse(uniform_sphere(1, rng)[0])
        elif kind == 1:
            response = ClippedLinearResponse(
                rng.uniform(0.05, 2.0) * uniform_sphere(1, rng)[0]
            )
        else:
            response = ConstantResponse(float(rng.choice([-1.0, 1.0])))
        components.append(ModelComponent(float(weights[k]), lam, response))
    return HiddenStateModel(tuple(components))


def chsh_ns_value(b1, b2, lam) -> float:
    """Two-setting algebraic expression at fixed directions, with Alice's
    +-1 responses chosen optimally."""
    b1 = unit_vector(b1)
    b2 = unit_vector(b2)
    lam = unit_vector(lam)
    return abs(float((b1 + b2) @ lam)) + abs(float((b1 - b2) @ lam))


def _direction_grid(step_deg: float) -> np.ndarray:
    thetas = np.deg2rad(np.arange(0.0, 180.0 + 0.5 * step_deg, step_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    st, ct = np.sin(thetas), np.cos(thetas)
    x = np.outer(st, np.cos(phis)).ravel()
    y = np.outer(st, np.sin(phis)).ravel()
    z = np.repeat(ct, len(phis))
    return np.column_stack([x, y, z])


def chsh_ns_max(step_deg: float = 15.0) -> float:
    """Maximize the two-setting expression over all directions.

    Deterministic scan over a step_deg grid for each of the three
    directions. With a = b1 + b2 and b = b1 - b2, which are orthogonal,
    the expression |a . lambda| + |b . lambda| is at most
    sqrt(|a|^2 + |b|^2) = 2. Every grid contains the pole theta = 0, so
    the scan includes b1 = b2 = lambda = z, which attains exactly 2, and
    no refinement can improve on it. The scan thus checks the analytic
    maximum from both sides: no grid triple exceeds it, and one reaches it.
    """
    dirs = _direction_grid(step_deg)
    dots = dirs @ dirs.T
    best = -np.inf
    chunk = max(1, int(2e6 // (len(dirs) ** 2)) or 1)
    for start in range(0, len(dirs), chunk):
        cols = dots[:, start:start + chunk]
        values = np.abs(cols[:, None, :] + cols[None, :, :]) + np.abs(
            cols[:, None, :] - cols[None, :, :]
        )
        best = max(best, float(values.max()))
    return best
