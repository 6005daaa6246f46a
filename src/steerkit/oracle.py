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

The unit of work is a stack of models: random_models draws a whole stack in
one set of array calls, model_state_overlaps integrates it in one pass, and
verify_ns_inequality checks it against one SVD of T; random_model and
model_state_overlap are their one-model cases.

One rule, on the exact type, decides how a response is bounded and how it
is integrated. A SignResponse, ClippedLinearResponse or ConstantResponse is
bounded by construction. Anything else, a subclass included, is a black
box: its ``__call__`` is sampled for |I| <= 1 on the nodes of sphere_grid(48)
when its ModelComponent is built, and integrated on those same nodes.

Integration strategy: the inner integral over n is a degree-2 spherical
polynomial and reduces exactly to (4 pi / 3) * I(m) (m . T lambda). Sign and
clipped responses share one axial profile, I(m) = clip(norm z, -1, 1) with
z = m . axis, a sign being norm = inf. Against m . c the m-integral is
(axis . c) 2 pi int clip(norm z, -1, 1) z dz, taken by Gauss-Legendre on
panels split at the breakpoints, so it is exact; the profile is evaluated
once over the panels of all axial components of a stack. An axis of None
(a constant, or the zero clipped vector) contributes exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .criteria import tensor_norm_sq
from .sphere import gauss_legendre_panels, integrate, sphere_grid, uniform_sphere
from .states import correlation_fn, unit_vector
from .svd3 import SchmidtForm, svd3

WEIGHT_SUM_TOL = 1e-12
RESPONSE_BOUND_TOL = 1e-12
NS_RELATIVE_TOL = 1e-6
MAX_COMPONENTS = 8

_NS_COEFF = 8.0 * math.pi ** 2 / 3.0
_LHV_COEFF = 4.0 * math.pi ** 2
_NORM_COEFF = 16.0 * math.pi ** 2 / 9.0
_MC_BLOCK = 2 ** 16


class DegenerateTensor(ValueError):
    """The correlation tensor has no usable top singular direction."""


@dataclass(frozen=True, eq=False)
class SignResponse:
    """I(m) = sign(m . axis); jumps across the plane orthogonal to axis."""

    axis: np.ndarray
    breakpoints = (0.0,)
    norm = math.inf  # the infinite-slope limit of clip(norm * z, -1, 1)

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_vector(self.axis))

    def __call__(self, m):
        return np.sign(np.asarray(m) @ self.axis)


@dataclass(frozen=True, eq=False)
class ClippedLinearResponse:
    """I(m) = clip(m . vector, -1, 1); kinks appear once |vector| > 1."""

    vector: np.ndarray
    norm: float = field(init=False)
    axis: np.ndarray | None = field(init=False)
    breakpoints: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        v = np.array(self.vector, dtype=float)
        norm = math.sqrt(v.dot(v)) if v.shape == (3,) else math.nan
        if not norm <= 2.0 + 1e-12:
            raise ValueError("vector must be a 3-vector with norm <= 2")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "axis", v / norm if norm > 0.0 else None)
        bps = (-1.0 / norm, 1.0 / norm) if norm > 1.0 else ()
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, m):
        return np.minimum(np.maximum(np.asarray(m) @ self.vector, -1.0), 1.0)


@dataclass(frozen=True, eq=False)
class ConstantResponse:
    """I(m) = value, independent of the setting."""

    value: float
    axis = None

    def __post_init__(self):
        if not abs(self.value) <= 1.0:
            raise ValueError("constant response must lie in [-1, 1]")

    def __call__(self, m):
        return np.full(np.shape(m)[:-1], self.value, dtype=float)


# Matched on the exact type: a subclass is a black box like any callable.
_BUILT_IN = (SignResponse, ClippedLinearResponse, ConstantResponse)


@dataclass(frozen=True, eq=False)
class ModelComponent:
    weight: float
    hidden_state: np.ndarray
    response: object

    def __post_init__(self):
        if not 0.0 <= self.weight < math.inf:
            raise ValueError(f"weight {self.weight!r} is not finite and non-negative")
        object.__setattr__(self, "hidden_state", unit_vector(self.hidden_state))
        if type(self.response) in _BUILT_IN:
            return
        # Sampled on the very nodes model_state_overlaps integrates it on.
        worst = float(np.max(np.abs(self.response(sphere_grid(48).points))))
        if not worst <= 1.0 + RESPONSE_BOUND_TOL:
            raise ValueError(f"response reaches {worst:.6f}, beyond 1")


@dataclass(frozen=True, eq=False)
class HiddenStateModel:
    """Finite non-steering model: weighted pure hidden states with responses."""

    components: tuple[ModelComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("model needs at least one component")
        if any(type(c) is not ModelComponent for c in comps):
            raise TypeError("every component must be a ModelComponent")
        total = math.fsum(c.weight for c in comps)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)


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
    """(E_Q, E_NS) of one model: the one-model case of model_state_overlaps."""
    return model_state_overlaps(tensor, (model,))[0]


def model_state_overlaps(tensor, models: Sequence[HiddenStateModel]) -> list[float]:
    """(E_Q, E_NS) of each model, with the n-integral done analytically.

    The sign and clipped responses of all models go through one exact
    panel pass on clip(norm z, -1, 1), and each model's terms are summed on
    their own. A black box is integrated through its ``__call__`` on the
    sphere_grid(48) nodes it was checked on, which loses digits at a jump.
    """
    block = tensor.block
    comps = [c for model in models for c in model.components]
    terms = [0.0] * len(comps)
    axial = []
    for k, comp in enumerate(comps):
        response = comp.response
        if type(response) in _BUILT_IN:
            if response.axis is not None:
                axial.append(k)
            continue
        c = block @ comp.hidden_state
        value = integrate(sphere_grid(48), lambda m: response(m) * (m @ c))
        terms[k] = comp.weight * value
    if axial:
        values = _axial_terms(block, [comps[k] for k in axial]).tolist()
        for k, value in zip(axial, values):
            terms[k] = value
    overlaps = []
    stop = 0
    for model in models:
        start, stop = stop, stop + len(model.components)
        overlaps.append((4.0 * math.pi / 3.0) * math.fsum(terms[start:stop]))
    return overlaps


def _axial_terms(block: np.ndarray, comps: list[ModelComponent]) -> np.ndarray:
    """p_k (a_k . T lambda_k) 2 pi int clip(norm_k z, -1, 1) z dz, k axial."""
    edges = [(-1.0, *c.response.breakpoints, 1.0) for c in comps]
    panels = np.array([len(e) - 1 for e in edges])
    # One row of nodes per panel, each component's rows in a consecutive run.
    z, node_weights = gauss_legendre_panels(
        np.array([x for e in edges for x in e[:-1]]),
        np.array([x for e in edges for x in e[1:]]), 6)
    norms = np.repeat([c.response.norm for c in comps], panels)[:, None]
    # A sign response's norm is inf; its split at 0 keeps every node off
    # z = 0, where inf * 0 would be NaN.
    f = np.minimum(np.maximum(norms * z, -1.0), 1.0)
    panel_sums = (node_weights * f * z).sum(axis=1)
    moments = 2.0 * math.pi * np.add.reduceat(panel_sums, panels.cumsum() - panels)
    axes = np.array([c.response.axis for c in comps])
    hidden = np.array([c.hidden_state for c in comps])
    weights = np.array([c.weight for c in comps])
    return weights * moments * ((axes @ block) * hidden).sum(axis=1)


def model_state_overlap_mc(tensor, model: HiddenStateModel, samples: int,
                           rng: np.random.Generator) -> tuple[float, float]:
    """(E_Q, E_NS) by Monte Carlo; returns (estimate, standard error).

    Samples are drawn in blocks of at most 2**16, whose means and squared
    deviations are merged as they come (Chan, Golub and LeVeque, 1983), so
    memory stays bounded whatever the sample count.
    """
    if not samples >= 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples, got {samples!r}")
    eq, ens = correlation_fn(tensor), ns_correlation_fn(model)
    count, mean, sq_dev = 0, 0.0, 0.0
    for start in range(0, samples, _MC_BLOCK):
        size = min(_MC_BLOCK, samples - start)
        m = uniform_sphere(size, rng)
        n = uniform_sphere(size, rng)
        values = eq(m, n) * ens(m, n)
        block_mean = float(values.mean())
        delta = block_mean - mean
        count += size
        mean += delta * size / count
        sq_dev += float(((values - block_mean) ** 2).sum())
        sq_dev += delta * delta * (count - size) * size / count
    scale = (4.0 * math.pi) ** 2
    return scale * mean, scale * math.sqrt(sq_dev / (samples - 1) / samples)


@dataclass(frozen=True)
class NsInequalityCheck:
    lhs: float
    bound: float
    tolerance: float
    holds: bool


def verify_ns_inequality(tensor, models: Sequence[HiddenStateModel]
                         ) -> list[NsInequalityCheck]:
    """Check (E_Q, E_NS) <= (8 pi^2 / 3) T1 for each model of a sequence.

    Every response was bounded when its component was built; T1 comes from
    one SVD of T. The comparison allows a 1e-6 relative quadrature
    tolerance.
    """
    bound = ns_bound(svd3(tensor.block))
    tolerance = NS_RELATIVE_TOL * bound + 1e-12
    return [NsInequalityCheck(lhs, bound, tolerance, lhs <= bound + tolerance)
            for lhs in model_state_overlaps(tensor, models)]


def random_model(rng: np.random.Generator) -> HiddenStateModel:
    """One random model: the one-model case of random_models."""
    return random_models(rng, 1)[0]


def random_models(rng: np.random.Generator, count: int) -> list[HiddenStateModel]:
    """``count`` random non-steering models for property testing.

    Component counts uniform in 1..MAX_COMPONENTS, weights from a flat
    simplex sample per model, hidden states uniform on the sphere, responses
    drawn uniformly from the sign, clipped-linear (radius U(0.05, 2) along a
    uniform axis) and constant (+-1) families. Broad enough to probe the
    bound, not exhaustive. All models are drawn in one set of array calls.
    """
    sizes = rng.integers(1, MAX_COMPONENTS + 1, size=count)
    stops = sizes.cumsum()
    total = int(sizes.sum())
    weights = rng.standard_exponential(total)  # normalised per model: Dirichlet(1)
    weights /= np.add.reduceat(weights, stops - sizes).repeat(sizes)
    hidden, axes = uniform_sphere(2 * total, rng).reshape(2, total, 3)
    kind, radius, sign = rng.random((3, total)).tolist()  # U(0, 1) each
    responses = [
        SignResponse(axis) if k < 1.0 / 3.0
        else ClippedLinearResponse((0.05 + 1.95 * r) * axis) if k < 2.0 / 3.0
        else ConstantResponse(-1.0 if s < 0.5 else 1.0)
        for k, axis, r, s in zip(kind, axes, radius, sign)
    ]
    comps = [ModelComponent(w, lam, r)
             for w, lam, r in zip(weights.tolist(), hidden, responses)]
    return [HiddenStateModel(tuple(comps[stop - size:stop]))
            for size, stop in zip(sizes.tolist(), stops.tolist())]


def _direction_grid(step_deg: float) -> np.ndarray:
    degrees = np.arange(0.0, 180.0 + 0.5 * step_deg, step_deg)
    thetas = np.deg2rad(degrees)
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    st, ct = np.sin(thetas), np.cos(thetas)
    x = np.outer(st, np.cos(phis)).ravel()
    y = np.outer(st, np.sin(phis)).ravel()
    z = np.repeat(ct, len(phis))
    # A pole (theta = 0 or 180 degrees) is one direction, not a ring.
    keep = (np.arange(len(phis)) == 0) | (degrees % 180.0 != 0.0)[:, None]
    return np.column_stack([x, y, z])[keep.ravel()]


def chsh_ns_max(step_deg: float = 15.0) -> float:
    """Maximize the two-setting expression over all directions.

    Deterministic scan over a step_deg grid for each of the three
    directions. With a = b1 + b2 and b = b1 - b2, which are orthogonal,
    the expression |a . lambda| + |b . lambda| is at most
    sqrt(|a|^2 + |b|^2) = 2. With x = b1 . lambda and y = b2 . lambda it
    is |x + y| + |x - y| = 2 max(|x|, |y|), so the scan over triples takes
    2 max |b . lambda| over pairs of grid directions. Every grid holds the
    pole theta = 0, where b1 = b2 = lambda = z attains exactly 2, so the
    scan checks the analytic maximum from both sides: no grid triple
    exceeds it, and one reaches it.
    """
    if not 0.0 < step_deg <= 180.0:
        raise ValueError(f"step_deg must lie in (0, 180], got {step_deg!r}")
    dirs = _direction_grid(step_deg)
    # Blocks of rows of about 2e5 dot products: each stays near 1.6 MB.
    chunk = max(1, 200_000 // len(dirs))
    return 2.0 * max(float(np.abs(dirs[start:start + chunk] @ dirs.T).max())
                     for start in range(0, len(dirs), chunk))
