"""Hidden-state models and their overlaps with a quantum correlation.

A non-steering (local-hidden-state) model assigns classical weights to
unit hidden Bloch vectors on Bob's side and bounded response functions to
Alice's settings. Its correlation function is

    E_NS(m, n) = sum_k p_k I_k(m) (n . lambda_k),   |I_k| <= 1.

Against a fixed quantum correlation E_Q(m, n) = m . T n, the scalar
product over the product of Bloch spheres obeys

    (E_Q, E_NS) <= (8 pi^2 / 3) T1,

with T1 the top singular value of T, while (E_Q, E_Q) equals
(16 pi^2 / 9) ||T||^2; a sign response on the top singular vectors attains
the bound. ``model_state_overlaps`` and ``ns_bound`` compute the two sides;
the verify bench compares them. A response is a SignResponse,
ClippedLinearResponse or ConstantResponse, matched on the exact type. Models
are held as columns and drawn a stack at a time.

E_Q lies in the span of the nine functions m_i n_j, so only a model's
moment matrix C = int int m n^T E_NS dm dn enters the overlap, which is
<T, C>. The n-integral is (4 pi / 3) lambda; sign and clipped responses
share I(m) = clip(norm z, -1, 1), z = m . axis (a sign is norm = inf), so
the m-integral is M axis with M = 2 pi int clip(norm z, -1, 1) z dz, and
C = (4 pi / 3) sum_k p_k M_k axis_k lambda_k^T (M = 0 for a constant). C is
taken in closed form when a model or stack is built, and an overlap is one
BLAS dot of its raveled table with the tensor's, so its last bits are those
of the numpy/BLAS build, as svd3's are.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import tensor_norm_sq
from .sphere import uniform_sphere
from .states import UNIT_NORM_TOL, correlation_fn, unit_vector
from .svd3 import SchmidtForm

WEIGHT_SUM_TOL = 1e-12
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

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_vector(self.axis))

    def __call__(self, m):
        return np.sign(np.asarray(m) @ self.axis)


@dataclass(frozen=True, eq=False)
class ClippedLinearResponse:
    """I(m) = clip(m . vector, -1, 1); kinks appear once |vector| > 1."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=float)
        if not (v.shape == (3,) and math.sqrt(v.dot(v)) <= 2.0 + 1e-12):
            raise ValueError("vector must be a 3-vector with norm <= 2")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    def __call__(self, m):
        return np.minimum(np.maximum(np.asarray(m) @ self.vector, -1.0), 1.0)


@dataclass(frozen=True, eq=False)
class ConstantResponse:
    """I(m) = value, independent of the setting; a real number, kept as a float."""

    value: float

    def __post_init__(self):
        if not isinstance(self.value, numbers.Real):  # a complex one too, 0.5+0j included
            raise TypeError(f"constant response must be a real number, got {self.value!r}")
        if not abs(self.value) <= 1.0:
            raise ValueError("constant response must lie in [-1, 1]")
        object.__setattr__(self, "value", float(self.value))

    def __call__(self, m):
        return np.full(np.shape(m)[:-1], self.value, dtype=float)


# A response's kind is its index here, matched on the exact type.
_KINDS = (SignResponse, ClippedLinearResponse, ConstantResponse)
_SIGN, _CLIPPED, _CONSTANT = range(3)
_COLUMNS = ("weights", "hidden", "kinds", "vectors", "values")


@dataclass(frozen=True, eq=False)
class ModelComponent:
    weight: float
    hidden_state: np.ndarray
    response: object

    def __post_init__(self):
        if not 0.0 <= self.weight < math.inf:
            raise ValueError(f"weight {self.weight!r} is not finite and non-negative")
        object.__setattr__(self, "hidden_state", unit_vector(self.hidden_state))
        if type(self.response) not in _KINDS:
            raise TypeError("response must be a SignResponse, ClippedLinearResponse"
                            f" or ConstantResponse, got {type(self.response).__name__}")


class HiddenStateModel:
    """Finite non-steering model as read-only columns, a row per component:
    ``weights``, ``hidden``, ``kinds`` (0 sign, 1 clipped, 2 constant),
    ``vectors`` (sign axis, clipped vector, else 0) and constant ``values``
    (else 0); ``moment`` is C in the lower-right block of a 4x4 table, raveled
    to 16 read-only entries. ``components`` builds the same model as objects."""

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("model needs at least one component")
        if any(type(c) is not ModelComponent for c in comps):
            raise TypeError("every component must be a ModelComponent")
        total = math.fsum(c.weight for c in comps)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        rows = [(c.weight, c.hidden_state, *_parameters(c.response)) for c in comps]
        *columns, (moment,) = _columns(*map(np.array, zip(*rows)), starts=[0])
        _set_columns(self, columns, moment)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: HiddenStateModel is immutable")

    @property
    def components(self) -> tuple[ModelComponent, ...]:
        rows = zip(self.weights.tolist(), self.hidden, self.kinds.tolist(),
                   self.vectors, self.values.tolist())
        return tuple(ModelComponent(w, h, _KINDS[k](c if k == _CONSTANT else v))
                     for w, h, k, v, c in rows)


def _parameters(r) -> tuple:
    """(kind, vector, value): the sign axis or clipped vector, a constant's value."""
    kind = _KINDS.index(type(r))
    vector = r.axis if kind == _SIGN else getattr(r, "vector", (0.0, 0.0, 0.0))
    return kind, vector, getattr(r, "value", 0.0)


def _columns(weights, hidden, kinds, vectors, values, starts) -> tuple:
    """The columns, read-only, and last the moment table of each model whose
    rows start at ``starts``: C = (4 pi / 3) sum_k p_k M_k axis_k lambda_k^T in
    the lower-right block of a 4x4 table, raveled to a row of 16. The moment
    M = 2 pi int clip(norm z, -1, 1) z dz is 4 pi norm / 3 up to norm 1, then
    2 pi (1 - 1/(3 norm^2)), and 2 pi for a sign (norm = inf); the tests check
    it against Gauss-Legendre on panels split at +-1/norm. So M axis is
    (2 pi - 2 pi / (3 u^2)) vector / u with u = max(norm, 1), 0 for a constant's
    zero vector, and 2 pi axis for a sign."""
    sign_gain = (4.0 * math.pi / 3.0) * (2.0 * math.pi)  # (4 pi / 3) M of a sign
    u = np.sqrt(np.maximum(np.add.reduce(vectors * vectors, 1), 1.0))
    gains = np.where(kinds == _SIGN, sign_gain, (sign_gain - (sign_gain / 3.0) / (u * u)) / u)
    terms = ((weights * gains)[:, None] * vectors)[:, :, None] * hidden[:, None, :]
    tables = np.zeros((len(starts), 16))
    tables.reshape(-1, 4, 4)[:, 1:, 1:] = np.add.reduceat(terms, starts)
    columns = (weights, hidden, kinds, vectors, values, tables)
    for column in columns:
        column.setflags(write=False)
    return columns


def _set_columns(model: HiddenStateModel, columns, moment) -> HiddenStateModel:
    """Give a model its columns and moment table: the one way both constructors
    fill one."""
    vars(model).update(zip(_COLUMNS, columns), moment=moment)
    return model


def ns_correlation_fn(model: HiddenStateModel):
    """E_NS = n . sum_k p_k I_k(m) lambda_k for 3-vectors or (N, 3) arrays m, n."""
    signs = np.count_nonzero(model.kinds == _SIGN)
    axial = np.argsort(model.kinds, kind="stable")[:np.count_nonzero(model.kinds != _CONSTANT)]
    vectors, hidden, weights = model.vectors[axial], model.hidden[axial], model.weights[axial]
    offset = model.values @ (model.weights[:, None] * model.hidden)  # the constants

    def ens(m, n):
        z = vectors @ np.asarray(m).T  # a row per axial component, signs first
        z[:signs] = np.sign(z[:signs])
        np.clip(z[signs:], -1.0, 1.0, out=z[signs:])
        z *= hidden @ np.asarray(n).T
        return weights @ z + n @ offset

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
    """(E_Q, E_NS) = <T, C>: one dot of the model's moment table with the
    tensor's. ``model_state_overlaps`` calls it per model, as a stacked
    product may round differently from the per-row dot."""
    return float(model.moment.dot(tensor.full.ravel()))


def model_state_overlaps(tensor, models: Sequence[HiddenStateModel]) -> list[float]:
    """(E_Q, E_NS) of each model, each by ``model_state_overlap``."""
    return [model_state_overlap(tensor, model) for model in models]


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


def random_model(rng: np.random.Generator) -> HiddenStateModel:
    """One random model: the one-model case of random_models."""
    return random_models(rng, 1)[0]


def random_models(rng: np.random.Generator, count: int) -> list[HiddenStateModel]:
    """``count`` random non-steering models for property testing.

    Component counts uniform in 1..MAX_COMPONENTS, flat simplex weights,
    uniform hidden states and responses drawn uniformly from the sign,
    clipped-linear (radius U(0.05, 2) on a uniform axis) and constant (+-1)
    kinds. The whole stack comes from one set of generator calls, and each
    model is a slice of one set of columns and a row of one set of moment
    tables. Broad enough to probe the bound, not exhaustive.
    """
    if count == 0:
        return []  # an empty draw leaves the generator as it was
    sizes = rng.integers(1, MAX_COMPONENTS + 1, size=count)
    stops = sizes.cumsum()
    starts, total = stops - sizes, int(stops[-1])
    weights = rng.standard_exponential(total)  # normalised per model: Dirichlet(1)
    weights /= np.add.reduceat(weights, starts).repeat(sizes)
    points = uniform_sphere(2 * total, rng)
    kind, radius, sign = rng.random((3, total)).tolist()  # U(0, 1) each
    if not (weights.min() >= 0.0  # NaN fails too
            and all(abs(total_weight - 1.0) <= WEIGHT_SUM_TOL
                    for total_weight in np.add.reduceat(weights, starts).tolist())):
        raise ValueError("weights are not finite, non-negative and summing to 1")
    defect = np.abs(np.sqrt(np.add.reduce(points * points, 1)) - 1.0).max()
    if not defect <= UNIT_NORM_TOL:
        raise ValueError(f"not a unit vector, |norm - 1| = {defect:.3e}")
    hidden, axes = points[:total], points[total:]
    rows = [(_SIGN, 1.0, 0.0) if k < 1.0 / 3.0
            else (_CLIPPED, 0.05 + 1.95 * r, 0.0) if k < 2.0 / 3.0
            else (_CONSTANT, 0.0, -1.0 if s < 0.5 else 1.0)
            for k, r, s in zip(kind, radius, sign)]
    kinds, scale, values = map(np.array, zip(*rows))
    *columns, tables = _columns(weights, hidden, kinds, scale[:, None] * axes, values, starts)
    return [_set_columns(object.__new__(HiddenStateModel), [c[start:stop] for c in columns],
                         moment)
            for start, stop, moment in zip(starts.tolist(), stops.tolist(), tables)]
