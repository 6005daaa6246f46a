"""Hidden-state models and their overlaps with a quantum correlation.

A non-steering (local-hidden-state) model assigns classical weights to
unit hidden Bloch vectors on Bob's side and bounded response functions to
Alice's settings. Its correlation function is

    E_NS(m, n) = sum_k p_k I_k(m) (n . lambda_k),   |I_k| <= 1.

A model is held as columns, a row per component whose response is a sign,
a clipped linear function or a constant; one check refuses any input that
is not such a model. Models are drawn a stack at a time.

E_Q(m, n) = m . T n lies in the span of the nine functions m_i n_j, so only
a model's moment matrix C = int int m n^T E_NS dm dn enters the overlap over
the product of Bloch spheres, which is <T, C>. The n-integral is
(4 pi / 3) lambda; sign and clipped responses share I(m) = clip(norm z, -1, 1),
z = m . axis (a sign is norm = inf), so the m-integral is M axis with
M = 2 pi int clip(norm z, -1, 1) z dz, and
C = (4 pi / 3) sum_k p_k M_k axis_k lambda_k^T (M = 0 for a constant). C is
taken in closed form when a model or stack is built, and an overlap is one
BLAS dot of its raveled table with the tensor's, so its last bits are those
of the numpy/BLAS build, as svd3's are. A stack of models takes one overlap
per model: a stacked product may round differently from the per-row dot.

Every bound is one duality. The moments of a model class X have trace norm
||C||_* <= kappa_X, and ||C||_* is the largest <W, C> over test tensors W
with top singular value sigma_1(W) <= 1 (von Neumann's trace inequality),
reached at the polar factor W = u^T v of C. So (E_W, E_X) <= kappa_X sigma_1(W)
for every W, with

    kappa_NS  = (4 pi / 3) 2 pi = 8 pi^2 / 3   non-steering: C above, |M| <= 2 pi
    kappa_LHV = (2 pi)^2 = 4 pi^2              local causal: C = sum p M_A M_B a b^T
    kappa_sep = (4 pi / 3)^2 = 16 pi^2 / 9     product states: C = (4 pi / 3)^2 sum p a b^T

A sign response on the top singular vectors of T attains kappa_NS T1, and
(E_Q, E_Q) is kappa_sep ||T||^2, so a class-X model of a state needs
T1 >= c_X ||T||^2 with c_X = kappa_sep / kappa_X: the ladder's factors 1,
2/3 and 4/9. ``ns_bound`` and ``lhv_bound`` read those factors from
``criteria`` at each call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import criteria
from .sphere import uniform_sphere
from .states import UNIT_NORM_TOL, correlation_fn
from .svd3 import SchmidtForm

WEIGHT_SUM_TOL = 1e-12
MAX_COMPONENTS = 8

_NORM_COEFF = 16.0 * math.pi ** 2 / 9.0
_MC_BLOCK = 2 ** 16


class DegenerateTensor(ValueError):
    """The correlation tensor has no usable top singular direction."""


# A model's rows as records, built only by ``HiddenStateModel.components`` from
# checked columns. The responses are I(m) = sign(m . axis), clip(m . vector,
# -1, 1), with kinks once |vector| > 1, and a constant value; a kind is the
# index of its record in ``_KINDS``.
SignResponse = NamedTuple("SignResponse", [("axis", np.ndarray)])
ClippedLinearResponse = NamedTuple("ClippedLinearResponse", [("vector", np.ndarray)])
ConstantResponse = NamedTuple("ConstantResponse", [("value", float)])
ModelComponent = NamedTuple("ModelComponent", [("weight", float), ("hidden_state", np.ndarray),
                                               ("response", object)])
_KINDS = (SignResponse, ClippedLinearResponse, ConstantResponse)
_SIGN, _CLIPPED, _CONSTANT = range(3)
_COLUMNS = ("weights", "hidden", "kinds", "vectors", "values")
# What ``_check`` measures of each row, and _LIMITS[0 least or 1 largest,
# measure, kind] its bounds. The sum of |entries| alone sees a constant's
# vector whose squares underflow; the sum of the weights is checked per model.
_MEASURES = ("weight", "hidden-state norm", "vector norm", "vector's sum of |entries|", "value")
_UNIT, _ZERO, _ANY = (1.0 - UNIT_NORM_TOL, 1.0 + UNIT_NORM_TOL), (0.0, 0.0), (0.0, math.inf)
_LIMITS = np.array([[_ANY, _UNIT, _UNIT, _ANY, _ZERO],  # sign
                    [_ANY, _UNIT, (0.0, 2.0 + 1e-12), _ANY, _ZERO],  # clipped
                    [_ANY, _UNIT, _ZERO, _ZERO, (-1.0, 1.0)]]).T  # constant


class HiddenStateModel:
    """Finite non-steering model as read-only columns, a row per component:
    ``weights``, ``hidden`` states, ``kinds`` (0 sign, 1 clipped, 2 constant),
    ``vectors`` (sign axis, clipped vector, else 0) and constant ``values``
    (else 0); ``moment`` is C in the lower-right block of a 4x4 table, raveled
    to 16 read-only entries. The columns are copied and checked as ``_check``
    says; ``components`` reads the rows back as records."""

    def __init__(self, weights, hidden, kinds, vectors, values):
        columns = [np.asarray(c) for c in (weights, hidden, kinds, vectors, values)]
        _check(*columns, starts=[0])
        # Copies, the kinds as integers and the rest as floats.
        columns = [c.astype(int if i == 2 else float) for i, c in enumerate(columns)]
        *columns, (moment,) = _columns(*columns, starts=[0])
        _set_columns(self, columns, moment)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: HiddenStateModel is immutable")

    @property
    def components(self) -> tuple[ModelComponent, ...]:
        rows = zip(self.weights.tolist(), self.hidden, self.kinds.tolist(),
                   self.vectors, self.values.tolist())
        return tuple(ModelComponent(w, h, _KINDS[k](c if k == _CONSTANT else v))
                     for w, h, k, v, c in rows)


def _check(weights, hidden, kinds, vectors, values, starts) -> None:
    """The one check of model input, for a model or a stack of models whose
    rows start at ``starts``. A complex column raises TypeError. ValueError
    unless the columns are (k,) and (k, 3) with k >= 1, the kinds integers 0,
    1 or 2, each row's measures within its kind's ``_LIMITS`` (hidden states
    and sign axes unit, a clipped vector at most 2 long, a constant's vector
    zero and its value in [-1, 1], any other row's value 0) and the weights
    non-negative and summing to 1 per model. NaN fails every comparison."""
    if np.result_type(weights, hidden, kinds, vectors, values).kind == "c":
        raise TypeError("model columns must be real")
    rows = weights.shape
    if not (len(rows) == 1 and rows[0] >= 1 and kinds.shape == values.shape == rows
            and hidden.shape == vectors.shape == (*rows, 3)):
        raise ValueError("model columns must be (k,) weights, kinds and values and"
                         " (k, 3) hidden states and vectors, k >= 1")
    # A negative kind cast to unsigned wraps far past 2.
    if kinds.dtype.kind not in "iu" or not np.maximum.reduce(kinds.astype(np.uintp)) <= 2:
        raise ValueError("kinds must be the integers 0 (sign), 1 (clipped) or 2 (constant)")
    both = np.concatenate((hidden, vectors))  # einsum's sums raise no overflow warning
    measures = np.concatenate((weights, np.sqrt(np.einsum("ij,ij->i", both, both)),
                               np.einsum("ij->i", abs(vectors)), values)).reshape(5, -1)
    low, high = _LIMITS.take(kinds, 2)
    inside = (low <= measures) & (measures <= high)
    if np.count_nonzero(inside) < inside.size:
        row, col = np.argwhere(~inside.T)[0]  # the first row that fails, its first measure
        bounds = (low[col, row].item(), high[col, row].item())
        raise ValueError(f"row {row} (kind {kinds[row]}): {_MEASURES[col]} "
                         f"{measures[col, row].item()!r}, " + (
                             "not a unit vector" if bounds == _UNIT
                             else f"outside [{bounds[0]!r}, {bounds[1]!r}]"))
    sums = np.add.reduceat(weights, starts).tolist()
    if not all(abs(total - 1.0) <= WEIGHT_SUM_TOL for total in sums):
        raise ValueError(f"weights sum to {sums!r} per model, expected 1")


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
    return _NORM_COEFF * criteria.tensor_norm_sq(tensor)


def ns_bound(schmidt: SchmidtForm) -> float:
    """Largest (E_Q, E_NS) over non-steering models: (8 pi^2 / 3) T1."""
    return _NORM_COEFF / criteria._GEOMETRIC[criteria.Criterion.GEOMETRIC_STEERING] * schmidt.t1


def lhv_bound(schmidt: SchmidtForm) -> float:
    """Counterpart bound for local hidden variable models: (2 pi)^2 T1."""
    return _NORM_COEFF / criteria._GEOMETRIC[criteria.Criterion.GEOMETRIC_BELL] * schmidt.t1


def saturating_model(schmidt: SchmidtForm) -> HiddenStateModel:
    """Single-component model that attains the non-steering bound.

    The hidden state is the top right singular vector and the response is
    the sign of the projection onto the top left singular vector.
    """
    if schmidt.t1 <= 1e-14:
        raise DegenerateTensor(f"top singular value {schmidt.t1!r} is negligible")
    return HiddenStateModel([1.0], [schmidt.v[0]], [_SIGN], [schmidt.u[0]], [0.0])


def model_state_overlap(tensor, model: HiddenStateModel) -> float:
    """(E_Q, E_NS) = <T, C>: one dot of the model's moment table with the
    tensor's."""
    return float(model.moment.dot(tensor.full.ravel()))


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
    rows = [(_SIGN, 1.0, 0.0) if k < 1.0 / 3.0
            else (_CLIPPED, 0.05 + 1.95 * r, 0.0) if k < 2.0 / 3.0
            else (_CONSTANT, 0.0, -1.0 if s < 0.5 else 1.0)
            for k, r, s in zip(kind, radius, sign)]
    kinds, scale, values = map(np.array, zip(*rows))
    columns = (weights, points[:total], kinds, scale[:, None] * points[total:], values)
    _check(*columns, starts)
    *columns, tables = _columns(*columns, starts)
    return [_set_columns(object.__new__(HiddenStateModel), [c[start:stop] for c in columns],
                         moment)
            for start, stop, moment in zip(starts.tolist(), stops.tolist(), tables)]
