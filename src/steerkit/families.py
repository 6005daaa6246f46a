"""Built-in noise families and criterion sweeps over their parameter grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .criteria import block_norm_sq, ladder
from .states import DensityMatrix4, pauli_expansion, validate_state


class ParameterOutOfRange(ValueError):
    pass


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_IDENTITY4 = np.eye(4, dtype=complex)


def _check_noise(v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ParameterOutOfRange(f"v = {v!r} outside [0, 1]")


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= math.pi:
        raise ParameterOutOfRange(f"alpha = {alpha!r} outside [0, pi]")


def _noisy_pure(psi: np.ndarray, v: float) -> DensityMatrix4:
    rho = v * np.outer(psi, psi.conj()) + (1.0 - v) * _IDENTITY4 / 4.0
    return validate_state(rho)


def _schmidt_vector(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    return np.array([0.0, s, -c, 0.0], dtype=complex)


def werner(v: float) -> DensityMatrix4:
    """Singlet mixed with white noise; correlation block diag(-v, -v, -v).

    The parameter is restricted to [0, 1] even though slightly negative
    values would still give valid states.
    """
    _check_noise(v)
    return _noisy_pure(_SINGLET, v)


def noisy_schmidt(alpha: float, v: float) -> DensityMatrix4:
    """White-noise admixture of sin(a/2)|01> - cos(a/2)|10>.

    This is the singlet-like transform of the Schmidt state
    cos(a/2)|00> + sin(a/2)|11>; its correlation block is
    diag(-v sin a, -v sin a, -v).
    """
    _check_alpha(alpha)
    _check_noise(v)
    return _noisy_pure(_schmidt_vector(alpha), v)


@dataclass(frozen=True, eq=False)
class NoiseFamily:
    """One-parameter family v -> v|psi><psi| + (1 - v) I/4, with any shape
    parameters fixed.

    The family declares ``pure_state`` = psi, so its correlation block is
    exactly v·T(1). Both endpoints are validated once, so every state
    between them is one by convexity. T(1) is kept as ``unit_block``, with
    its singular values ``unit_sigma`` and squared norm ``unit_norm_sq``;
    sweeps and thresholds scale these instead of calling ``state_at``,
    which stays the reference for single states. Compared by identity.
    """

    name: str
    state_at: Callable[[float], DensityMatrix4]
    pure_state: np.ndarray = field(repr=False)
    shape_parameters: Mapping[str, float] = field(default_factory=dict)
    unit_block: np.ndarray = field(init=False, repr=False)
    unit_sigma: np.ndarray = field(init=False, repr=False)
    unit_norm_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        psi = np.array(self.pure_state, dtype=complex)
        psi.setflags(write=False)
        object.__setattr__(self, "pure_state", psi)
        _noisy_pure(psi, 0.0)
        block = pauli_expansion(_noisy_pure(psi, 1.0)).block
        sigma = np.linalg.svd(block, compute_uv=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "unit_block", block)
        object.__setattr__(self, "unit_sigma", sigma)
        object.__setattr__(self, "unit_norm_sq", float(block_norm_sq(block)))


def werner_family() -> NoiseFamily:
    return NoiseFamily("werner", werner, _SINGLET)


def noisy_schmidt_family(alpha: float) -> NoiseFamily:
    _check_alpha(alpha)
    return NoiseFamily(
        "noisy-schmidt",
        partial(noisy_schmidt, alpha),
        _schmidt_vector(alpha),
        {"alpha": float(alpha)},
    )


FAMILY_NAMES = ("werner", "noisy-schmidt")  # the names family_from_name takes


def family_from_name(name: str, alpha: float | None = None) -> NoiseFamily:
    if name == "werner":
        if alpha is not None:
            raise ParameterOutOfRange("werner takes no alpha value")
        return werner_family()
    if name == "noisy-schmidt":
        if alpha is None:
            raise ParameterOutOfRange("noisy-schmidt needs an alpha value")
        return noisy_schmidt_family(alpha)
    raise ParameterOutOfRange(f"unknown family {name!r}")


@dataclass(frozen=True, eq=False)
class Sweep:
    """A sweep as columns, one entry per grid point in ascending ``v``.

    ``sigma`` (N, 3) holds the singular values, ``norm_sq`` the squared
    norms and ``rows`` the ladder, criterion -> (lhs, bound, margin), each
    an array of length N.
    """

    v: np.ndarray
    sigma: np.ndarray
    norm_sq: np.ndarray
    rows: dict

    def __len__(self) -> int:
        return len(self.v)


def sweep(family: NoiseFamily, v_grid) -> Sweep:
    """Evaluate all criteria on each grid point, in ascending v."""
    v = np.sort(np.fromiter(v_grid, dtype=float))
    outside = v[~((0.0 <= v) & (v <= 1.0))]
    if outside.size:
        _check_noise(float(outside[0]))
    # sigma(v·T(1)) = v·sigma(T(1)); v*v*unit_norm_sq would round apart.
    sigma = v[:, None] * family.unit_sigma
    norm_sq = block_norm_sq(v[:, None, None] * family.unit_block)
    return Sweep(v, sigma, norm_sq, ladder(sigma[:, 0], sigma[:, 1], norm_sq))
