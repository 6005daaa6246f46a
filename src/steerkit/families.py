"""Built-in noise families and criterion sweeps over their parameter grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .criteria import CriterionVerdict, stack_ladder, stacked_verdicts
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


@dataclass(frozen=True)
class NoiseFamily:
    """One-parameter family v -> state, with any shape parameters fixed.

    A family v|psi><psi| + (1 - v) I/4 declares ``pure_state`` = psi. Its
    correlation block is then exactly v·T(1). Both endpoints are validated
    once, so every state between them is one by convexity, and T(1) is
    kept as ``unit_block``; sweeps and thresholds scale it instead of
    calling ``state_at``, which stays the reference for single states.
    """

    name: str
    description: str
    state_at: Callable[[float], DensityMatrix4]
    shape_parameters: Mapping[str, float] = field(default_factory=dict)
    pure_state: np.ndarray | None = field(default=None, repr=False, compare=False)
    unit_block: np.ndarray | None = field(
        init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.pure_state is None:
            return
        psi = np.array(self.pure_state, dtype=complex)
        psi.setflags(write=False)
        object.__setattr__(self, "pure_state", psi)
        _noisy_pure(psi, 0.0)
        unit = pauli_expansion(_noisy_pure(psi, 1.0))
        object.__setattr__(self, "unit_block", unit.block)

    def blocks(self, v_grid) -> np.ndarray:
        """Correlation blocks at each v of the grid, stacked as (N, 3, 3)."""
        v = np.asarray(v_grid, dtype=float).reshape(-1)
        if self.unit_block is not None:
            outside = v[~((0.0 <= v) & (v <= 1.0))]
            if outside.size:
                _check_noise(float(outside[0]))
            return v[:, None, None] * self.unit_block
        return np.array(
            [pauli_expansion(self.state_at(x)).block for x in v.tolist()]
        ).reshape(-1, 3, 3)


def werner_family() -> NoiseFamily:
    return NoiseFamily("werner", "singlet with white noise", werner,
                       pure_state=_SINGLET)


def noisy_schmidt_family(alpha: float) -> NoiseFamily:
    _check_alpha(alpha)
    return NoiseFamily(
        "noisy-schmidt",
        "partially entangled pure state with white noise",
        partial(noisy_schmidt, alpha),
        {"alpha": float(alpha)},
        _schmidt_vector(alpha),
    )


def family_from_name(name: str, alpha: float | None = None) -> NoiseFamily:
    if name == "werner":
        return werner_family()
    if name == "noisy-schmidt":
        if alpha is None:
            raise ParameterOutOfRange("noisy-schmidt needs an alpha value")
        return noisy_schmidt_family(alpha)
    raise ParameterOutOfRange(f"unknown family {name!r}")


@dataclass(frozen=True)
class SweepRecord:
    """Derived data for one grid point; recomputable from the parameters."""

    family: str
    parameters: Mapping[str, float]
    t1: float
    norm_sq: float
    verdicts: tuple[CriterionVerdict, ...]


def sweep(family: NoiseFamily, v_grid) -> list[SweepRecord]:
    """Evaluate all criteria on each grid point, ordered by parameters."""
    v = np.sort(np.fromiter(v_grid, dtype=float))
    sigma, norm_sq, rows = stack_ladder(family.blocks(v))
    return [
        SweepRecord(
            family=family.name,
            parameters={**family.shape_parameters, "v": x},
            t1=t1,
            norm_sq=n,
            verdicts=verdicts,
        )
        for x, t1, n, verdicts in zip(
            v.tolist(), sigma[:, 0].tolist(), norm_sq.tolist(),
            stacked_verdicts(rows))
    ]
