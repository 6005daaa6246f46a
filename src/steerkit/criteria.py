"""Entanglement, steering and Bell criteria from the correlation tensor.

All three geometric criteria compare the largest singular value T1 of the
correlation tensor against a multiple of its squared Frobenius norm:

    entanglement detected  if T1 < ||T||^2
    steering detected      if T1 < (2/3) ||T||^2
    Bell (no LHV) detected if T1 < (4/9) ||T||^2

Each is sufficient only, so a negative verdict is inconclusive, never a
proof of separability or of a local model. The two-setting CHSH check
T1^2 + T2^2 > 1 is included for comparison. Ties within 1e-12 of a bound
are reported as boundary and not counted as detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .states import pauli_expansion
from .svd3 import SchmidtForm, svd3

if TYPE_CHECKING:
    from .families import NoiseFamily

TIE_TOL = 1e-12
BISECTION_TOL = 1e-9
SCAN_POINTS = 17


class Criterion(Enum):
    GEOMETRIC_ENTANGLEMENT = "entanglement"
    GEOMETRIC_STEERING = "steering"
    GEOMETRIC_BELL = "bell"
    CHSH_HORODECKI = "chsh"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion.

    ``margin`` is the signed detection margin: positive beyond the tie
    tolerance means detected. For the geometric criteria it equals
    bound - lhs; for CHSH, whose comparison runs the other way, it is
    lhs - bound.
    """

    criterion: Criterion
    lhs: float
    bound: float
    margin: float
    detected: bool
    boundary: bool


class NoDetection(Exception):
    """The criterion never detects on the parameter interval [0, 1]."""


class NonMonotone(Exception):
    """Detection along the family is not an interval; bisection invalid."""


def _verdict(criterion: Criterion, lhs: float, bound: float, invert: bool = False):
    margin = (lhs - bound) if invert else (bound - lhs)
    return CriterionVerdict(
        criterion=criterion,
        lhs=lhs,
        bound=bound,
        margin=margin,
        detected=margin > TIE_TOL,
        boundary=abs(margin) <= TIE_TOL,
    )


def tensor_norm_sq(tensor) -> float:
    """Squared Frobenius norm of the 3x3 correlation block."""
    return float(np.sum(tensor.block * tensor.block))


def entanglement_criterion(schmidt: SchmidtForm, norm_sq: float) -> CriterionVerdict:
    return _verdict(Criterion.GEOMETRIC_ENTANGLEMENT, schmidt.t1, norm_sq)


def steering_criterion(schmidt: SchmidtForm, norm_sq: float) -> CriterionVerdict:
    return _verdict(Criterion.GEOMETRIC_STEERING, schmidt.t1, (2.0 / 3.0) * norm_sq)


def bell_criterion(schmidt: SchmidtForm, norm_sq: float) -> CriterionVerdict:
    return _verdict(Criterion.GEOMETRIC_BELL, schmidt.t1, (4.0 / 9.0) * norm_sq)


def chsh_criterion(schmidt: SchmidtForm) -> CriterionVerdict:
    lhs = schmidt.t1 ** 2 + schmidt.t2 ** 2
    return _verdict(Criterion.CHSH_HORODECKI, lhs, 1.0, invert=True)


def all_criteria(schmidt: SchmidtForm, norm_sq: float) -> tuple[CriterionVerdict, ...]:
    """The four verdicts in ladder order: entanglement, steering, Bell, CHSH."""
    return (
        entanglement_criterion(schmidt, norm_sq),
        steering_criterion(schmidt, norm_sq),
        bell_criterion(schmidt, norm_sq),
        chsh_criterion(schmidt),
    )


def _detects(family: "NoiseFamily", criterion: Criterion, v: float) -> bool:
    tensor = pauli_expansion(family.state_at(v))
    verdicts = all_criteria(svd3(tensor.block), tensor_norm_sq(tensor))
    return next(v for v in verdicts if v.criterion is criterion).detected


def critical_noise(family: "NoiseFamily", criterion: Criterion) -> float:
    """Smallest v in [0, 1] at which the criterion detects, by bisection.

    A coarse scan brackets the crossing and doubles as a monotonicity
    check: built-in families have tensors linear in v, so the detection
    set is an interval ending at 1. Raises NoDetection if the criterion
    never fires on [0, 1] and NonMonotone if the scan sees detection
    switch off again at larger v.
    """
    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    flags = [_detects(family, criterion, float(v)) for v in grid]
    if not any(flags):
        raise NoDetection(f"{criterion.value} never detects on [0, 1]")
    first = flags.index(True)
    if not all(flags[first:]):
        raise NonMonotone(
            f"{criterion.value} detection is not an interval along {family.name}"
        )
    if first == 0:
        return 0.0
    lo = float(grid[first - 1])
    hi = float(grid[first])
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _detects(family, criterion, mid):
            hi = mid
        else:
            lo = mid
    return hi
