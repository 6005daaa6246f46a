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

The ladder is evaluated once, as margins on arrays of singular values and
norms, for one state or a whole stack of them. Along a family whose
correlation block is v·T(1), every margin is a quadratic in v, so the
critical noise has a closed form.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .families import NoiseFamily

TIE_TOL = 1e-12
# Accuracy that critical_noise promises for a threshold. The closed form
# meets it with many digits to spare.
BISECTION_TOL = 1e-9


class Criterion(Enum):
    GEOMETRIC_ENTANGLEMENT = "entanglement"
    GEOMETRIC_STEERING = "steering"
    GEOMETRIC_BELL = "bell"
    CHSH_HORODECKI = "chsh"


_GEOMETRIC = {
    Criterion.GEOMETRIC_ENTANGLEMENT: 1.0,
    Criterion.GEOMETRIC_STEERING: 2.0 / 3.0,
    Criterion.GEOMETRIC_BELL: 4.0 / 9.0,
}


class NoDetection(Exception):
    """The criterion never detects on the parameter interval [0, 1]."""


def ladder(t1, t2, norm_sq) -> dict[Criterion, tuple]:
    """(lhs, bound, margin) of each criterion, in ladder order.

    The inputs are the two largest singular values and the squared norm,
    as floats or as arrays of one shape; the outputs follow suit. The
    margin is signed, positive when detected: bound - lhs for the
    geometric criteria and lhs - bound for CHSH.
    """
    rows = {}
    for criterion, c in _GEOMETRIC.items():
        bound = c * norm_sq
        rows[criterion] = (t1, bound, bound - t1)
    chsh = t1 * t1 + t2 * t2
    # 0·||T||^2 gives the bound the shape of the inputs.
    rows[Criterion.CHSH_HORODECKI] = (chsh, 0.0 * norm_sq + 1.0, chsh - 1.0)
    return rows


def detected(margin):
    """A margin beyond the tie tolerance is a detection (float or array)."""
    return margin > TIE_TOL


def boundary(margin):
    """A margin within the tie tolerance is a tie, not a detection."""
    return abs(margin) <= TIE_TOL


def block_norm_sq(blocks) -> np.ndarray:
    """Squared Frobenius norms of a stack of 3x3 blocks (..., 3, 3)."""
    return (blocks * blocks).sum(axis=(-2, -1))


def tensor_norm_sq(tensor) -> float:
    """Squared Frobenius norm of the 3x3 correlation block."""
    return float(block_norm_sq(tensor.block))


def critical_noise(family: "NoiseFamily", criterion: Criterion) -> float:
    """Smallest v in [0, 1] at which the criterion detects.

    Raises NoDetection if the criterion never fires on [0, 1]. The block
    is v·T(1), whose spectrum and norm the family took when it was built:
    a geometric lhs T1 scales as v against a bound c·||T||^2 that scales
    as v^2, and CHSH's lhs T1^2 + T2^2 scales as v^2 against a constant
    bound. The margin is then a·v^2 - b·v - c, detection is the interval
    above its root at TIE_TOL, and NoDetection means exactly that v = 1
    does not detect.
    """
    t1, t2, _ = family.unit_sigma.tolist()
    lhs, bound, margin = ladder(t1, t2, family.unit_norm_sq)[criterion]
    if not detected(margin):
        raise NoDetection(f"{criterion.value} never detects on [0, 1]")
    if criterion is Criterion.CHSH_HORODECKI:
        a, b, c = lhs, 0.0, bound
    else:
        a, b, c = bound, lhs, 0.0
    c += TIE_TOL
    return min(1.0, (b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a))
