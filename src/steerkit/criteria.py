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
critical noise has a closed form; families without that structure are
scanned and bisected instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .svd3 import SchmidtForm

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


# The ladder in order, as criterion: (c, d, s), with the bound
# c·||T||^2 + d and the margin s·(bound - lhs), positive when detected.
_LADDER = {
    Criterion.GEOMETRIC_ENTANGLEMENT: (1.0, 0.0, 1.0),
    Criterion.GEOMETRIC_STEERING: (2.0 / 3.0, 0.0, 1.0),
    Criterion.GEOMETRIC_BELL: (4.0 / 9.0, 0.0, 1.0),
    Criterion.CHSH_HORODECKI: (0.0, 1.0, -1.0),
}


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


def ladder(t1, t2, norm_sq) -> dict[Criterion, tuple]:
    """(lhs, bound, margin) of each criterion, in ladder order.

    The inputs are the two largest singular values and the squared norm,
    as floats or as arrays of one shape; the outputs follow suit.
    """
    rows = {}
    for criterion, (c, d, s) in _LADDER.items():
        lhs = t1 * t1 + t2 * t2 if criterion is Criterion.CHSH_HORODECKI else t1
        bound = c * norm_sq + d
        rows[criterion] = (lhs, bound, s * (bound - lhs))
    return rows


def _verdict(criterion: Criterion, lhs: float, bound: float, margin: float):
    return CriterionVerdict(
        criterion, lhs, bound, margin, margin > TIE_TOL, abs(margin) <= TIE_TOL
    )


def block_norm_sq(blocks) -> np.ndarray:
    """Squared Frobenius norms of a stack of 3x3 blocks (..., 3, 3)."""
    return np.sum(blocks * blocks, axis=(-2, -1))


def tensor_norm_sq(tensor) -> float:
    """Squared Frobenius norm of the 3x3 correlation block."""
    return float(block_norm_sq(tensor.block))


def all_criteria(schmidt: SchmidtForm, norm_sq: float) -> tuple[CriterionVerdict, ...]:
    """The four verdicts in ladder order: entanglement, steering, Bell, CHSH."""
    rows = ladder(schmidt.t1, schmidt.t2, float(norm_sq))
    return tuple(_verdict(c, *row) for c, row in rows.items())


def stack_ladder(blocks) -> tuple[np.ndarray, np.ndarray, dict]:
    """sigma (N, 3), norm_sq (N,) and the ladder of a stack of correlation
    blocks (N, 3, 3), from one SVD call."""
    sigma = np.linalg.svd(blocks, compute_uv=False)
    norm_sq = block_norm_sq(blocks)
    return sigma, norm_sq, ladder(sigma[:, 0], sigma[:, 1], norm_sq)


def stacked_verdicts(rows: dict) -> list[tuple[CriterionVerdict, ...]]:
    """The verdict tuple of each state, from a ladder evaluated on arrays."""
    per_criterion = [
        map(_verdict, [c] * len(row[0]), *(a.tolist() for a in row))
        for c, row in rows.items()
    ]
    return list(zip(*per_criterion))


def steering_criterion(schmidt: SchmidtForm, norm_sq: float) -> CriterionVerdict:
    return all_criteria(schmidt, norm_sq)[1]


def critical_noise(family: "NoiseFamily", criterion: Criterion) -> float:
    """Smallest v in [0, 1] at which the criterion detects.

    Raises NoDetection if the criterion never fires on [0, 1]. For a
    family that declares its pure state the block is v·T(1): a geometric
    lhs T1 scales as v against a bound c·||T||^2 that scales as v^2, and
    CHSH's lhs T1^2 + T2^2 scales as v^2 against a constant bound. The
    margin is then a·v^2 - b·v - c, detection is the interval above its
    root at TIE_TOL, and NoDetection means exactly that v = 1 does not
    detect. Other families are scanned and bisected to BISECTION_TOL.
    """
    if family.unit_block is None:
        return _bisect(family, criterion)
    _, _, rows = stack_ladder(family.unit_block[None])
    lhs, bound, margin = (float(a[0]) for a in rows[criterion])
    if not margin > TIE_TOL:
        raise NoDetection(f"{criterion.value} never detects on [0, 1]")
    if criterion is Criterion.CHSH_HORODECKI:
        a, b, c = lhs, 0.0, bound
    else:
        a, b, c = bound, lhs, 0.0
    c += TIE_TOL
    return min(1.0, (b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a))


def _bisect(family: "NoiseFamily", criterion: Criterion) -> float:
    """Critical noise of a family given only by ``state_at``.

    A coarse scan brackets the crossing and doubles as a monotonicity
    check; NonMonotone is raised if it sees detection switch off again at
    larger v.
    """
    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    _, _, rows = stack_ladder(family.blocks(grid))
    flags = (rows[criterion][2] > TIE_TOL).tolist()
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
        _, _, rows = stack_ladder(family.blocks([mid]))
        if rows[criterion][2][0] > TIE_TOL:
            hi = mid
        else:
            lo = mid
    return hi
