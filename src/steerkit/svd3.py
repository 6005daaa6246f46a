"""Singular value decomposition of 3x3 real matrices with a fixed convention.

The factorization itself is LAPACK's, through ``np.linalg.svd``, which
returns descending singular values and full orthonormal bases and scales
inputs near the ends of the double range itself. This module fixes the
layout (input = u.T @ diag(sigma) @ v, singular vectors as rows) and the
sign convention: the largest-magnitude component of each left vector is
made positive, ties broken by lowest index, and the matching right vector
flips with it. The output is therefore a pure function of the input bytes
for a given numpy/LAPACK build, which the criterion verdicts rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COLUMNS = np.arange(3)


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """SVD triple with the convention  input = u.T @ diag(sigma) @ v.

    Rows of ``u`` are the left singular vectors, rows of ``v`` the right
    ones; ``sigma`` is descending and non-negative. svd3 builds it from
    the arrays LAPACK returned, made read-only, without copying them.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def t1(self) -> float:
        return float(self.sigma[0])

    @property
    def t2(self) -> float:
        return float(self.sigma[1])


def svd3(block) -> SchmidtForm:
    """Decompose a real 3x3 matrix as u.T @ diag(sigma) @ v."""
    g = np.asarray(block, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("matrix entries must be finite")

    left, sigma, v = np.linalg.svd(g)
    # The module's sign convention, on the columns of left (the left vectors).
    signs = np.copysign(1.0, left[np.abs(left).argmax(axis=0), _COLUMNS])
    left *= signs
    v *= signs[:, None]
    for a in (left, sigma, v):
        a.setflags(write=False)
    return SchmidtForm(u=left.T, sigma=sigma, v=v)
