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


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """SVD triple with the convention  input = u.T @ diag(sigma) @ v.

    Rows of ``u`` are the left singular vectors, rows of ``v`` the right
    ones; ``sigma`` is descending and non-negative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "sigma", "v"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def t1(self) -> float:
        return float(self.sigma[0])

    @property
    def t2(self) -> float:
        return float(self.sigma[1])

    @property
    def t3(self) -> float:
        return float(self.sigma[2])

    def reconstruct(self) -> np.ndarray:
        return self.u.T @ np.diag(self.sigma) @ self.v


def svd3(block) -> SchmidtForm:
    """Decompose a real 3x3 matrix as u.T @ diag(sigma) @ v."""
    g = np.array(block, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")

    left, sigma, v = np.linalg.svd(g)
    u = left.T
    lead = np.argmax(np.abs(u), axis=1)
    signs = np.where(u[np.arange(3), lead] < 0.0, -1.0, 1.0)[:, None]
    return SchmidtForm(u=signs * u, sigma=sigma, v=signs * v)
