"""Quadrature on the unit sphere and on products of two spheres.

Grids are tensor products of Gauss-Legendre in cos(theta) with a uniform
periodic rule in phi of n_phi = 2*n_theta points, so every spherical
polynomial of total degree up to 2*n_theta - 1 integrates exactly. The
polar range can be split into panels at cos(theta) breakpoints, which
restores exactness for integrands with kinks or jumps on latitude circles.
Each call builds a fresh rule whose arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Immutable quadrature rule: unit points (n, 3) and solid-angle weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("points", "weights"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        defect = abs(float(self.weights.sum()) - FOUR_PI)
        if defect > 1e-12:
            raise ValueError(f"weights sum to 4*pi with defect {defect:.3e}")

    def __len__(self) -> int:
        return len(self.weights)


def sphere_grid(n_theta: int, breakpoints=()) -> SphereGrid:
    """Product quadrature rule on the unit sphere.

    ``breakpoints`` lists cos(theta) values in (-1, 1) at which the polar
    interval is split into separate Gauss-Legendre panels of order
    ``n_theta`` each; (0.0,) gives the hemispherical split.
    """
    bps = sorted(float(b) for b in breakpoints)
    if n_theta < 1:
        raise ValueError("n_theta must be at least 1")
    if any(not -1.0 < b < 1.0 for b in bps):
        raise ValueError("breakpoints must lie strictly inside (-1, 1)")
    # One row of n_theta Gauss-Legendre nodes and weights per panel.
    edges = np.array((-1.0, *bps, 1.0))
    x, w = np.polynomial.legendre.leggauss(n_theta)  # numpy.polynomial loads on first use
    half = (0.5 * np.diff(edges))[:, None]
    u, wu = half * x + (0.5 * (edges[1:] + edges[:-1]))[:, None], half * w
    n_phi = 2 * n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dphi = 2.0 * np.pi / n_phi
    # np.outer and np.repeat flatten the (panels, n_theta) rows in order.
    sin_theta = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    px = np.outer(sin_theta, np.cos(phi)).ravel()
    py = np.outer(sin_theta, np.sin(phi)).ravel()
    points = np.column_stack([px, py, np.repeat(u, n_phi)])
    return SphereGrid(points, np.repeat(wu * dphi, n_phi))


def integrate(grid: SphereGrid, f) -> float | np.ndarray:
    """Integrate f, mapping (n, 3) points to (n, ...) values, over the sphere: a
    scalar integrand gives a float, an array-valued one its array of integrals."""
    values = np.asarray(f(grid.points), dtype=float)
    integral = (grid.weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values).sum(axis=0)
    return float(integral) if values.ndim == 1 else integral


def inner_product(f, g, grid: SphereGrid) -> float:
    """Scalar product (f, g) = integral of f*g over the product of spheres.

    f and g take paired point arrays (m, n), each of shape (k, 3); the
    same rule serves both spheres.
    """
    m = np.repeat(grid.points, len(grid), axis=0)
    n = np.tile(grid.points, (len(grid), 1))
    w = np.repeat(grid.weights, len(grid)) * np.tile(grid.weights, len(grid))
    values = np.asarray(f(m, n), dtype=float) * np.asarray(g(m, n), dtype=float)
    return float((w * values).sum())


def uniform_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly on the unit sphere."""
    v = rng.normal(size=(n, 3))
    return v / np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))  # np.linalg.norm, inlined
