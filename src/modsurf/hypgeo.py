"""Hyperbolic geometry of the upper half-plane and the modular surface.

Points live in the upper half-plane with the Poincare metric
``ds^2 = (dx^2 + dy^2)/y^2``; the modular surface is the quotient by
SL(2, Z) acting through Mobius transformations.  This module provides the
distance, the point-pair invariant ``u = sinh^2(rho/2)``, reduction to the
standard fundamental domain, the quotient distance, cusp height, geodesic
polar coordinates, and an exact-in-measure quadrature grid over the
fundamental domain.

Reduction has one implementation, ``reduce_batch``, which works on
coordinate arrays and returns coordinates only; ``reduce`` wraps it for
one Point.

The orbit geometry has one array form, used by every module of the
package: ``mobius_image`` gives the image of a point array under a matrix
(a, b; c, d) in real arithmetic, ``pair_u`` gives the one point-pair
invariant u = sinh^2(rho/2), from which kernels and distances alike are
taken, and ``polar_image`` gives geodesic polar coordinates about i.
``surface_distance_matrix`` holds the only minimum over ``NEIGHBOR_MATS``, moving
the smaller point set; ``surface_distance_to_point`` and ``surface_distance`` wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

# Points with smaller imaginary part are treated as numerically degenerate.
MIN_HEIGHT = 1e-12

# Tolerance for the inversion test of the Gauss reduction.
_BOUNDARY_EPS = 1e-15

# Band around |z| = 1 where the reduction applies the x <= 0 tie-break of the arc;
# images of arc points under words of length 8 come back up to 1.8e-14 off it.
_ARC_EPS = 1e-13

_MAX_REDUCE_STEPS = 256


class DegeneratePointError(ValueError):
    """Raised when a point is too close to the real axis to reduce."""


@dataclass(frozen=True)
class Point:
    """A point x + iy of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0.0) or not math.isfinite(self.x) or not math.isfinite(self.y):
            raise ValueError(f"point must have finite coordinates and y > 0, got {self}")


@dataclass(frozen=True)
class UnimodularMatrix:
    """An integer matrix (a, b; c, d) with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"matrix {self} has determinant != 1")


def reduce(z: Point) -> Point:
    """The representative of z in the standard fundamental domain, by ``reduce_batch``."""
    x, y = reduce_batch([z.x], [z.y])
    return Point(float(x[0]), float(y[0]))


def canonical_sign(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The representative of the pair +-(a, b; c, d), which act identically."""
    return max((a, b, c, d), (-a, -b, -c, -d))


def _neighbor_tuples(bound: int = 2) -> list[tuple[int, int, int, int]]:
    """All unimodular matrices with entries in [-bound, bound], one per +-pair."""
    rng = range(-bound, bound + 1)
    return sorted({canonical_sign(a, b, c, d)
                   for a, b, c, d in product(rng, repeat=4) if a * d - b * c == 1})


NEIGHBOR_MATS = _neighbor_tuples(2)


def surface_distance(z: Point, w: Point) -> float:
    """Distance on the modular surface: min over gamma of rho(z, gamma w)."""
    rw = reduce(w)
    return float(surface_distance_to_point(np.array([rw.x]), np.array([rw.y]), z)[0])


def height(z: Point) -> float:
    """Cusp height Ht(z) = max over gamma of Im(gamma z); equals Im of reduce(z)."""
    return reduce(z).y


# ---------------------------------------------------------------------------
# Vectorised variants used by the quadrature and transport layers.


def reduce_batch(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one Gauss reduction: reduced coordinate arrays of the points xs + i ys.

    Alternates the translation normalising x into [-1/2, 1/2) with the
    inversion z -> -1/z while |z| < 1.  The boundary tie-break then sends
    x > 0 within ``_ARC_EPS`` of the unit circle to -x (applying S), so
    representatives are unique: -1/2 <= x < 1/2 and x^2 + y^2 >= 1, with
    x <= 0 on the unit-circle boundary arc.  Raises DegeneratePointError
    if some y < 1e-12 or the iteration fails to settle (input numerically
    on the real axis).
    """
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    if np.any(y < MIN_HEIGHT):
        raise DegeneratePointError(f"points with y below {MIN_HEIGHT} are numerically degenerate")
    x -= np.floor(x + 0.5)
    for _ in range(_MAX_REDUCE_STEPS):
        r2 = x * x + y * y
        inside = r2 < 1.0 - _BOUNDARY_EPS
        if not np.any(inside):
            break
        x = np.where(inside, -x / r2, x)
        y = np.where(inside, y / r2, y)
        # a reduced x is in [-1/2, 1/2), where the translation is 0
        x -= np.where(inside, np.floor(x + 0.5), 0.0)
    else:
        raise DegeneratePointError("reduction did not terminate")
    # on the arc S acts as the reflection x -> -x, keeping y and |z|^2; x < 1/2
    # already, as x - floor(x + 1/2) is exact, so -x lies in (-1/2, 0)
    arc = (r2 <= 1.0 + _ARC_EPS) & (x > 0.0)
    return np.where(arc, -x, x), y


def mobius_image(a, b, c, d, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Image (gx, gy) of the points xs + i ys under z -> (az + b)/(cz + d).

    Real arithmetic throughout; the matrix entries and the coordinates
    broadcast against each other.
    """
    den = c * xs + d
    den2 = den**2 + (c * ys) ** 2
    return ((a * xs + b) * den + a * c * ys**2) / den2, ys / den2


def polar_image(u, theta) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) at invariant u >= 0 from i in direction theta; u and theta broadcast."""
    s = 2.0 * np.sqrt(u * (u + 1.0))
    den = 1.0 + 2.0 * u + s * np.cos(theta)
    return s * np.sin(theta) / den, 1.0 / den


def pair_u(x1, y1, x2, y2):
    """u = |z - w|^2 / (4 Im z Im w) for z = x1 + i y1, w = x2 + i y2; broadcasts."""
    # (dx dx + dy dy) / ((4 y1) y2) in place on dy, made in the broadcast shape
    dx, dy = x1 - x2, np.subtract(y1, y2, out=np.empty(np.broadcast(x1, y1, x2, y2).shape))
    dy *= dy
    dy += dx * dx
    dy /= 4.0 * y1 * y2
    return dy[()]


def surface_distance_to_point(xs: np.ndarray, ys: np.ndarray, z0: Point) -> np.ndarray:
    """Vectorised surface distance from reduced points (xs, ys) to z0."""
    rz = reduce(z0)
    return surface_distance_matrix([rz.x], [rz.y], xs, ys)[0]


def surface_distance_matrix(xs1, ys1, xs2, ys2) -> np.ndarray:
    """All pairwise surface distances between two reduced atom sets, as an (m, n) C array.

    For fundamental-domain representatives the minimum of rho(z, gamma w)
    over SL(2, Z) is attained within ``NEIGHBOR_MATS``; it is taken over u,
    which rises with rho, one matrix at a time, so the working set is a
    single m x n slice.  As u(z, gamma w) = u(gamma^-1 z, w), with ``NEIGHBOR_MATS``
    closed under inversion up to sign, the smaller set moves, in one ``mobius_image``
    call: z by gamma^-1 = (d, -b; -c, a), or w by gamma.
    """
    xs1, ys1, xs2, ys2 = (np.asarray(v, dtype=float) for v in (xs1, ys1, xs2, ys2))
    a, b, c, d = np.array(NEIGHBOR_MATS, dtype=float).T[:, :, None, None]
    if len(xs1) <= len(xs2):
        zw = zip(*mobius_image(d, -b, -c, a, xs1[:, None], ys1[:, None]), repeat(xs2), repeat(ys2))
    else:
        zw = zip(repeat(xs1[:, None]), repeat(ys1[:, None]), *mobius_image(a, b, c, d, xs2, ys2))
    best = np.full((len(xs1), len(xs2)), np.inf)
    for x1, y1, x2, y2 in zw:
        # u stays bound until the next slice replaces it: freeing each slice
        # at once lets malloc hand its pages back and fault them in again,
        # which made 385 x 1201 about 1.6x slower
        u = pair_u(x1, y1, x2, y2)
        np.minimum(best, u, out=best)
    return 2.0 * np.arcsinh(np.sqrt(best))


def fundamental_domain_grid(
    n_x: int, n_levels: int, y_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-centred quadrature grid for the measure dmu = y^-2 dx dy.

    The fundamental domain below height ``y_max`` is tiled column by column
    in the coordinates (x, v) with v = 1/y, where dmu = dx dv exactly.  Each
    of the ``n_x`` columns carries its exact mu-mass (the arcsin antiderivative
    of the circular floor), split evenly over ``n_levels`` cells.

    Returns
    -------
    xs, ys, weights : ndarray
        Atom positions and their mu-weights; weights sum to pi/3 - 1/y_max
        up to rounding.
    """
    if y_max < 2.0:
        raise ValueError("y_max must be at least 2")
    edges = np.linspace(-0.5, 0.5, n_x + 1)
    col_mass = (np.arcsin(edges[1:]) - np.arcsin(edges[:-1])) - (edges[1:] - edges[:-1]) / y_max
    x_c = 0.5 * (edges[1:] + edges[:-1])
    v_top = 1.0 / np.sqrt(1.0 - x_c * x_c)
    v_lo = 1.0 / y_max
    k = (np.arange(n_levels) + 0.5) / n_levels
    v = v_lo + k[:, None] * (v_top[None, :] - v_lo)  # (n_levels, n_x)
    xs = np.broadcast_to(x_c[None, :], v.shape).ravel()
    ys = (1.0 / v).ravel()
    weights = np.broadcast_to(col_mass[None, :] / n_levels, v.shape).ravel()
    return xs.copy(), ys, weights
