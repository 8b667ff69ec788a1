"""Gaussian test-function pair, automorphic kernel, and mollifier.

The spectral test function is h(t) = exp(-(t^2 + 1/4)/(2 T^2)); its inverse
transform k is evaluated on the geodesic scale by the closed-form route

    k(sinh^2(rho/2)) = (1/4 pi^2) int_rho^inf  I(v) / sqrt(sinh^2(v/2) -
                        sinh^2(rho/2)) dv,

where I(v) is the Gaussian inner sine integral.  The square-root endpoint
singularity is removed by v = rho + s^2 together with the identity
sinh^2 A - sinh^2 B = sinh(A+B) sinh(A-B), which is cancellation-free.
A second, independent route integrates the spectral definition against the
conical function; the two are compared in the tests.

The automorphic kernel sums k over the group elements whose tiles meet the
hyperbolic ball where k is above the truncation threshold; ``ball_tiles``
lists them in closed form from the bottom rows of gamma^-1.  Both kernel
sums take u(z, gamma w) = u(gamma^-1 z, w): one ``mobius_image`` call gives
the preimages gamma^-1 z, with gamma^-1 = (d, -b; -c, a), and ``pair_u``
pairs them with w.  The surface mass evaluates each tile only on the grid
nodes inside the ball around its preimage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._gl import gl_panels
from .hypgeo import Point, fundamental_domain_grid, mobius_image, pair_u, polar_image, reduce
from .specfun import conical_p

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# k is truncated where it falls below this fraction of k(0).
_CUTOFF_REL = 1e-14

_TABLE_POINTS = 6000
_TABLE_BLOCK = 256  # table rows per k_of_rho call, bounding its (rows x nodes) temporaries

# Gauss-Legendre (panels, nodes per panel) of the fixed quadratures: the
# inner integral of k_of_rho, the rho-integrals of the transform identities
# and of kernel_mass_on_surface's dropped tail, and the t-integral of the
# spectral route.
_K_INNER_NODES = (10, 24)
_MASS_NODES = (12, 24)
_FORWARD_NODES = (10, 24)
_TAIL_NODES = (6, 24)
_SPECTRAL_NODES = (24, 24)


class TruncationWarning(RuntimeWarning):
    """Group-sum truncation may have dropped terms above tolerance."""


def h_test(t, T: float):
    """Test function h(t) = exp(-(t^2 + 1/4) / (2 T^2)) at bandwidth T, over an array of t.

    Defined for real t and for purely imaginary t = i sigma with
    |sigma| <= 1/2; in both cases the value is real and positive, and
    h(i/2) = 1.  A scalar t gives a float.
    """
    t = np.asarray(t, dtype=complex)
    if np.any((t.imag != 0.0) & ((np.abs(t.real) > 1e-12) | (np.abs(t.imag) > 0.5 + 1e-12))):
        raise ValueError("t must be real or in i(-1/2, 1/2]")
    h = np.exp(-(t.real * t.real - t.imag * t.imag + 0.25) / (2.0 * T * T))
    return h if h.ndim else float(h)


def inner_sine_integral(v: float | np.ndarray, T: float):
    """Closed form of int h(t) t sin(tv) dt: sqrt(2 pi) T^3 e^{-1/8T^2} v e^{-T^2 v^2/2}."""
    v = np.asarray(v, dtype=float)
    out = _SQRT_2PI * T**3 * math.exp(-1.0 / (8.0 * T * T)) * v * np.exp(-0.5 * T * T * v * v)
    return out if out.ndim else float(out)


def k_of_rho(rhos: np.ndarray, T: float) -> np.ndarray:
    """Inverse-transform kernel on the geodesic scale, k(sinh^2(rho/2)).

    Vectorised closed-form route; exact to roughly quadrature precision
    (the integrand is analytic after the substitution).
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    # inner integral support: T^2 v^2 / 2 within ~45 of its minimum
    v_max = np.sqrt(rhos * rhos + 90.0 / (T * T))
    s_max = np.sqrt(v_max - rhos)
    x, w = gl_panels(0.0, 1.0, *_K_INNER_NODES)
    s = s_max[:, None] * x[None, :]
    ww = s_max[:, None] * w[None, :]
    s2 = s * s
    v = rhos[:, None] + s2
    inner = inner_sine_integral(v, T)
    integ = inner * 2.0 * s / np.sqrt(np.sinh(rhos[:, None] + 0.5 * s2) * np.sinh(0.5 * s2))
    # s -> 0 limit is finite; the node set never contains s = 0 exactly
    return (ww * integ).sum(axis=1) / (4.0 * math.pi**2)


def k_kernel(u: float, params: "TransformParams") -> float:
    """k(u) by the closed-form route; nonnegative, supported numerically on u <= u_cutoff."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    rho = 2.0 * math.asinh(math.sqrt(u))
    return float(k_of_rho(np.array([rho]), params.T)[0])


def k_kernel_spectral(u: float, params: "TransformParams") -> float:
    """k(u) by direct quadrature of the spectral definition.

    Integrates h(t) P_{-1/2+it}(1+2u) t tanh(pi t) over the real line;
    independent of the closed-form route and used to validate it.
    """
    T = params.T
    t_hi = 9.2 * T + 3.0
    t, w = gl_panels(0.0, t_hi, *_SPECTRAL_NODES)
    integrand = h_test(t, T) * conical_p(t, u) * t * np.tanh(math.pi * t)
    # even integrand: twice the half-line integral, over 4 pi
    return float((w * integrand).sum() * 2.0 / (4.0 * math.pi))


@dataclass(frozen=True)
class TransformParams:
    """Bandwidth T; u_cutoff, the 1e-14 relative decay point of k, comes from its table."""

    T: float
    u_cutoff: float = field(init=False)

    def __post_init__(self):
        if self.T < 1.0:
            raise ValueError("bandwidth T must be at least 1")
        object.__setattr__(self, "u_cutoff", _kernel_table(self.T).u_cutoff)

    @classmethod
    def default(cls, T: float) -> "TransformParams":
        """The parameters of bandwidth T; the same as ``TransformParams(T)``."""
        return cls(T)


class _KernelTable:
    """Dense tabulation of k on the geodesic scale for fast interpolation."""

    def __init__(self, T: float):
        rho_max = 12.0 / T + 3.0
        self.rho = np.linspace(0.0, rho_max, _TABLE_POINTS)
        self.k = np.concatenate([k_of_rho(self.rho[i:i + _TABLE_BLOCK], T)
                                 for i in range(0, _TABLE_POINTS, _TABLE_BLOCK)])
        self.k0 = float(self.k[0])
        self.u_cutoff = float(math.sinh(0.5 * self.rho_at_level(_CUTOFF_REL)) ** 2)

    def eval_u(self, u: np.ndarray) -> np.ndarray:
        rho = 2.0 * np.arcsinh(np.sqrt(np.maximum(u, 0.0)))
        return np.interp(rho, self.rho, self.k, right=0.0)

    def rho_at_level(self, rel: float) -> float:
        """Smallest tabulated rho with k(rho) < rel * k(0)."""
        below = np.nonzero(self.k < rel * self.k0)[0]
        return float(self.rho[below[0]]) if len(below) else float(self.rho[-1])


@lru_cache(maxsize=16)
def _kernel_table(T: float) -> _KernelTable:
    return _KernelTable(T)


# ---------------------------------------------------------------------------
# Transform identities


def _weighted_k(T: float, lo: float, hi: float, nodes: tuple[int, int]):
    """Gauss-Legendre nodes rho on [lo, hi] with weight times k(rho) at each node."""
    rho, w = gl_panels(lo, hi, *nodes)
    return rho, w * k_of_rho(rho, T)


def kernel_mass_integral(params: "TransformParams") -> float:
    """4 pi int_0^inf k(u) du, evaluated on the geodesic scale; equals h(i/2) = 1."""
    rho, wk = _weighted_k(params.T, 0.0, 10.0 / params.T + 2.5, _MASS_NODES)
    return float(4.0 * math.pi * (wk * 0.5 * np.sinh(rho)).sum())


def forward_transform(t, params: "TransformParams"):
    """h(t) recovered as 4 pi int k(u) P_{-1/2+it}(1+2u) du, over an array of t (round trip)."""
    rho, wk = _weighted_k(params.T, 0.0, 10.0 / params.T + 2.5, _FORWARD_NODES)
    p = conical_p(np.asarray(t, dtype=float)[..., None], np.sinh(0.5 * rho) ** 2)
    out = 4.0 * math.pi * (wk * p * 0.5 * np.sinh(rho)).sum(axis=-1)
    return out if out.ndim else float(out)


def arsinh_moment(params: "TransformParams") -> tuple[float, float]:
    """Moment int k(u) arsinh(sqrt u) du and its analytic Gaussian majorant.

    The moment equals (1/4) int k(sinh^2(rho/2)) rho sinh(rho) drho.  The
    majorant (1/pi^{3/2}) e^{-1/8T^2} int v^2 e^{-v^2} sinh(v/sqrt2 T) dv
    comes from bounding the inner arc integral by v sinh(v/2), scaled
    consistently with the unit-mass normalisation of k; it dominates the
    moment for every T >= 1 and is O(1/T).
    """
    T = params.T
    rho, wk = _weighted_k(T, 0.0, 10.0 / T + 2.5, _MASS_NODES)
    moment = float((wk * 0.25 * rho * np.sinh(rho)).sum())
    v, wv = gl_panels(0.0, 9.0, 8, 24)
    integ = v * v * np.exp(-v * v) * np.sinh(v / (math.sqrt(2.0) * T))
    majorant = float(
        (wv * integ).sum() * math.exp(-1.0 / (8.0 * T * T)) / math.pi**1.5
    )
    return moment, majorant


# ---------------------------------------------------------------------------
# Group enumeration and the automorphic kernel

_MAX_TILES = 600_000
_TILE_MARGIN = 1e-12  # relative widening of ball_tiles' two bounds, far above their rounding


def ball_tiles(z: Point, rho_ball: float) -> np.ndarray:
    """Matrices gamma (one per +-pair) whose tile gamma F may meet the ball B(z, rho_ball).

    gamma F meets B(z, rho) only if F (|x| <= 1/2, y >= sqrt(3)/2) meets
    B(w, rho), w = gamma^-1 z = x0 + i y0, which spans x0 +- y0 sinh rho and
    reaches up to y0 e^rho.  So the bottom row (r, s) of gamma^-1, taken with
    r > 0 or as (0, 1), has |rz + s|^2 = Im z / y0 <= (2/sqrt 3) Im z e^rho;
    with p = s^-1 mod r, q = (ps - 1)/r, gamma^-1 = T^n (p, q; r, s) has
    |x0 + n| <= 1/2 + y0 sinh rho.  Both bounds are widened by
    ``_TILE_MARGIN``, so every tile meeting the ball is listed.  Returns an
    integer array of shape (n, 4), cut at ``_MAX_TILES`` rows with a
    TruncationWarning.
    """
    row_max = 2.0 / math.sqrt(3.0) * z.y * math.exp(rho_ball) * (1.0 + _TILE_MARGIN)
    s_max = int(math.sqrt(row_max) * (1.0 + abs(z.x) / z.y)) + 1
    r, s = np.mgrid[0:int(math.sqrt(row_max) / z.y) + 1, -s_max:s_max + 1].reshape(2, -1)
    keep = (((r * z.x + s) ** 2 + (r * z.y) ** 2 <= row_max) & (np.gcd(r, s) == 1)
            & ((r > 0) | (s == 1)))
    r, s = r[keep], s[keep]
    p = np.array([pow(b, -1, a) if a else 1 for a, b in zip(r.tolist(), s.tolist())], dtype=int)
    q = (p * s - 1) // np.maximum(r, 1)

    x0, y0 = mobius_image(p, q, r, s, z.x, z.y)
    half = (0.5 + y0 * math.sinh(rho_ball)) * (1.0 + _TILE_MARGIN)
    n_lo = np.ceil(-x0 - half).astype(np.int64)
    count = np.floor(-x0 + half).astype(np.int64) - n_lo + 1
    if count.sum() > _MAX_TILES:
        warnings.warn("tile enumeration hit its size cap; kernel sum may be truncated",
                      TruncationWarning, stacklevel=2)
        count = np.clip(_MAX_TILES - (np.cumsum(count) - count), 0, count)
    j = np.repeat(np.arange(len(count)), count)
    n = n_lo[j] + np.arange(len(j)) - (np.cumsum(count) - count)[j]
    # canonical_sign's representative: gamma's first entry s leads, and s = 0 only with b = 1
    p, q, r, s = np.where(s < 0, -1, 1)[j] * np.array([p, q, r, s])[:, j]
    return np.stack([s, -q - n * s, -r, p + n * r], axis=1)


def automorphic_kernel(z: Point, w: Point, params: "TransformParams") -> float:
    """Automorphic kernel K(z, w) = sum over gamma of k(u(z, gamma w)).

    The sum runs over one representative per +-pair (the two signs act
    identically), truncated to u <= params.u_cutoff; with the default
    cutoff the dropped terms are below 1e-14 of k(0) each.
    """
    tab = _kernel_table(params.T)
    zr = reduce(z)
    wr = reduce(w)
    a, b, c, d = ball_tiles(zr, 2.0 * math.asinh(math.sqrt(params.u_cutoff))).T
    # u(z, gamma w) = u(gamma^-1 z, w), with gamma^-1 = (d, -b; -c, a)
    u = pair_u(*mobius_image(d, -b, -c, a, zr.x, zr.y), wr.x, wr.y)
    u = u[u <= params.u_cutoff]
    return float(tab.eval_u(u).sum())


# Relative widening of u_lim for the nodes kernel_mass_on_surface selects, far
# above the rounding of either route, so no node with u <= u_lim is missed.
_SELECT_MARGIN = 1e-9
# kernel_mass_on_surface's grid top, and the level of k, relative to k(0),
# below which a tile is dropped
_Y_CUT = 50.0
_TILE_LEVEL = 1e-8


def kernel_mass_on_surface(
    z: Point,
    params: "TransformParams",
    n_x: int = 170,
    n_levels: int = 170,
) -> tuple[float, float]:
    """Quadrature of int over the surface of K(z, w) dmu(w); equals 1.

    Midpoint quadrature on the exact-in-measure fundamental-domain grid
    below ``_Y_CUT``; the group sum is folded tile by tile, dropping tiles
    where k is below ``_TILE_LEVEL`` relative to k(0).  Returns the mass
    and an error bound combining the cusp tail above ``_Y_CUT`` with the
    dropped k-tail beyond the tile radius.

    As u(z, gamma w) = u(gamma^-1 z, w), a tile's nodes with u <= u_lim lie
    in B(gamma^-1 z, rho_tile): for gamma^-1 z = x0 + i y0 the Euclidean disk
    with centre (x0, y0 cosh rho_tile) and radius y0 sinh rho_tile.  Tiles
    whose disk misses the grid are skipped.  The grid is evenly spaced in
    v = 1/y down each column, so the disk, widened by ``_SELECT_MARGIN``,
    meets a column in one range of levels, found in closed form.  On the
    box of these levels u is computed from gamma^-1 z and filtered exactly
    as over the whole grid, in ascending node order: each dot product sees
    the same elements in the same order, so the mass is bit-identical to
    folding every tile's preimage over the whole grid.
    """
    tab = _kernel_table(params.T)
    zr = reduce(z)
    xs, ys, wmu = fundamental_domain_grid(n_x, n_levels, _Y_CUT)

    rho_tile = tab.rho_at_level(_TILE_LEVEL)
    a, b, c, d = ball_tiles(zr, rho_tile).T
    u_lim = math.sinh(0.5 * rho_tile) ** 2

    # fundamental_domain_grid puts level l of a column at v = 1/_Y_CUT + (l + 1/2) v_step
    x_col = xs[:n_x]
    v_step = (1.0 / np.sqrt(1.0 - x_col * x_col) - 1.0 / _Y_CUT) / n_levels
    # the widened preimage disks: centre (px, cy), radius r
    px, py = mobius_image(d, -b, -c, a, zr.x, zr.y)
    u_sel = u_lim * (1.0 + _SELECT_MARGIN)
    cy = py * (1.0 + 2.0 * u_sel)
    r = py * (2.0 * math.sqrt(u_sel * (1.0 + u_sel)))
    c0 = np.searchsorted(x_col, px - r)
    c1 = np.searchsorted(x_col, px + r, side="right")
    hit = (c0 < c1) & (cy + r >= ys.min()) & (py * py / (cy + r) <= ys.max())

    y2, w2 = ys.reshape(n_levels, n_x), wmu.reshape(n_levels, n_x)
    mass = 0.0
    for t in np.flatnonzero(hit):
        cols = slice(c0[t], c1[t])
        dx = x_col[cols] - px[t]
        # the disk's chord in column x runs from y = q / y_top up to y_top
        y_top = cy[t] + np.sqrt(np.maximum(r[t] * r[t] - dx * dx, 0.0))
        q = dx * dx + py[t] * py[t]
        lo = np.ceil((1.0 / y_top - 1.0 / _Y_CUT) / v_step[cols] - 0.5).min()
        hi = np.floor((y_top / q - 1.0 / _Y_CUT) / v_step[cols] - 0.5).max()
        # the box of levels lo..hi over these columns holds every candidate;
        # read row by row, it is in ascending node order as in the full grid
        box = (slice(max(int(lo), 0), min(int(hi), n_levels - 1) + 1), cols)
        u = pair_u(px[t], py[t], x_col[cols], y2[box])
        sel = u <= u_lim
        if np.any(sel):
            mass += float(w2[box][sel] @ tab.eval_u(u[sel]))

    # cusp tail above _Y_CUT: mu(F(_Y_CUT)) = 1/_Y_CUT times the kernel sup
    # there; K at the probes is the sum over the listed tiles, added tile by
    # tile as the sum over axis 0 runs row by row
    top = np.linspace(-0.45, 0.45, 7)
    k_top = tab.eval_u(pair_u(px[:, None], py[:, None], top, _Y_CUT)).sum(axis=0)
    tail_cusp = float(k_top.max()) / _Y_CUT
    # dropped k-tail beyond the tile radius: 4 pi int_{u_lim}^inf k du
    rho, wk = _weighted_k(params.T, rho_tile, 12.0 / params.T + 3.0, _TAIL_NODES)
    tail_k = float(4.0 * math.pi * (wk * 0.5 * np.sinh(rho)).sum())
    return mass, abs(tail_cusp) + abs(tail_k)


# ---------------------------------------------------------------------------
# Mollifier and smoothing operator

_C_UNIT_INTEGRAL_NODES = (8, 24)
# smooth_with_gradient's polar patch: Gauss-Legendre (panels, nodes per panel)
# in q and midpoint angles
_SMOOTH_Q_NODES = (4, 24)
_SMOOTH_THETAS = 64


@lru_cache(maxsize=1)
def _bump_unit_integral() -> float:
    """int_0^1 exp(1/(u^2 - 1)) du; computed once and cached."""
    x, w = gl_panels(0.0, 1.0, *_C_UNIT_INTEGRAL_NODES)
    with np.errstate(divide="ignore"):
        vals = np.exp(1.0 / (x * x - 1.0))
    return float((w * vals).sum())


def mollifier_k_eps(u: float | np.ndarray, eps: float) -> float | np.ndarray:
    """Smooth bump kernel supported on u in [0, sinh^2(eps/2)), unit mass under 4 pi du.

    On the support, k_eps(u) = exp(S^2/(u^2 - S^2)) / (C S) with
    S = sinh^2(eps/2) and C = 4 pi int_0^1 e^{1/(u^2-1)} du, so that
    4 pi int k_eps = 1 exactly.  Raises ValueError unless eps > 0.
    """
    if eps <= 0:
        raise ValueError("mollification radius must be positive")
    C = 4.0 * math.pi * _bump_unit_integral()
    S = math.sinh(0.5 * eps) ** 2
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape if u.ndim else (1,))
    uu = np.atleast_1d(u)
    inside = uu < S
    with np.errstate(divide="ignore"):
        out[inside] = np.exp(S * S / (uu[inside] ** 2 - S * S)) / (C * S)
    return out if u.ndim else float(out[0])


def smooth_with_gradient(F, eps: float, z: Point) -> tuple[float, float, float]:
    """Mollified value F_eps(z) = int F(w) k_eps(u(z, w)) dmu(w) and its gradient in (x, y).

    Geodesic polar quadrature centred at z with the substitution u =
    sinh^2(eps/2) q^2, whose integrand profile is independent of eps; F
    must accept coordinate arrays (xs, ys) and is evaluated once.  For
    1-Lipschitz automorphic F the value is within eps of F(z).  The
    gradient differentiates the kernel with the samples w = a + ib held:
    int F(w) k_eps'(u) grad_z u dmu(w), with k_eps' = k_eps * -2uS^2/(u^2 - S^2)^2,
    du/dx = (x - a)/(2yb) and du/dy = (y - b)/(2yb) - u/y.
    """
    S = math.sinh(0.5 * eps) ** 2
    q, wq = gl_panels(0.0, 1.0, *_SMOOTH_Q_NODES)
    theta = (np.arange(_SMOOTH_THETAS) + 0.5) * (2.0 * math.pi / _SMOOTH_THETAS)
    u = S * q * q
    kvals = mollifier_k_eps(u, eps)
    px, py = polar_image(u[:, None], theta[None, :])
    # move the polar patch from i to z by the affine isometry w = x + y*(px + i py)
    wx = z.x + z.y * px
    wy = z.y * py
    vals = F(wx.ravel(), wy.ravel()).reshape(wx.shape)
    radial = wq * kvals * 4.0 * S * q  # includes du = 2 S q dq and the polar factor 2
    dtheta = 2.0 * math.pi / _SMOOTH_THETAS
    fe = float((radial[:, None] * vals).sum() * dtheta)
    dvals = (radial * (-2.0 * u * S * S / (u * u - S * S) ** 2))[:, None] * vals
    du_dx = (z.x - wx) / (2.0 * z.y * wy)
    du_dy = (z.y - wy) / (2.0 * z.y * wy) - u[:, None] / z.y
    return fe, float((dvals * du_dx).sum() * dtheta), float((dvals * du_dy).sum() * dtheta)


def smooth(F, eps: float, z: Point) -> float:
    """Mollified value F_eps(z); the value of ``smooth_with_gradient``."""
    return smooth_with_gradient(F, eps, z)[0]
