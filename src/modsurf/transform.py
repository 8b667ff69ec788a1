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
lists their inverses gamma^-1 in closed form from their bottom rows.  Both
kernel sums take u(z, gamma w) = u(gamma^-1 z, w): one ``mobius_image`` call
on those rows gives the preimages gamma^-1 z, ``pair_u`` pairs them with w,
and both read k from the one lookup of its table, ``_KernelTable.cut_at``.
The surface mass integrates a product Gauss-Legendre rule below y = 50, each
tile only on the nodes in a box around the ball of its preimage, adding its
terms level after level in each column, then column after column, and the
region above y = 50 in closed form, unfolded over the cosets of the
translations, which ``_coset_rows`` lists for it and for ``ball_tiles``.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._gl import gl_panels
from .hypgeo import Point, mobius_image, pair_u, polar_image, reduce
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
        rho_cutoff = _kernel_table(self.T).rho_at_level(_CUTOFF_REL)
        object.__setattr__(self, "u_cutoff", math.sinh(0.5 * rho_cutoff) ** 2)

    @classmethod
    def default(cls, T: float) -> "TransformParams":
        """The parameters of bandwidth T; the same as ``TransformParams(T)``."""
        return cls(T)


class _KernelTable:
    """Dense tabulation of k on the geodesic scale, read by ``cut_at``."""

    def __init__(self, T: float):
        # k up to the first block that ends below _CUTOFF_REL k(0), the lowest level read
        self.rho = np.linspace(0.0, 12.0 / T + 3.0, _TABLE_POINTS)
        self.k = k_of_rho(self.rho[:_TABLE_BLOCK], T)
        while self.k[-1] >= _CUTOFF_REL * self.k[0] and len(self.k) < _TABLE_POINTS:
            self.k = np.append(self.k, k_of_rho(self.rho[len(self.k):][:_TABLE_BLOCK], T))
        self.k0 = float(self.k[0])

    def rho_at_level(self, rel: float) -> float:
        """Smallest tabulated rho with k(rho) < rel * k(0); a ValueError if the table ends first."""
        below = np.nonzero(self.k < rel * self.k0)[0]
        if not len(below):
            raise ValueError(f"the table of k ends before k falls below {rel} k(0)")
        return float(self.rho[below[0]])

    def cut_at(self, rho_end: float):
        """k of u >= 0, linear in rho between the knots up to the knot rho_end and 0 from it on.

        The knots are evenly spaced: each u's segment j is read off its rho, and
        k[j] + slope[j] (rho - rho_j) found in place on rho, the knot values taken
        into one more array (mode "clip" is not buffered); u is left unchanged.
        """
        end = int(np.searchsorted(self.rho, rho_end))
        k = np.append(self.k[:end], 0.0)
        slope = np.append(np.diff(self.k[:end + 1]) / np.diff(self.rho[:end + 1]), 0.0)
        scale = (len(self.rho) - 1) / self.rho[-1]

        def k_of_u(u):
            rho = np.sqrt(u)
            np.arcsinh(rho, out=rho)
            rho *= 2.0
            knot = np.minimum(rho * scale, end)
            j = knot.astype(np.intp)
            rho -= np.take(self.rho, j, out=knot, mode="clip")
            rho *= np.take(slope, j, out=knot, mode="clip")
            rho += np.take(k, j, out=knot, mode="clip")
            return rho

        return k_of_u


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


def _coset_rows(z: Point, rho_ball: float) -> tuple[np.ndarray, np.ndarray]:
    """Bottom rows (r, s) of gamma^-1, one per coset, with Im(gamma^-1 z) >= (sqrt 3/2) e^-rho_ball.

    The cosets are those of the translations, gamma^-1 up to T^n on the left;
    Im(gamma^-1 z) = Im z / |rz + s|^2; r > 0 or (r, s) = (0, 1), and the
    bound is widened by ``_TILE_MARGIN``.
    """
    row_max = 2.0 / math.sqrt(3.0) * z.y * math.exp(rho_ball) * (1.0 + _TILE_MARGIN)
    s_max = int(math.sqrt(row_max) * (1.0 + abs(z.x) / z.y)) + 1
    r, s = np.mgrid[0:int(math.sqrt(row_max) / z.y) + 1, -s_max:s_max + 1].reshape(2, -1)
    keep = (((r * z.x + s) ** 2 + (r * z.y) ** 2 <= row_max) & (np.gcd(r, s) == 1)
            & ((r > 0) | (s == 1)))
    return r[keep], s[keep]


def ball_tiles(z: Point, rho_ball: float) -> np.ndarray:
    """Inverses gamma^-1 (one per +-pair) of the gamma whose tile gamma F may meet B(z, rho_ball).

    gamma F meets B(z, rho) only if F (|x| <= 1/2, y >= sqrt(3)/2) meets
    B(w, rho), w = gamma^-1 z = x0 + i y0, which spans x0 +- y0 sinh rho and
    reaches up to y0 e^rho.  So the bottom row (r, s) of gamma^-1 is one of
    ``_coset_rows``; with p = s^-1 mod r, q = (ps - 1)/r, gamma^-1 = T^n (p, q; r, s)
    has |x0 + n| <= 1/2 + y0 sinh rho.  Both bounds are widened by
    ``_TILE_MARGIN``, so every tile meeting the ball is listed.  Returns the
    rows (a, b, c, d) of gamma^-1 = (p + nr, q + ns; r, s) as an integer
    array of shape (n, 4), ready for ``mobius_image``, cut at ``_MAX_TILES``
    rows with a TruncationWarning.
    """
    r, s = _coset_rows(z, rho_ball)
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
    return np.stack([p[j] + n * r[j], q[j] + n * s[j], r[j], s[j]], axis=1)


def automorphic_kernel(z: Point, w: Point, params: "TransformParams") -> float:
    """Automorphic kernel K(z, w) = sum over gamma of k(u(z, gamma w)).

    The sum runs over one representative per +-pair (the two signs act
    identically), on the table of k cut where k falls below ``_CUTOFF_REL``
    of k(0), at u = params.u_cutoff; each term dropped is below that.
    """
    tab = _kernel_table(params.T)
    rho_cutoff = tab.rho_at_level(_CUTOFF_REL)
    zr, wr = reduce(z), reduce(w)
    # u(z, gamma w) = u(gamma^-1 z, w)
    u = pair_u(*mobius_image(*ball_tiles(zr, rho_cutoff).T, zr.x, zr.y), wr.x, wr.y)
    return float(tab.cut_at(rho_cutoff)(u).sum())


# Relative widening of u_lim for the nodes kernel_mass_on_surface selects, far
# above the rounding of either route, so no node with u <= u_lim is missed.
_SELECT_MARGIN = 1e-9
# kernel_mass_on_surface's rule, Gauss-Legendre (panels, nodes per panel) on each
# axis of (x, s) below _Y_CUT; the level of k, relative to k(0), below which a
# tile is dropped; and the padded nodes per block of the fold, bounding its arrays
_SURFACE_NODES = (4, 16)
_Y_CUT = 50.0
_TILE_LEVEL = 1e-10
_FOLD_NODES = 16384


def _surface_rule():
    """Product Gauss-Legendre rule below ``_Y_CUT``: x, s, span, and (level, column) y, weights.

    v = 1/y = 1/_Y_CUT + s span(x), span(x) = 1/sqrt(1 - x^2) - 1/_Y_CUT, maps
    [-1/2, 1/2] x [0, 1] onto F below ``_Y_CUT`` with dmu = dx dv, so the
    weights are exact.
    """
    x, wx = gl_panels(-0.5, 0.5, *_SURFACE_NODES)
    s, ws = gl_panels(0.0, 1.0, *_SURFACE_NODES)
    span = 1.0 / np.sqrt(1.0 - x * x) - 1.0 / _Y_CUT
    return x, s, span, 1.0 / (1.0 / _Y_CUT + s[:, None] * span), ws[:, None] * (wx * span)


def _cusp_mass(y, T: float) -> np.ndarray:
    """Mass of k(u(iy, w)) over Im w > ``_Y_CUT``: erfc((T log(_Y_CUT/y) + 1/2T)/sqrt 2)/2.

    At height Y the x-integral of k is sqrt(yY) g(log(Y/y)), with g the
    Fourier transform of h, T e^{-1/8T^2} e^{-T^2 a^2/2} / sqrt(2 pi); its
    integral against dY/Y^2 over Y > _Y_CUT is the Gaussian tail above.
    """
    arg = (T * np.log(_Y_CUT / np.asarray(y, dtype=float)) + 0.5 / T) / math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(a) for a in arg.tolist()])


def _tile_sums(terms: np.ndarray) -> np.ndarray:
    """Tile sums of a (level, tile, column) array: levels in order per column, then columns."""
    # np.add.reduce adds the levels in order, except on a (tile, column) plane
    # of one node: numpy then makes them its inner axis, which it adds pairwise
    cols = np.add.reduce(terms, axis=0) if terms[0].size > 1 else np.cumsum(terms, axis=0)[-1]
    return np.cumsum(cols, axis=1)[:, -1]


def kernel_mass_on_surface(z: Point, params: "TransformParams") -> tuple[float, float]:
    """Quadrature of int over the surface of K(z, w) dmu(w); equals 1.

    Below ``_Y_CUT`` the rule of ``_surface_rule`` folds the group sum tile
    by tile, on the table of k cut at rho_tile, where k falls below
    ``_TILE_LEVEL`` of k(0).  Above it the sum unfolds over the cosets of
    the translations, group elements rather than orbit points, so an
    elliptic z needs no correction: each row (r, s) of ``_coset_rows`` adds
    ``_cusp_mass`` at Im z / |rz + s|^2.  Returns the mass and an error
    budget, 4 pi int_{u_lim}^inf k du: unfolded, every term left out has
    u > u_lim, as the cosets left out have Im(gamma^-1 z) < e^-rho_tile.
    The budget leaves out the linear table's bias and the rule's own error.

    A tile's nodes with u(z, gamma w) = u(gamma^-1 z, w) <= u_lim lie in the
    Euclidean disk with centre (x0, y0 cosh rho_tile) and radius
    y0 sinh rho_tile, for gamma^-1 z = x0 + i y0.  Widened by
    ``_SELECT_MARGIN``, it lies in columns c0..c1-1 and levels l0..l1-1,
    found by ``searchsorted``, and every node outside this box reads k = 0
    exactly from the cut table.  Boxes of one column count are folded in
    blocks, padded to the tallest with such nodes; each tile's terms are
    added by ``_tile_sums`` and the tile sums in tile order, on up to one
    thread per CPU in the process's affinity mask.  So the mass is
    bit-identical to folding every tile's preimage over every node of the
    rule in that order, whatever the thread counts of the fold and of OpenBLAS.
    """
    tab = _kernel_table(params.T)
    zr = reduce(z)
    x_col, s_lev, span, y2, w2 = _surface_rule()
    n_s, n_x = y2.shape
    rho_tile = tab.rho_at_level(_TILE_LEVEL)
    k_of_u = tab.cut_at(rho_tile)

    # the widened preimage disks, centre (px, cy), radius r, over columns
    # c0..c1-1; there the disk runs from v = 1/top up to top / (dx^2 + py^2)
    # in the column nearest px, dx away, and s = (v - 1/_Y_CUT) / span lies
    # between these on the widest span and on the narrowest
    px, py = mobius_image(*ball_tiles(zr, rho_tile).T, zr.x, zr.y)
    u_sel = math.sinh(0.5 * rho_tile) ** 2 * (1.0 + _SELECT_MARGIN)
    cy, r = py * (1.0 + 2.0 * u_sel), py * (2.0 * math.sqrt(u_sel * (1.0 + u_sel)))
    c0 = np.searchsorted(x_col, px - r)
    c1 = np.searchsorted(x_col, px + r, side="right")
    first, last = np.clip([c0, c1 - 1], 0, n_x - 1)
    dx = np.maximum(np.maximum(x_col[first] - px, px - x_col[last]), 0.0)
    top = cy + np.sqrt(np.maximum(r * r - dx * dx, 0.0))
    l0 = np.searchsorted(s_lev, (1.0 / top - 1.0 / _Y_CUT) / np.maximum(span[first], span[last]))
    l1 = np.searchsorted(s_lev, (top / (dx * dx + py * py) - 1.0 / _Y_CUT)
                         / span[np.clip(n_x // 2, first, last)], side="right")
    hit = (c0 < c1) & (l0 < l1)
    px, py, c0, l0, rows, cols = px[hit], py[hit], c0[hit], l0[hit], (l1 - l0)[hit], (c1 - c0)[hit]

    # blocks of boxes of one column count, in ascending height, each within
    # _FOLD_NODES nodes once padded to its tallest box
    rows, cols, blocks = rows.tolist(), cols.tolist(), []
    for t in np.lexsort((rows, cols)).tolist():
        if blocks and cols[blocks[-1][0]] == cols[t] and (
                (len(blocks[-1]) + 1) * rows[t] * cols[t] <= _FOLD_NODES):
            blocks[-1].append(t)
        else:
            blocks.append([t])
    y_flat, w_flat = y2.ravel(), w2.ravel()
    tile_sums, errors = np.empty(len(px)), []

    def fold(my_blocks):
        try:
            for blk in my_blocks:
                # (level, tile, column): n_r levels from l0, moved down if past the last
                n_r, n_c = rows[blk[-1]], cols[blk[0]]
                cc = c0[blk, None] + np.arange(n_c)
                lev = np.minimum(l0[blk], n_s - n_r) + np.arange(n_r)[:, None]
                node = lev[:, :, None] * n_x + cc
                terms = k_of_u(pair_u(px[blk, None], py[blk, None], x_col[cc], y_flat[node]))
                terms *= w_flat[node]
                tile_sums[blk] = _tile_sums(terms)
        except Exception as exc:  # raised again by the calling thread after the joins
            errors.append(exc)

    # this thread and one helper per further CPU each fold every workers-th block
    workers = min(len(os.sched_getaffinity(0)), len(blocks)) or 1
    helpers = [threading.Thread(target=fold, args=(blocks[i::workers],)) for i in range(1, workers)]
    for helper in helpers:
        helper.start()
    fold(blocks[0::workers])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]

    # the cusp terms follow the tile sums, all added left to right
    rr, ss = _coset_rows(zr, rho_tile)
    cusp = _cusp_mass(zr.y / ((rr * zr.x + ss) ** 2 + (rr * zr.y) ** 2), params.T)
    rho, wk = _weighted_k(params.T, rho_tile, tab.rho[-1], _TAIL_NODES)
    return (float(np.cumsum(np.concatenate([tile_sums, cusp]))[-1]),
            float(4.0 * math.pi * (wk * 0.5 * np.sinh(rho)).sum()))


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
