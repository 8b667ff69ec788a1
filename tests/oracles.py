"""Independent oracles used to fix expected values in the tests.

Each oracle deliberately takes a different route from the implementation
it checks: the Mobius action in complex arithmetic and the distance in
scalars, against the real array forms of ``modsurf.hypgeo``, a second
integral representation for the conical function, a brute-force group
sweep for the quotient distance, direct quadrature for
the inner sine integral, basis enumeration for small transport LPs, plain
Dirichlet series for L-functions, trial division and complex powers for the
divisor sums lam_t(n), every tile folded over every node of the rule, by
its preimage of z or by the Mobius images of the nodes, for the kernel mass,
every matrix in a box with sampled tile boundaries for the tiles meeting a
ball, the arclength parametrisation of a closed geodesic, the
cube root of the x^2 - D y^2 = 1 solution for t^2 - D u^2 = 4, and plain
log-domain alternating Sinkhorn at one regularisation for the entropic plan.
The words in the generators S and T that the tests move points by live
here as well, since nothing in the package multiplies group elements.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.special import logsumexp

from modsurf import transform as tr
from modsurf._gl import gl_panels
from modsurf.arithmetic import ClosedGeodesic
from modsurf.hypgeo import Point, UnimodularMatrix, canonical_sign, mobius_image, pair_u, reduce
from modsurf.specfun import kronecker_symbol
from modsurf.transform import _kernel_table, ball_tiles, k_of_rho


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
GEN_S = UnimodularMatrix(0, -1, 1, 0)
GEN_T = UnimodularMatrix(1, 1, 0, 1)


def word(*letters: UnimodularMatrix) -> UnimodularMatrix:
    """The product of the letters, left to right; the identity for none."""
    g = IDENTITY
    for h in letters:
        g = UnimodularMatrix(g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
                             g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)
    return g


def inverse(g: UnimodularMatrix) -> UnimodularMatrix:
    """g^-1 = (d, -b; -c, a)."""
    return UnimodularMatrix(g.d, -g.b, -g.c, g.a)


def mobius_apply(g: UnimodularMatrix, z: Point) -> Point:
    """Apply the Mobius transformation z -> (az + b)/(cz + d) in complex arithmetic."""
    den = complex(g.c * z.x + g.d, g.c * z.y)
    num = complex(g.a * z.x + g.b, g.a * z.y)
    w = num / den
    return Point(w.real, w.imag)


def distance(z: Point, w: Point) -> float:
    """Hyperbolic distance rho(z, w) = 2 arsinh(|z - w| / (2 sqrt(Im z Im w))), in scalars."""
    dx = z.x - w.x
    dy = z.y - w.y
    return 2.0 * math.asinh(0.5 * math.hypot(dx, dy) / math.sqrt(z.y * w.y))


def laplace_conical_p(t: float, u: float, n: int = 4000) -> float:
    """P_{-1/2+it}(1+2u) via the Laplace integral over the circle angle.

    (1/pi) int_0^pi (cosh xi + sinh xi cos phi)^(-1/2+it) dphi; a second
    representation, independent of the Mehler-Dirichlet route.
    """
    if u == 0.0:
        return 1.0
    xi = 2.0 * math.asinh(math.sqrt(u))
    phi, w = gl_panels(0.0, math.pi, 16, max(n // 16, 8))
    base = math.cosh(xi) + math.sinh(xi) * np.cos(phi)
    vals = np.exp(complex(-0.5, t) * np.log(base))
    total = (w * vals).sum() / math.pi
    assert abs(total.imag) < 1e-10
    return float(total.real)


def brute_force_surface_distance(z: Point, w: Point, bound: int = 20) -> float:
    """min over all unimodular gamma with entries up to ``bound`` of rho(z, gamma w)."""
    best = math.inf
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                num = 1 + b * c
                if a == 0:
                    if b * c != -1:
                        continue
                    ds = range(-bound, bound + 1)
                else:
                    if num % a != 0:
                        continue
                    ds = (num // a,)
                for d in ds:
                    if abs(d) > bound or a * d - b * c != 1:
                        continue
                    best = min(best, distance(z, mobius_apply(UnimodularMatrix(a, b, c, d), w)))
    return best


def quad_inner_sine(v: float, T: float) -> float:
    """Direct quadrature of int_-inf^inf h(t) t sin(tv) dt."""
    t, w = gl_panels(0.0, 10.0 * T + 6.0, 40, 24)
    h = np.exp(-(t * t + 0.25) / (2.0 * T * T))
    return float(2.0 * (w * h * t * np.sin(t * v)).sum())


def transport_by_enumeration(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Optimal transport value by enumerating basic solutions (tiny LPs only)."""
    m, n = cost.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = math.inf
    rhs = np.concatenate([a, b])
    for basis in combinations(cells, m + n - 1):
        A = np.zeros((m + n, m + n - 1))
        for k, (i, j) in enumerate(basis):
            A[i, k] = 1.0
            A[m + j, k] = 1.0
        # drop one redundant balance constraint
        sol, res, rank, _ = np.linalg.lstsq(A[:-1], rhs[:-1], rcond=None)
        if rank < m + n - 1:
            continue
        if np.abs(A @ sol - rhs).max() > 1e-9 or sol.min() < -1e-12:
            continue
        value = sum(q * cost[i, j] for q, (i, j) in zip(sol, basis))
        best = min(best, value)
    return best


def log_sinkhorn(a: np.ndarray, b: np.ndarray, cost: np.ndarray, eps: float,
                 max_iter: int = 100_000) -> float:
    """<pi, C> of the entropic plan by alternating log-domain Sinkhorn at one eps.

    No epsilon scaling, absorption or Newton step: f and g are updated in
    turn from zero until the marginal violation is at most 1e-13.
    """
    loga, logb = np.log(a), np.log(b)
    f, g = np.zeros(len(a)), np.zeros(len(b))
    for _ in range(max_iter):
        f = -eps * logsumexp((g[None, :] - cost) / eps + logb[None, :], axis=1)
        g = -eps * logsumexp((f[:, None] - cost) / eps + loga[:, None], axis=0)
        pi = np.exp((f[:, None] + g[None, :] - cost) / eps + loga[:, None] + logb[None, :])
        if max(np.abs(pi.sum(axis=1) - a).sum(), np.abs(pi.sum(axis=0) - b).sum()) <= 1e-13:
            return float((pi * cost).sum())
    raise RuntimeError("log-domain Sinkhorn did not reach a violation of 1e-13")


def dirichlet_series(s: complex, D: int, n_terms: int) -> complex:
    """Plain Dirichlet series for L(s, chi_D); valid for Re s > 1."""
    n = np.arange(1, n_terms + 1)
    chi = np.array([kronecker_symbol(D, int(k)) for k in n], dtype=float)
    return complex((chi * np.exp(-s * np.log(n))).sum())


def divisor_lambda(n: int, t: float) -> float:
    """lam_t(n) = sum over ad = n of (a/d)^{it}, by trial division and complex powers."""
    return sum((a / (n // a)) ** complex(0.0, t) for a in range(1, n + 1) if n % a == 0).real


def full_grid_kernel_mass(z: Point, params, by_images: bool = False) -> tuple[float, float]:
    """``kernel_mass_on_surface`` with every tile folded over every node of its rule.

    Evaluates u(z, gamma w) at all nodes of the product rule for each tile
    and adds its terms level after level in each column, then column after
    column, both by np.cumsum; no preimage ball selects the nodes.  u is
    u(gamma^-1 z, w) from the preimages of z, as in the implementation, and
    the cusp term reads the cosets from ``_coset_rows``; or with
    ``by_images`` u is the independent route u(z, gamma w) from the Mobius
    images of the nodes under gamma, inverted from the rows gamma^-1 of
    ``ball_tiles``, and the cosets are the distinct bottom rows of those
    rows, at Im z / |rz + s|^2 in complex arithmetic.
    """
    tab = _kernel_table(params.T)
    zr = reduce(z)
    x, _s, _span, y2, w2 = tr._surface_rule()
    xs, ys = np.broadcast_to(x, y2.shape), y2
    rho_tile = tab.rho_at_level(tr._TILE_LEVEL)
    k_of_u = tab.cut_at(rho_tile)
    inverses = ball_tiles(zr, rho_tile)
    px, py = mobius_image(*inverses.T, zr.x, zr.y)

    tile_sums = []
    for k in range(len(inverses)):
        if by_images:
            # gamma = (d, -b; -c, a) from gamma^-1 = (a, b; c, d)
            a, b, c, d = inverses[k].astype(float)
            u = pair_u(*mobius_image(d, -b, -c, a, xs, ys), zr.x, zr.y)
        else:
            u = pair_u(px[k], py[k], xs, ys)
        tile_sums.append(np.cumsum(np.cumsum(w2 * k_of_u(u), axis=0)[-1])[-1])
    if by_images:
        rows = {max((c, d), (-c, -d)) for _a, _b, c, d in inverses.tolist()}
        heights = [zr.y / abs(r * complex(zr.x, zr.y) + s) ** 2 for r, s in sorted(rows)]
    else:
        r, s = tr._coset_rows(zr, rho_tile)
        heights = zr.y / ((r * zr.x + s) ** 2 + (r * zr.y) ** 2)
    mass = float(np.cumsum(np.concatenate([tile_sums, tr._cusp_mass(heights, params.T)]))[-1])
    rho, wq = gl_panels(rho_tile, 12.0 / params.T + 3.0, 6, 24)
    return mass, float(4.0 * math.pi * (wq * k_of_rho(rho, params.T) * 0.5 * np.sinh(rho)).sum())


def brute_force_ball_tiles(z: Point, rho: float, bound: int, delta: float = 0.02) -> set:
    """Every gamma, entries in [-bound, bound], with a tile boundary sample within rho - delta of z.

    The boundary of F is sampled at hyperbolic spacing delta: the arc
    |w| = 1 between the corners, and the sides x = +-1/2 from sqrt(3)/2 up
    to max(Im z, 1/Im z) e^rho, which bounds Im(gamma^-1 z) e^rho.  A
    sample b counts by rho(z, gamma b) = rho(gamma^-1 z, b), from
    cosh rho = 1 + |w - b|^2 / (2 Im w Im b) in complex arithmetic.  The
    first column (a, c) of gamma is pruned by rho(w, b) >= log(Im b / Im w),
    before the second column is solved from ad - bc = 1.  Returns
    canonical-sign tuples (a, b, c, d), one per +-pair.
    """
    corner_y = math.sqrt(3.0) / 2.0
    y_top = max(z.y, 1.0 / z.y) * math.exp(rho)
    side = corner_y * np.exp(np.arange(0.0, math.log(y_top / corner_y) + delta, delta))
    # arc length element d theta / sin theta, with sin theta >= sqrt(3)/2
    n_arc = math.ceil(math.pi / 3.0 / (delta * corner_y)) + 1
    theta = np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, n_arc)
    samples = np.concatenate([-0.5 + 1j * side, 0.5 + 1j * side, np.exp(1j * theta)])
    zc = complex(z.x, z.y)
    im_min = corner_y * math.exp(-(rho - delta))

    mats = [np.array([[1, b, 0, 1] for b in range(-bound, bound + 1)])]
    dd = np.arange(-bound, bound + 1)
    for c in range(1, bound + 1):
        a = dd[z.y / np.abs(dd - c * zc) ** 2 >= im_min]
        for aa in a[np.gcd(a, c) == 1].tolist():
            d = dd[(aa * dd - 1) % c == 0]
            b = (aa * d - 1) // c
            d, b = d[np.abs(b) <= bound], b[np.abs(b) <= bound]
            mats.append(np.stack([np.full(len(d), aa), b, np.full(len(d), c), d], axis=1))
    mats = np.concatenate(mats)

    found = set()
    cosh_lim = math.cosh(rho - delta)
    for blk in range(0, len(mats), 512):
        a, b, c, d = mats[blk:blk + 512].T
        w = (d * zc - b) / (a - c * zc)
        cosh_rho = 1.0 + np.abs(w[:, None] - samples) ** 2 / (2.0 * w.imag[:, None] * samples.imag)
        for g in mats[blk:blk + 512][(cosh_rho <= cosh_lim).any(axis=1)].tolist():
            found.add(canonical_sign(*g))
    return found


def geodesic_path_points(geo: ClosedGeodesic, samples_per_unit_length: int) -> np.ndarray:
    """Equal-arclength sample points along one period, as unreduced complex numbers.

    The geodesic is the semicircle through the form's real endpoints; with
    arclength parameter s the polar angle is theta = 2 arctan(e^s), and one
    period has length ``geo.length``.
    """
    center = 0.5 * (geo.endpoints[0] + geo.endpoints[1])
    radius = 0.5 * abs(geo.endpoints[1] - geo.endpoints[0])
    n = max(2, math.ceil(geo.length * samples_per_unit_length))
    s = (np.arange(n) + 0.5) * (geo.length / n)
    theta = 2.0 * np.arctan(np.exp(s))
    return center + radius * np.exp(1j * theta)


def _pell_unit(n: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - n y^2 = 1 from the continued fraction of sqrt(n)."""
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    h0, h1 = 1, a0
    k0, k1 = 0, 1
    while h1 * h1 - n * k1 * k1 != 1:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    return h1, k1


def _icbrt(n: int) -> int:
    # integer Newton iteration; safe for n beyond float range
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        r2 = (2 * r + n // (r * r)) // 3
        if r2 >= r:
            break
        r = r2
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def cube_root_pell(D: int) -> tuple[int, int]:
    """Smallest positive solution (t, u) of t^2 - D u^2 = 4 through x^2 - D y^2 = 1.

    For D = 0 mod 4 it is twice the classical solution for D/4.  For
    D = 1 mod 4 the unit (t + u sqrt(D))/2 may be half-integral; its cube
    is integral, so it is the cube root of the x^2 - D y^2 = 1 solution
    when one of four candidates for t checks out, and that solution
    doubled otherwise.
    """
    if D % 4 == 0:
        x, y = _pell_unit(D // 4)
        return 2 * x, y
    x, y = _pell_unit(D)
    # try eta with eta^3 = x + y sqrt(D): eta ~ cbrt(2x), t = eta + 1/eta
    eta = _icbrt(2 * x)
    t0 = eta if eta >= 3 else round(eta + 1.0 / max(eta, 1))
    for t in (t0 - 1, t0, t0 + 1, t0 + 2):
        if t <= 0:
            continue
        v = t * t - 4
        if v % D == 0:
            u2 = v // D
            u = math.isqrt(u2)
            if u > 0 and u * u == u2 and (t + u) % 2 == 0:
                return t, u
    return 2 * x, 2 * y
