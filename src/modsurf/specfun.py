"""Special functions for the transform and L-function layers.

Imaginary-order K-Bessel and conical Legendre functions are evaluated by
quadrature of integral representations (the endpoint singularity of the
Mehler-Dirichlet formula is removed by a square-root substitution).
`bessel_k_imag_many` takes an array of orders as well as an array of
arguments: each order's panel count fixes its theta-grid, and the orders
on one grid share the kernel exp(-x cosh theta), built once per grid with
only one grid's kernel alive at a time; `conical_p` integrates its (t, u)
pairs together per panel count.  The Riemann and Hurwitz zeta functions
use Euler-Maclaurin summation, valid comfortably on Re s >= 1/2 with
|Im s| <= 1e3.  Dirichlet L-functions of quadratic characters are
assembled from Hurwitz zeta values.  The gamma factors for the Weyl-sum
identities are computed in log-gamma space: ``_loggamma`` is Stirling's
series (DLMF 5.11.1) at z + 10 less sum_{k<10} log(z + k), the principal
branch on Re z > 0, and ``_digamma`` is the matching series for psi,
which gives L(1, chi_D); both take the Bernoulli numbers of the zeta layer.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

from ._gl import gl_panels


class PoleError(ValueError):
    """Evaluation requested at a pole."""


class UnderflowWarning(RuntimeWarning):
    """Result underflowed to zero and was clamped."""


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta

_EM_ORDER = 14

# B_{2j} for j = 1.._EM_ORDER, exact rationals.
_B2J = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
]

# B_{2j}/(2j)!; read-only after import.
_B2J_FACT = np.array([float(b) / math.factorial(2 * j) for j, b in enumerate(_B2J, 1)])

# Stirling's series for log Gamma and psi (DLMF 5.11.1, 5.11.2) at z + 10: B_{2j}/(2j(2j-1))
# and B_{2j}/(2j) for j = 8, ..., 1, highest order first for np.polyval.
_GAMMA_SHIFT = 10
_LOGGAMMA_COEF = [float(_B2J[j - 1]) / (2 * j * (2 * j - 1)) for j in range(8, 0, -1)]
_DIGAMMA_COEF = [float(_B2J[j - 1]) / (2 * j) for j in range(8, 0, -1)]


def _loggamma(z):
    """Principal log Gamma(z) for Re z > 0, shaped like z.

    Computed on ``np.atleast_1d(z)``, so a scalar z gives the bits it has in an array.
    """
    z0 = np.atleast_1d(np.asarray(z, dtype=complex))
    w = z0 + _GAMMA_SHIFT
    series = np.polyval(_LOGGAMMA_COEF, 1.0 / (w * w)) / w
    out = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series
    out -= sum(np.log(z0 + k) for k in range(_GAMMA_SHIFT))
    return out.reshape(np.shape(z))[()]


def _digamma(x):
    """psi(x) for real x > 0, shaped like x."""
    x = np.asarray(x, dtype=float)
    w = x + _GAMMA_SHIFT
    v = 1.0 / (w * w)
    shift = sum(1.0 / (x + k) for k in range(_GAMMA_SHIFT))
    return np.log(w) - 0.5 / w - v * np.polyval(_DIGAMMA_COEF, v) - shift


def _hurwitz_many(s, a: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin Hurwitz zeta for an array of s and an array of shifts a in (0, 1].

    The result has shape ``np.shape(s) + a.shape``.  Each s sums
    max(25, ceil(1.2 |Im s|)) terms; the s values that share a term count
    are evaluated together, each (s, a) summing its own contiguous row of
    terms, so a value does not depend on the other s of the call.
    """
    s = np.asarray(s, dtype=complex)
    if np.any(s == 1):
        raise PoleError("zeta pole at s = 1")
    a = np.asarray(a, dtype=float)
    flat = s.ravel()
    n_terms = np.maximum(25, np.ceil(1.2 * np.abs(flat.imag))).astype(int)
    out = np.empty((flat.size, a.size), dtype=complex)
    two_j = 2.0 * np.arange(_EM_ORDER - 1)
    for N in sorted(set(n_terms.tolist())):
        idx = np.flatnonzero(n_terms == N)
        sg = flat[idx, None]
        base = a[:, None] + np.arange(N, dtype=float)
        head = np.exp(-sg[..., None] * np.log(base)).sum(axis=-1)
        z = N + a
        zs = np.exp(-sg * np.log(z))
        res = head + zs * z / (sg - 1.0) + 0.5 * zs
        # asymptotic tail: sum over j >= 1 of B_2j/(2j)! * (s)_{2j-1} * z^(-s-2j+1),
        # with (s)_1 = s and (s)_{2j+1} = (s)_{2j-1} (s + 2j - 1) (s + 2j)
        poch = np.cumprod(np.hstack([sg, (sg + two_j + 1) * (sg + two_j + 2)]), axis=1)
        coef = _B2J_FACT * poch
        zpow = zs / z  # z^(-s-1)
        z2 = z * z
        for j in range(_EM_ORDER):
            res += coef[:, j, None] * zpow
            zpow = zpow / z2
        out[idx] = res
    return out.reshape(s.shape + a.shape)


def _like(s, values: np.ndarray):
    """values as a complex for scalar s, else as the array shaped like s."""
    return complex(values) if np.ndim(s) == 0 else values


def hurwitz_zeta(s, a: float):
    """Hurwitz zeta zeta(s, a) for 0 < a <= 1, s != 1, for a scalar or an array of s.

    Euler-Maclaurin summation over max(25, 1.2 |Im s|) terms with
    ``_EM_ORDER`` correction terms; the relative error is below 1e-10 on
    Re s >= 1/2, |Im s| <= 1e3.
    """
    if not (0.0 < a <= 1.0):
        raise ValueError(f"shift a must lie in (0, 1], got {a}")
    return _like(s, _hurwitz_many(s, np.array([a]))[..., 0])


def riemann_zeta(s):
    """Riemann zeta via Euler-Maclaurin, shaped like s; pole error at s = 1."""
    return hurwitz_zeta(s, 1.0)


# ---------------------------------------------------------------------------
# Quadratic characters and L-functions


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D|n), the quadratic character chi_D when D is fundamental."""
    a, b = D, n
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    k = 1
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    a %= b
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and b % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % a, a
    return k if b == 1 else 0


def _squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(abs(n)) + 1))


# Largest |D| taken: trial division runs to sqrt|D|, and dirichlet_l takes
# |D| Kronecker symbols, several seconds per call near |D| = 1e6.
_D_MAX = 10**6
_L_BLOCK = 4096  # shifts per _hurwitz_many call in dirichlet_l, bounding its arrays


def is_fundamental(D: int) -> bool:
    """True iff D is a fundamental discriminant (trial division).

    Raises ValueError for |D| > 1e6, the envelope of the L-function layer.
    """
    if abs(D) > _D_MAX:
        raise ValueError(f"|D| must be at most {_D_MAX}, got {D}")
    if D % 4 == 1:
        return D != 1 and _squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(D // 4)


def require_fundamental(D: int) -> None:
    """Raise ValueError unless D is a fundamental discriminant."""
    if not is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")


def dirichlet_l(s, D: int):
    """L(s, chi_D) for a fundamental discriminant D, for a scalar or an array of s.

    For s != 1 this is |D|^-s sum_a chi_D(a) zeta(s, a/|D|); at s = 1 the
    digamma formula L(1, chi) = -(1/q) sum_a chi(a) psi(a/q) is used, which
    avoids the cancelling zeta poles.  Each ``_hurwitz_many`` call takes
    ``_L_BLOCK`` shifts, or all |D| of them with ``_L_BLOCK`` // |D| values of
    s, so its arrays stay the size of a single s's, and every s is summed
    as it would be alone.
    """
    require_fundamental(D)
    q = abs(D)
    a = np.arange(1, q + 1)
    chi = np.array([kronecker_symbol(D, int(x)) for x in a], dtype=float)
    s = np.asarray(s, dtype=complex)
    out = np.empty(s.shape, dtype=complex)
    at_one = s == 1
    if at_one.any():
        out[at_one] = -(chi * _digamma(a / q)).sum() / q
    rest = s[~at_one]
    if rest.size:
        step = max(1, _L_BLOCK // q)  # s values per call
        totals = [sum((chi[i:i + _L_BLOCK] * _hurwitz_many(rest[j:j + step], a[i:i + _L_BLOCK] / q))
                      .sum(axis=-1) for i in range(0, q, _L_BLOCK))
                  for j in range(0, rest.size, step)]
        out[~at_one] = np.exp(-rest * math.log(q)) * np.concatenate(totals)
    return _like(s, out)


# ---------------------------------------------------------------------------
# K-Bessel of imaginary order

_BESSEL_X_MAX = 700.0


def _bessel_panels(tau: float, theta_max: float) -> int:
    h = min(0.5, 2.5 / max(1.0, abs(tau)))
    return max(4, math.ceil(theta_max / h))


def bessel_k_imag_many(tau, xs: np.ndarray) -> np.ndarray:
    """K_{i tau}(x) for an array of orders and an array of positive arguments.

    The result has shape ``np.shape(tau) + xs.shape``; a scalar order gives
    an array shaped like ``xs``.  Orders that share a theta-grid share one
    kernel exp(-x cosh theta), which is built once and freed before the
    next grid's; each order is then one product with w cos(tau theta).
    """
    taus = np.asarray(tau, dtype=float)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((taus.size, xs.size))
    live = xs <= _BESSEL_X_MAX
    if np.any(xs <= 0.0):
        raise ValueError("bessel_k_imag requires x > 0")
    if not np.all(live):
        warnings.warn("K_{i tau}(x) underflows for x > 700; clamped to 0",
                      UnderflowWarning, stacklevel=2)
    if np.any(live):
        xl = xs[live]
        theta_max = math.acosh(1.0 + 46.0 / float(xl.min()))
        flat_taus = taus.ravel()
        flat_live = live.ravel()
        panels = np.array([_bessel_panels(float(t), theta_max) for t in flat_taus])
        for n_panels in np.unique(panels):
            nodes, wts = gl_panels(0.0, theta_max, int(n_panels), 16)
            ker = np.multiply.outer(xl, -np.cosh(nodes))
            np.exp(ker, out=ker)
            for i in np.flatnonzero(panels == n_panels):
                out[i, flat_live] = ker @ (wts * np.cos(flat_taus[i] * nodes))
            del ker
    return out.reshape(taus.shape + xs.shape)


def bessel_k_imag(tau: float, x: float) -> float:
    """K_{i tau}(x) = int_0^inf exp(-x cosh t) cos(tau t) dt; real, even in tau."""
    return float(bessel_k_imag_many(tau, np.array([x]))[0])


# ---------------------------------------------------------------------------
# Conical Legendre function


def conical_p(t, u):
    """Conical function P_{-1/2 + it}(1 + 2u) for real t and u >= 0; t and u broadcast.

    Mehler-Dirichlet representation on the geodesic scale xi = 2 arsinh
    sqrt(u), with the endpoint singularity removed by the substitution
    s = xi - q^2 and the difference of cosh rewritten as a product of sinh
    to avoid cancellation.  The (t, u) pairs that share a panel count are
    integrated together, each on the panels of its own [0, sqrt(xi)].
    """
    tau, u = np.broadcast_arrays(np.abs(np.asarray(t, dtype=float)), np.asarray(u, dtype=float))
    if np.any(u < 0.0):
        raise ValueError("u must be nonnegative")
    out = np.ones(u.shape)
    live = u > 0.0
    xi = 2.0 * np.arcsinh(np.sqrt(u[live]))
    tau = tau[live]
    panels = np.maximum(2, np.ceil(tau * xi / 2.5)).astype(int)
    vals = np.empty(xi.shape)
    for n_panels in np.unique(panels).tolist():
        i = panels == n_panels
        q, w = gl_panels(0.0, np.sqrt(xi[i]), n_panels, 16)
        q2 = q * q
        x = xi[i, None]
        integrand = 2.0 * q * np.cos(tau[i, None] * (x - q2)) / np.sqrt(
            2.0 * np.sinh(x - 0.5 * q2) * np.sinh(0.5 * q2)
        )
        vals[i] = math.sqrt(2.0) / math.pi * (w * integrand).sum(axis=-1)
    out[live] = vals
    return out[()]


# ---------------------------------------------------------------------------
# Gamma factors of the Weyl-sum identities


def h_minus(t):
    """The constant gamma factor 2 pi^2 attached to imaginary discriminants, shaped like t."""
    return np.full(np.shape(t), 2.0 * math.pi**2)[()]


def h_plus(t):
    """Gamma factor for real discriminants, shaped like t; positive and even in t.

    Equals |Gamma(1/4 + it/2)^2 / Gamma(1/2 + it)|^2 for real t.
    """
    t = np.asarray(t, dtype=float)
    return np.exp(4.0 * _loggamma(0.25 + 0.5j * t).real - 2.0 * _loggamma(0.5 + 1j * t).real)


def h_watson(t, t_g: float):
    """Gamma-quotient weight H(t, t_g) of the mass-equidistribution Weyl sums, shaped like t.

    Positive, even in t; decays like exp(-pi(|t| - 2 t_g)) past |t| = 2 t_g.
    """
    if not t_g > 0:
        raise ValueError("t_g must be positive")
    t = np.asarray(t, dtype=float)
    t_g = float(t_g)
    log_h = (
        4.0 * _loggamma(0.25 + 0.5j * t).real
        - 2.0 * _loggamma(0.5 + 1j * t).real
        + 2.0 * _loggamma(0.25 + 0.5j * (2.0 * t_g + t)).real
        + 2.0 * _loggamma(0.25 + 0.5j * (2.0 * t_g - t)).real
        - 4.0 * _loggamma(complex(0.5, t_g)).real
    )
    return np.exp(log_h)
