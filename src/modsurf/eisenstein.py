"""Eisenstein series on the modular surface and Weyl-sum identities.

The series is evaluated on the critical line through its Fourier expansion

    E(z, 1/2 + it) = y^s + phi(t) y^{1-s}
        + (4 sqrt(y) / xi(1 + 2it)) sum_{n >= 1} lam_t(n) K_{it}(2 pi n y)
          cos(2 pi n x),

with xi(s) = pi^{-s/2} Gamma(s/2) zeta(s), scattering coefficient
phi(t) = xi(1 - 2it)/xi(1 + 2it) (unimodular), and the real divisor sums
lam_t(n) = sum_{ad=n} (a/d)^{it}.

`_auto_n_fourier` picks the Fourier length per t: the shortest expansion
whose omitted Bessel terms are negligible at the lowest point.
`eisenstein_eval_many` takes an array of t as a batch axis: the t values
that share a Fourier length go to `bessel_k_imag_many` in one call, which
reuses one Bessel kernel per theta-grid.  The t-factors xi(1 + 2it), phi(t)
and lam_t(n) are computed once per call, for every point set of the call.

Empirical Weyl sums integrate E against several discrete measures for an
array of t; the exact squared Weyl sums for Heegner/geodesic measures come
out of the class number formula with the gamma factors H_-/H_+, one array
call per L-function over all t, and the two routes are compared by
`weyl_compare`.  `berry_esseen_rhs_many` assembles the spectral upper bound
for the Wasserstein distance from several measures to one reference, all of
whose Weyl sums at the t-nodes of `_T_QUAD` come from one call.  Without a
reference it bounds the distance to exact Haar measure, whose Weyl sums
vanish, so only the measures' own atoms are evaluated; each bound keeps
its |Delta E|^2 at the nodes for a cross-check against the exact formula.
The cuspidal contribution is supplied as external data, and a bound
without it is flagged by `PartialBoundWarning`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._gl import gl_panels
from .arithmetic import (
    SURFACE_AREA,
    DiscreteMeasure,
    geodesic_measure,
    heegner_measure,
    read_table,
)
from .specfun import (
    UnderflowWarning,
    _loggamma,
    bessel_k_imag_many,
    dirichlet_l,
    h_minus,
    h_plus,
    require_fundamental,
    riemann_zeta,
)

_T_MIN = 1e-6
# Gauss-Legendre (panels, nodes per panel) of each half-line of the
# Berry-Esseen t-integral
_T_QUAD = (12, 16)


class FourierTruncationWarning(RuntimeWarning):
    """First omitted Fourier term may exceed the stated tolerance."""


class PartialBoundWarning(UserWarning):
    """The Berry-Esseen bound was evaluated without its cuspidal part."""


def _check_t(t) -> np.ndarray:
    """The values of t as a flat float array; |t| below 1e-6 raises ValueError."""
    ts = np.ravel(np.asarray(t, dtype=float))
    if np.any(np.abs(ts) < _T_MIN):
        raise ValueError(f"|t| must be at least {_T_MIN}; the scattering quotient "
                         "is numerically delicate at t = 0")
    return ts


def _xi_phi(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xi(1 + 2it), phi(t)) from one log xi; xi(s) = pi^{-s/2} Gamma(s/2) zeta(s).

    phi(t) = xi(1 - 2it)/xi(1 + 2it) has the conjugate of its denominator as
    numerator for real t, so it is the pure phase exp(-2i Im log xi(1 + 2it)).
    """
    s = 1.0 + 2j * t
    log_xi = -0.5 * s * math.log(math.pi) + _loggamma(s / 2.0) + np.log(riemann_zeta(s))
    return np.exp(log_xi), np.exp(1j * (-2.0 * log_xi.imag))


def scattering_phi(t):
    """Scattering coefficient phi(1/2 + it), shaped like t; unimodular."""
    return _xi_phi(_check_t(t))[1].reshape(np.shape(t))[()]


def _divisor_lambdas(n_max: int, t: np.ndarray) -> np.ndarray:
    """lam_t(n) = sum_{ad=n} (a/d)^{it} for n = 1..n_max, shaped ``t.shape + (n_max,)``."""
    d = np.repeat(np.arange(1, n_max + 1), n_max // np.arange(1, n_max + 1))
    n = d * (np.arange(d.size) - np.searchsorted(d, d) + 1)  # the multiples of each d
    out = np.zeros(t.shape + (n_max,))
    # unbuffered, in the order of the pairs: each n adds its divisors d in ascending order
    np.add.at(out, (..., n - 1), np.cos(np.multiply.outer(t, np.log(n / (d * d)))))
    return out


def _auto_n_fourier(y_min: float, t: np.ndarray) -> np.ndarray:
    # past 2 pi n y > max(40, |t| + 15) the Bessel factor is in its
    # exponential regime and each further term drops by ~e^{-2 pi y};
    # one extra term keeps the omitted part below 1e-12 relative
    n = np.ceil(np.maximum(40.0, np.abs(t) + 15.0) / (2.0 * math.pi * y_min))
    return np.maximum(1, n).astype(int) + 1


def _eval_sets(sets, t):
    """E(z, 1/2 + it) on each point set (xs, ys) in turn, shaped ``np.shape(t) + xs.shape``.

    xi(1 + 2it), phi(t) and lam_t are computed once for all sets; each set
    takes the Fourier length, lam_t prefix and Bessel grids of its own
    lowest point, and issues at most one ``FourierTruncationWarning``.
    """
    ts = _check_t(t)
    lowest = min(float(ys.min()) for _, ys in sets)
    xi_2s, phis = _xi_phi(ts)
    lams = _divisor_lambdas(int(_auto_n_fourier(lowest, ts).max(initial=1)), ts)
    for xs, ys in sets:
        y_min = float(ys.min())
        sqrt_y = np.sqrt(ys)
        logy = np.log(ys)
        n_fs = _auto_n_fourier(y_min, ts)
        out = np.empty((ts.size,) + xs.shape, dtype=complex)
        worst_omitted = 0.0
        for n_f in np.unique(n_fs).tolist():
            idx = np.flatnonzero(n_fs == n_f)
            ns = np.arange(1, n_f + 1, dtype=float)
            with warnings.catch_warnings():
                # arguments beyond 700 belong to atoms high in the cusp whose
                # Fourier terms are exact zeros at double precision
                warnings.simplefilter("ignore", UnderflowWarning)
                kbs = bessel_k_imag_many(ts[idx], 2.0 * math.pi * np.multiply.outer(ns, ys))
            cos_nx = np.cos(2.0 * math.pi * np.outer(ns, xs))
            for i, kb in zip(idx, kbs):
                xi_2s_i, lam = xi_2s[i], lams[i, :n_f]
                val = sqrt_y * (np.exp(1j * ts[i] * logy) + phis[i] * np.exp(-1j * ts[i] * logy))
                fourier = (lam[:, None] * kb * cos_nx).sum(axis=0)
                val = val + (4.0 / xi_2s_i) * sqrt_y * fourier
                out[i] = val

                # estimate the first omitted term from the last included one: in the
                # exponential regime each n-step loses a factor ~e^{-2 pi y_min}
                last = 4.0 / abs(xi_2s_i) * float((sqrt_y * np.abs(lam[-1] * kb[-1])).max())
                omitted = last * math.exp(-2.0 * math.pi * y_min)
                if omitted > 1e-12 * float(np.abs(val).max() + 1e-300):
                    worst_omitted = max(worst_omitted, omitted)
        if worst_omitted > 0.0:
            warnings.warn(
                f"first omitted Fourier term ~{worst_omitted:.2e} exceeds 1e-12 of the value",
                FourierTruncationWarning, stacklevel=3,
            )
        yield out.reshape(np.shape(t) + xs.shape)


def eisenstein_eval_many(xs: np.ndarray, ys: np.ndarray, t) -> np.ndarray:
    """E(z, 1/2 + it) at an array of points for a scalar or an array of t.

    The result has shape ``np.shape(t) + xs.shape``.  The t values that
    share a Fourier length are passed to the Bessel layer in one call.  A
    call issues at most one ``FourierTruncationWarning``, for its largest
    omitted-term estimate.
    """
    return next(_eval_sets([(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))], t))


def eisenstein_eval(z, t: float) -> complex:
    """E(z, 1/2 + it) at a single point (no reduction is applied)."""
    return complex(eisenstein_eval_many(np.array([z.x]), np.array([z.y]), t)[0])


def weyl_sums_empirical(measures: list[DiscreteMeasure], t) -> list[np.ndarray]:
    """Integrals of E(., 1/2 + it) against each discrete measure, each shaped like t."""
    sets = _eval_sets([(m.xs, m.ys) for m in measures], t)
    return [(m.weights * e).sum(axis=-1) for m, e in zip(measures, sets)]


def weyl_sum_empirical(m: DiscreteMeasure, t) -> np.ndarray:
    """Integrals of E(., 1/2 + it) against a discrete measure, shaped like t."""
    return weyl_sums_empirical([m], t)[0]


def weyl_sum_exact_sq(D: int, t) -> np.ndarray:
    """Exact squared Weyl sums |int E dnu_D|^2 from the L-function identity, shaped like t.

    Equals H_{sgn D}(t) / (4 sqrt|D| L(1, chi_D)^2) times
    |zeta(1/2+it) L(1/2+it, chi_D) / zeta(1+2it)|^2; nonnegative, even in t.
    """
    require_fundamental(D)
    L1 = dirichlet_l(1.0, D).real
    ts = _check_t(t)
    s = 0.5 + 1j * ts
    h = h_minus(ts) if D < 0 else h_plus(ts)
    sq = h / (4.0 * math.sqrt(abs(D)) * L1 * L1) * np.abs(
        riemann_zeta(s) * dirichlet_l(s, D) / riemann_zeta(2.0 * s)) ** 2
    return sq.reshape(np.shape(t))


@dataclass(frozen=True)
class WeylComparison:
    empirical_sq: np.ndarray
    exact_sq: np.ndarray
    ratio: np.ndarray


def weyl_compare(D: int, t, samples_per_unit_length: int = 200) -> WeylComparison:
    """Empirical versus exact squared Weyl sum for the measure of discriminant D.

    For D < 0 the measure is the Heegner-point measure; for D > 0 the
    closed geodesics are sampled at the given rate; the measure is built once
    for all t, and each field is shaped like t.  The headline identity is
    ratio = 1.
    """
    m = heegner_measure(D) if D < 0 else geodesic_measure(D, samples_per_unit_length)
    # |.|^2 on a 1-d array, so a scalar t takes the same numpy loop as an array
    emp = (np.abs(weyl_sum_empirical(m, np.ravel(t))) ** 2).reshape(np.shape(t))
    exact = weyl_sum_exact_sq(D, t)
    return WeylComparison(empirical_sq=emp, exact_sq=exact, ratio=emp / exact)


# ---------------------------------------------------------------------------
# Maass cusp form data (externally supplied) and the Berry-Esseen bound


@dataclass(frozen=True)
class MaassData:
    """Rows (t_f, squared Weyl-sum difference) for the cuspidal spectrum.

    ``weyl_sq_diff`` is |<u_f, mu_1 - mu_2>|^2 for the pair being bounded;
    against Haar measure (no reference) it is the measure's own |<u_f, mu>|^2.
    """

    t_f: np.ndarray
    weyl_sq_diff: np.ndarray

    def __post_init__(self):
        tf = np.asarray(self.t_f, dtype=float)
        wd = np.asarray(self.weyl_sq_diff, dtype=float)
        object.__setattr__(self, "t_f", tf)
        object.__setattr__(self, "weyl_sq_diff", wd)
        if len(tf) != len(wd):
            raise ValueError("t_f and weyl_sq_diff must have equal length")
        if not (np.isfinite(tf).all() and np.isfinite(wd).all()):
            raise ValueError("t_f and weyl_sq_diff must be finite")
        if len(tf) and (np.any(tf <= 0) or np.any(np.diff(tf) <= 0)):
            raise ValueError("t_f must be positive and strictly increasing")
        if np.any(wd < 0):
            raise ValueError("squared Weyl-sum differences must be nonnegative")

    @classmethod
    def load(cls, path: str) -> "MaassData":
        """Read rows "t_f weyl_sq_diff" from a plain-text file; '#' comments."""
        _, rows = read_table(path, 2)
        return cls(*rows.T)


@dataclass(frozen=True)
class BerryEsseenBound:
    """Evaluated right-hand side of the Wasserstein Berry-Esseen inequality.

    ``weyl_sq`` is the integrand's |Delta E(t)|^2 at the quadrature nodes
    ``t_nodes``; against Haar measure it is the measure's own squared Weyl
    sum, which ``weyl_sum_exact_sq`` gives in closed form.
    """

    leading_term: float
    eisenstein_term: float
    cuspidal_term: float
    total: float
    eisenstein_tail_bound: float
    is_partial: bool
    t_nodes: np.ndarray = field(compare=False, repr=False)
    weyl_sq: np.ndarray = field(compare=False, repr=False)


def berry_esseen_rhs_many(
    measures: list[DiscreteMeasure],
    reference: DiscreteMeasure | None,
    T: float,
    data: MaassData | None = None,
) -> list[BerryEsseenBound]:
    """Spectral upper bound 1/T + sqrt(mu) sqrt(cuspidal + eisenstein) per measure.

    Each bound compares one of ``measures`` with ``reference``, whose Weyl
    sums are computed once for all of them.  ``reference=None`` stands for
    exact Haar measure, whose Weyl sums vanish: against cusp forms by
    orthogonality, and against E(., 1/2+it) because its integral over
    {y <= Y} combines Y^{s-1} and phi(t) Y^{-s}, both -> 0 on Re s = 1/2.
    E is then evaluated on the measures' atoms only.  The Eisenstein term is
    (1/4 pi) int e^{-t^2/T^2}/(1/4+t^2) |Delta E(t)|^2 dt over |t| <= t_max,
    t_max = max(3T, 15) (Gauss-Legendre panels; nodes avoid t = 0), with
    the Gaussian tail beyond t_max reported as an analytic bound rather
    than silently dropped.  ``data`` describes one measure: its cuspidal
    term is added to each bound unchanged.  Without cuspidal data the
    results are partial evaluations of the bound, flagged by ``is_partial``
    and by one ``PartialBoundWarning``.
    """
    if T < 1.0:
        raise ValueError("T must be at least 1")

    t_max = max(3.0 * T, 15.0)
    nodes, wts = gl_panels(0.0, t_max, *_T_QUAD)
    sums = weyl_sums_empirical(measures if reference is None else [*measures, reference], nodes)
    ref_sums = 0.0 if reference is None else sums.pop()
    weight = np.exp(-(nodes**2) / (T * T)) / (0.25 + nodes**2)

    partial = data is None or len(data.t_f) == 0
    cusp = 0.0
    if partial:
        warnings.warn("no cuspidal data supplied; the bound is a partial evaluation "
                      "(Eisenstein part only)", PartialBoundWarning, stacklevel=2)
    else:
        w = np.exp(-data.t_f**2 / (T * T)) / (0.25 + data.t_f**2)
        cusp = float((w * data.weyl_sq_diff).sum())

    leading = 1.0 / T
    bounds = []
    for m_sums in sums:
        sq = np.abs(m_sums - ref_sums) ** 2
        # even integrand: both half-lines
        eis = float(2.0 * (wts * weight * sq).sum() / (4.0 * math.pi))

        # tail bound: |Delta E|^2 <= 2 max computed, Gaussian decay past t_max
        m_sq = 2.0 * float(sq.max(initial=0.0))
        tail = (m_sq * math.exp(-t_max * t_max / (T * T)) * T * T
                / (2.0 * t_max * (0.25 + t_max * t_max)))
        tail *= 2.0 / (4.0 * math.pi)

        total = leading + math.sqrt(SURFACE_AREA) * math.sqrt(cusp + eis)
        bounds.append(BerryEsseenBound(
            leading_term=leading,
            eisenstein_term=eis,
            cuspidal_term=cusp,
            total=total,
            eisenstein_tail_bound=tail,
            is_partial=partial,
            t_nodes=nodes,
            weyl_sq=sq,
        ))
    return bounds


def berry_esseen_rhs(
    m1: DiscreteMeasure,
    m2: DiscreteMeasure,
    T: float,
    data: MaassData | None = None,
) -> BerryEsseenBound:
    """The bound of ``berry_esseen_rhs_many`` for the single pair (m1, m2)."""
    return berry_esseen_rhs_many([m1], m2, T, data)[0]
