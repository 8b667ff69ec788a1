"""Tests for the special-function layer."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma, loggamma

from modsurf import specfun
from modsurf._gl import gl_panels
from modsurf.specfun import (
    PoleError,
    UnderflowWarning,
    bessel_k_imag,
    bessel_k_imag_many,
    conical_p,
    dirichlet_l,
    h_minus,
    h_plus,
    h_watson,
    hurwitz_zeta,
    kronecker_symbol,
    riemann_zeta,
)

from oracles import dirichlet_series, laplace_conical_p

# frozen from the high-precision oracles (mpmath at 40 digits)
ZETA_HALF = -1.4603545088095868
HURWITZ_HALF_I_THIRD = 0.5396590525469317 + 0.7068106398172012j
CATALAN = 0.9159655941772190
K0_1 = 0.4210244382407083
K0_2 = 0.1138938727495334
H_WATSON_0_10 = 5.501870419724472


class TestZeta:
    def test_at_two(self):
        assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) < 1e-13

    def test_at_half(self):
        assert abs(riemann_zeta(0.5) - ZETA_HALF) < 1e-12

    def test_conjugate_symmetry(self):
        s = complex(0.5, 3.0)
        assert abs(riemann_zeta(s.conjugate()) - riemann_zeta(s).conjugate()) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            riemann_zeta(1.0)

    def test_doubling_stability(self):
        # the fixed truncation and order are within 1e-10 of zeta in the window
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for s in (0.5, complex(0.5, 10.0), complex(2.0, 100.0), complex(0.5, 900.0)):
                s = complex(s)
                ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
                assert abs(riemann_zeta(s) - ref) < 1e-10

    def test_against_mpmath_window(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for s in (complex(0.5, 1.0), complex(0.75, 30.0), complex(1.0, 2.0),
                  complex(0.5, 1000.0)):
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(riemann_zeta(s) - ref) < 1e-10 * max(1.0, abs(ref))


class TestHurwitz:
    def test_reduces_to_zeta(self):
        assert abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0) < 1e-13

    def test_dyadic_identity(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        assert abs(hurwitz_zeta(2.0, 0.5) - math.pi**2 / 2.0) < 1e-12

    def test_frozen_value(self):
        assert abs(hurwitz_zeta(complex(0.5, 1.0), 1.0 / 3.0) - HURWITZ_HALF_I_THIRD) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 1.5)

    def test_conjugate_symmetry(self):
        s = complex(0.7, 4.0)
        a = 0.37
        assert abs(hurwitz_zeta(s.conjugate(), a) - hurwitz_zeta(s, a).conjugate()) < 1e-12


class TestKronecker:
    def test_chi_minus_four(self):
        assert [kronecker_symbol(-4, n) for n in (1, 3)] == [1, -1]
        assert all(kronecker_symbol(-4, n) == 0 for n in (2, 4, 6))

    def test_chi_five(self):
        assert kronecker_symbol(5, 2) == -1
        assert kronecker_symbol(5, 4) == 1

    def test_multiplicativity_minus_23(self):
        for m in range(1, 51):
            for n in range(1, 51):
                assert kronecker_symbol(-23, m * n) == kronecker_symbol(
                    -23, m
                ) * kronecker_symbol(-23, n)

    def test_periodicity_and_support(self):
        for D in (-4, 5, -23, -8, 12):
            q = abs(D)
            for n in range(1, 2 * q + 1):
                assert kronecker_symbol(D, n) == kronecker_symbol(D, n + q)
                assert (kronecker_symbol(D, n) == 0) == (math.gcd(n, q) > 1)

    def test_against_legendre(self):
        # odd primes not dividing D: chi_D(p) = D^((p-1)/2) mod p
        for D in (-23, 5, -7, 13):
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
                if p == abs(D) or abs(D) % p == 0:
                    continue
                leg = pow(D % p, (p - 1) // 2, p)
                leg = -1 if leg == p - 1 else leg
                assert kronecker_symbol(D, p) == leg


class TestDirichletL:
    def test_leibniz(self):
        assert abs(dirichlet_l(1.0, -4).real - math.pi / 4.0) < 1e-12

    def test_catalan(self):
        val = dirichlet_l(2.0, -4)
        assert abs(val - CATALAN) < 1e-12
        # direct-series oracle (alternating tail below 1e-9)
        oracle = dirichlet_series(2.0, -4, 40000)
        assert abs(val - oracle) < 1e-8

    def test_class_number_normalisation(self):
        h = math.sqrt(23.0) * dirichlet_l(1.0, -23).real / math.pi
        assert abs(h - 3.0) < 1e-8

    def test_direct_series_large_s(self):
        for D in (-7, 5, -23):
            val = dirichlet_l(2.5, D)
            oracle = dirichlet_series(2.5, D, 10**6)
            assert abs(val - oracle) < 1e-8

    def test_conjugate_symmetry(self):
        s = complex(0.5, 2.0)
        v1 = dirichlet_l(s.conjugate(), -7)
        v2 = dirichlet_l(s, -7).conjugate()
        assert abs(v1 - v2) < 1e-10

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            dirichlet_l(2.0, 9)


class TestDirichletLBlocks:
    """dirichlet_l sums its |D| shifts in blocks of ``_L_BLOCK``."""

    D = -100003

    @pytest.fixture(scope="class")
    def blocked(self):
        tracemalloc.start()
        try:
            value = dirichlet_l(0.5 + 1j, self.D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return value, peak

    def test_peak_memory_bounded(self, blocked):
        # one (terms x |D|) array of complex entries would take over 40 MB
        assert blocked[1] < 16e6

    def test_agrees_with_one_block(self, blocked, monkeypatch):
        monkeypatch.setattr(specfun, "_L_BLOCK", abs(self.D))
        single = dirichlet_l(0.5 + 1j, self.D)
        assert abs(blocked[0] - single) <= 1e-13 * abs(single)

    def test_s_array_peak_memory_bounded(self, blocked):
        # an array of s takes the same shift blocks as a single s, one s per call
        s = np.array([0.5 + 1j, 0.5 + 15j])
        tracemalloc.start()
        try:
            values = dirichlet_l(s, self.D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert values[0] == blocked[0]


class TestLFunctionArrays:
    """riemann_zeta and dirichlet_l over an array of s, against one s at a time."""

    S = 0.5 + 1j * np.linspace(0.1, 40.0, 200)

    @pytest.mark.parametrize("D", [-4, -7, -23, 5, 8])
    def test_dirichlet_l_array_equals_per_s(self, D):
        many = dirichlet_l(self.S, D)
        one = np.array([dirichlet_l(s, D) for s in self.S.tolist()])
        assert many.shape == self.S.shape
        assert np.all(np.abs(many - one) <= 1e-14 * np.abs(one))

    def test_riemann_zeta_array_equals_per_s(self):
        for s in (self.S, 2.0 * self.S):
            many = riemann_zeta(s)
            assert many.shape == s.shape
            assert np.array_equal(many, [riemann_zeta(v) for v in s.tolist()])

    def test_digamma_path_inside_an_array(self):
        s = np.array([[1.0, 0.5 + 2j], [2.0, 1.0]])
        values = dirichlet_l(s, -23)
        assert values.shape == (2, 2)
        assert values[0, 0] == values[1, 1] == dirichlet_l(1.0, -23)
        assert values[1, 0] == dirichlet_l(2.0, -23)

    def test_scalar_s_gives_a_complex(self):
        assert type(riemann_zeta(2.0)) is complex
        assert type(dirichlet_l(0.5 + 1j, -7)) is complex
        assert type(dirichlet_l(1.0, -7)) is complex


class TestBesselK:
    def test_frozen_values(self):
        assert abs(bessel_k_imag(0.0, 1.0) - K0_1) < 1e-8
        assert abs(bessel_k_imag(0.0, 2.0) - K0_2) < 1e-8

    def test_even_in_order(self):
        assert abs(bessel_k_imag(1.3, 0.7) - bessel_k_imag(-1.3, 0.7)) < 1e-12

    def test_underflow_guard(self):
        with pytest.warns(UnderflowWarning):
            assert bessel_k_imag(1.0, 701.0) == 0.0

    def test_vectorised_consistency(self):
        xs = np.array([0.5, 1.0, 3.0, 10.0])
        many = bessel_k_imag_many(2.0, xs)
        for x, v in zip(xs, many):
            assert abs(bessel_k_imag(2.0, float(x)) - v) < 1e-14

    def test_batched_orders_equal_per_order_calls(self):
        # at x_min = 0.5 these orders use six theta-grids (11 to 84 panels),
        # with 0.2 and 3.0 sharing one; 701 and 900 lie past the clamp
        taus = np.array([0.2, 3.0, 6.5, 12.0, 12.5, 25.0, 40.0])
        xs = np.array([[0.5, 2.0, 9.0], [30.0, 701.0, 900.0]])
        with pytest.warns(UnderflowWarning):
            batched = bessel_k_imag_many(taus, xs)
        assert batched.shape == (7, 2, 3)
        assert np.all(batched[:, 1, 1:] == 0.0)
        for tau, row in zip(taus, batched):
            with pytest.warns(UnderflowWarning):
                assert np.array_equal(row, bessel_k_imag_many(float(tau), xs))

    def test_batched_orders_equal_single_order_quadrature(self):
        def single_order(tau, xs):
            theta_max = math.acosh(1.0 + 46.0 / xs.min())
            h = min(0.5, 2.5 / max(1.0, abs(tau)))
            nodes, wts = gl_panels(0.0, theta_max, max(4, math.ceil(theta_max / h)), 16)
            ker = np.exp(-np.multiply.outer(xs, np.cosh(nodes)))
            return ker @ (wts * np.cos(tau * nodes))

        taus = np.array([0.5, 4.0, 9.0, 15.0])
        xs = 2.0 * math.pi * np.outer(np.arange(1.0, 10.0), [0.9, 1.7, 6.0]).ravel()
        for tau, row in zip(taus, bessel_k_imag_many(taus, xs)):
            assert np.array_equal(row, single_order(float(tau), xs))

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for tau, x in ((0.5, 0.3), (5.0, 2.0), (12.0, 7.0)):
            ref = complex(mp.besselk(mp.mpc(0, tau), x)).real
            assert abs(bessel_k_imag(tau, x) - ref) < 1e-10 * max(abs(ref), 1e-8)


class TestConicalP:
    def test_at_argument_one(self):
        for t in (0.0, 0.8, 13.0):
            assert conical_p(t, 0.0) == 1.0

    def test_against_laplace_oracle(self):
        val = conical_p(0.8, 1.0)
        oracle = laplace_conical_p(0.8, 1.0)
        assert abs(val - oracle) < 1e-8

    def test_even_in_t(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t = rng.uniform(0.1, 8.0)
            u = rng.uniform(0.0, 3.0)
            assert abs(conical_p(t, u) - conical_p(-t, u)) < 1e-10

    def test_monotone_decreasing_at_t_zero(self):
        us = np.linspace(0.0, 4.0, 40)
        vals = [conical_p(0.0, float(u)) for u in us]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_oracle_agreement_sweep(self):
        for t, u in ((0.0, 0.2), (2.5, 0.05), (5.0, 1.7), (10.0, 3.0)):
            assert abs(conical_p(t, u) - laplace_conical_p(t, u)) < 1e-8

    def test_array_equals_scalar_calls(self):
        # t and u broadcast; the pairs of different panel counts, and u = 0,
        # give each element the value of its own scalar call
        ts = np.array([0.0, 0.3, -1.7, 5.0, 9.9, 25.0])
        us = np.array([0.0, 1e-8, 0.1, 1.0, 3.0, 40.0])
        for t, u in ((ts[:, None], us), (ts, 0.7), (2.5, us)):
            many = conical_p(t, u)
            tb, ub = np.broadcast_arrays(t, u)
            assert many.shape == tb.shape
            assert all(many[i] == conical_p(float(tb[i]), float(ub[i])) for i in np.ndindex(tb.shape))


class TestLogGammaDigamma:
    # scipy.special is the independent route; the runtime does not import it

    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    def test_loggamma_against_scipy(self, sigma):
        # 1e-13 relative, or absolute where |log Gamma| < 1; on the principal
        # branch the imaginary part reaches about 190 at |t| = 60
        z = sigma + 1j * np.linspace(-60.0, 60.0, 200001)
        ref = loggamma(z)
        assert np.all(np.abs(specfun._loggamma(z) - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))

    @pytest.mark.parametrize("q", [7, 1003, 10**6])
    def test_digamma_at_rationals_against_scipy(self, q):
        x = np.arange(1, q + 1) / q
        ref = digamma(x)
        assert np.all(np.abs(specfun._digamma(x) - ref) <= 1e-13 * np.abs(ref))

    def test_loggamma_keeps_shape_and_bits(self):
        z = np.array([[0.25 + 3j, 0.5 - 7.5j], [1.0 + 0j, 12.0 + 0.1j]])
        values = specfun._loggamma(z)
        assert values.shape == z.shape
        assert all(values[i] == specfun._loggamma(complex(z[i])) for i in np.ndindex(z.shape))
        assert np.ndim(specfun._loggamma(0.5 + 1j)) == 0
        assert abs(specfun._loggamma(1.0)) < 1e-14
        assert abs(specfun._digamma(1.0) + np.euler_gamma) < 1e-15


class TestGammaFactors:
    def test_h_minus_constant(self):
        assert h_minus(7.3) == 2.0 * math.pi**2
        assert h_minus(0.0) == h_minus(100.0)

    def test_h_plus_at_zero(self):
        expected = math.gamma(0.25) ** 4 / math.pi
        assert abs(h_plus(0.0) - expected) < 1e-10 * expected

    def test_h_plus_decay_envelope(self):
        # sweep-fitted constant: H_+(t)(1+|t|) stays below 1.2 H_+(0)
        cap = 1.2 * h_plus(0.0)
        for t in (0.0, 1.0, 5.0, 20.0, 100.0):
            assert h_plus(t) * (1.0 + abs(t)) <= cap

    def test_h_plus_array_equals_scalar_calls(self):
        ts = np.linspace(-30.0, 30.0, 101)
        assert np.array_equal(h_plus(ts), [h_plus(t) for t in ts.tolist()])
        assert np.array_equal(h_minus(ts), np.full(ts.shape, h_minus(1.0)))

    def test_h_plus_even_positive(self):
        for t in (0.3, 2.0, 9.0):
            assert h_plus(t) > 0
            assert abs(h_plus(t) - h_plus(-t)) < 1e-12 * h_plus(t)

    def test_h_watson_even(self):
        a = h_watson(1.3, 9.5)
        b = h_watson(-1.3, 9.5)
        assert abs(a - b) < 1e-10 * a

    def test_h_watson_array_equals_scalar_calls(self):
        ts = np.linspace(-70.0, 70.0, 141)
        for t_g in (20.0, 9.5, 3.3):
            assert np.array_equal(h_watson(ts, t_g), [h_watson(t, t_g) for t in ts.tolist()])

    def test_h_watson_frozen(self):
        assert abs(h_watson(0.0, 10.0) - H_WATSON_0_10) < 1e-8 * H_WATSON_0_10

    def test_h_watson_stirling_regimes(self):
        # four-regime envelope at t_g = 20 with a single sweep-fitted constant
        t_g = 20.0

        def envelope(t):
            t = abs(t)
            if t <= t_g:
                return 1.0 / ((1.0 + t) * t_g)
            if t <= 2 * t_g:
                return 1.0 / ((1.0 + 2 * t_g - t) ** 0.5 * t_g**1.5)
            if t <= 3 * t_g:
                return math.exp(-math.pi * (t - 2 * t_g)) / (
                    (1.0 + t - 2 * t_g) ** 0.5 * t**1.5
                )
            return math.exp(-math.pi * (t - 2 * t_g)) / t**2

        ts = (1.0, 25.0, 45.0, 70.0)
        ratios = [h_watson(t, t_g) / envelope(t) for t in ts]
        c = max(ratios)
        assert all(h_watson(t, t_g) <= c * envelope(t) * (1 + 1e-12) for t in ts)
        # envelope shape: the fitted constant is tight within two orders
        assert c / min(ratios) < 100.0

    def test_h_watson_requires_positive_tg(self):
        with pytest.raises(ValueError):
            h_watson(1.0, 0.0)
