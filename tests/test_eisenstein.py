"""Tests for Eisenstein evaluation, Weyl sums, and the spectral bound."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from modsurf import cli, eisenstein
from modsurf._gl import gl_panels
from modsurf.arithmetic import (
    DiscreteMeasure,
    geodesic_measure,
    haar_discretization,
    heegner_measure,
)
from modsurf.eisenstein import (
    FourierTruncationWarning,
    MaassData,
    PartialBoundWarning,
    berry_esseen_rhs,
    berry_esseen_rhs_many,
    eisenstein_eval,
    eisenstein_eval_many,
    scattering_phi,
    weyl_compare,
    weyl_sum_empirical,
    weyl_sum_exact_sq,
)
from modsurf.hypgeo import Point
from modsurf.specfun import dirichlet_l, h_minus, riemann_zeta
from oracles import GEN_S, GEN_T, divisor_lambda, mobius_apply

DEFAULT_DUKE_DISCRIMINANTS = (-7, -8, -11, -15, -20, -23, -24)

# frozen from the completed-zeta quotient at 40 digits
PHI_AT_1 = 0.5231271516943812 - 0.8522546468985217j


class TestScattering:
    def test_unimodular(self):
        for t in (0.5, 1.0, 5.0):
            assert abs(abs(scattering_phi(t)) - 1.0) < 1e-9

    def test_phase_product(self):
        phi = scattering_phi(1.7)
        assert abs(phi * phi.conjugate() - 1.0) < 5e-16

    def test_frozen_value(self):
        assert abs(scattering_phi(1.0) - PHI_AT_1) < 1e-9

    def test_refuses_tiny_t(self):
        with pytest.raises(ValueError):
            scattering_phi(1e-9)

    def test_array_equals_scalar_calls(self):
        ts = np.array([[0.3, -2.0, 7.5], [14.9, 35.0, -1e-6]])
        many = scattering_phi(ts)
        assert many.shape == ts.shape
        assert np.array_equal(many, [[scattering_phi(t) for t in row] for row in ts.tolist()])


class TestEisensteinEval:
    def test_divisor_lambdas_against_trial_division(self):
        ts = np.array([0.5, -3.7, 14.9])
        lam = eisenstein._divisor_lambdas(40, ts)
        assert lam.shape == (3, 40)
        for row, t in zip(lam, ts.tolist()):
            assert np.abs(row - [divisor_lambda(n, t) for n in range(1, 41)]).max() <= 1e-15

    def test_automorphy(self):
        z = Point(0.3, 1.4)
        for t in (1.0, 2.0):
            e = eisenstein_eval(z, t)
            e_s = eisenstein_eval(mobius_apply(GEN_S, z), t)
            e_t = eisenstein_eval(mobius_apply(GEN_T, z), t)
            assert abs(e_s - e) <= 1e-8
            assert abs(e_t - e) <= 1e-8

    def test_conjugation(self):
        z = Point(0.21, 1.1)
        e_plus = eisenstein_eval(z, 1.3)
        e_minus = eisenstein_eval(z, -1.3)
        assert abs(e_minus - e_plus.conjugate()) < 1e-10

    def test_truncation_stability(self, monkeypatch):
        z = Point(0.0, 1.0)
        monkeypatch.setattr(eisenstein, "_auto_n_fourier", lambda y_min, t: np.full(t.shape, 8))
        a = eisenstein_eval(z, 2.0)
        monkeypatch.setattr(eisenstein, "_auto_n_fourier", lambda y_min, t: np.full(t.shape, 16))
        b = eisenstein_eval(z, 2.0)
        assert abs(a - b) <= 1e-10

    def test_automorphy_random_points(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            z = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 2.5)))
            t = float(rng.uniform(0.3, 3.0))
            e = eisenstein_eval(z, t)
            for g in (GEN_S, GEN_T):
                assert abs(eisenstein_eval(mobius_apply(g, z), t) - e) <= 1e-8


class TestWeylSumEmpirical:
    def test_point_mass(self):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        for t in (0.7, 2.0):
            assert abs(weyl_sum_empirical(m, t) - eisenstein_eval(Point(0, 1), t)) < 1e-14

    def test_heegner_minus_four(self):
        m = heegner_measure(-4)
        assert abs(weyl_sum_empirical(m, 1.0) - eisenstein_eval(Point(0, 1), 1.0)) < 1e-14

    def test_linearity(self):
        m1 = heegner_measure(-4)
        m2 = heegner_measure(-8)
        mix = DiscreteMeasure(
            np.concatenate([m1.xs, m2.xs]),
            np.concatenate([m1.ys, m2.ys]),
            np.concatenate([0.5 * m1.weights, 0.5 * m2.weights]),
        )
        t = 1.1
        lhs = weyl_sum_empirical(mix, t)
        rhs = 0.5 * weyl_sum_empirical(m1, t) + 0.5 * weyl_sum_empirical(m2, t)
        assert abs(lhs - rhs) < 1e-12


class TestWeylSumExact:
    def test_even_in_t(self):
        a = weyl_sum_exact_sq(-23, 1.7)
        b = weyl_sum_exact_sq(-23, -1.7)
        assert abs(a - b) < 1e-10 * max(a, 1.0)

    def test_independent_assembly_minus_four(self):
        t = 1.0
        val = weyl_sum_exact_sq(-4, t)
        s = complex(0.5, t)
        num = riemann_zeta(s) * dirichlet_l(s, -4)
        den = riemann_zeta(complex(1.0, 2.0 * t))
        expected = (
            h_minus(t) / (4.0 * 2.0 * (math.pi / 4.0) ** 2) * abs(num / den) ** 2
        )
        assert abs(val - expected) < 1e-12 * expected

    def test_nonnegative_sweep(self):
        for D in (-7, -23, 5):
            for t in (0.5, 1.0, 2.0, 3.5):
                assert weyl_sum_exact_sq(D, t) >= 0.0


class TestWeylCompare:
    def test_headline_identity_negative(self):
        for D in (-7, -23):
            for t in (0.5, 1.0, 2.0):
                c = weyl_compare(D, t)
                assert abs(c.ratio - 1.0) <= 1e-3

    def test_unit_discriminants_constant_ratio(self):
        for D in (-3, -4):
            ratios = [weyl_compare(D, t).ratio for t in (0.5, 1.0, 2.0)]
            assert max(ratios) - min(ratios) <= 1e-3
            # the recorded offset: the unit weights cancel and the constant is 1
            assert abs(ratios[0] - 1.0) <= 1e-3

    def test_geodesic_case(self):
        c = weyl_compare(5, 1.0, samples_per_unit_length=200)
        assert abs(c.ratio - 1.0) <= 5e-3

    def test_long_geodesic(self):
        # the cycle-arc construction stays accurate when the closed
        # geodesic is far longer than the float walk could follow
        c = weyl_compare(97, 1.0, samples_per_unit_length=100)
        assert abs(c.ratio - 1.0) <= 5e-3

    def test_full_window_invariant(self):
        # every fundamental -30 <= D <= -5 at the three t values
        from modsurf.arithmetic import is_fundamental

        ds = [D for D in range(-5, -31, -1) if is_fundamental(D)]
        assert ds  # the window is nonempty
        for D in ds:
            for t in (0.5, 1.0, 2.0):
                assert abs(weyl_compare(D, t).ratio - 1.0) <= 1e-3, (D, t)


class TestMaassData:
    def test_load(self, tmp_path):
        p = tmp_path / "maass.txt"
        p.write_text("# cuspidal rows\n5.0 0.01\n9.5 0.002\n\n13.8 0.0005\n")
        data = MaassData.load(str(p))
        assert len(data.t_f) == 3
        np.testing.assert_allclose(data.t_f, [5.0, 9.5, 13.8])

    def test_strictly_increasing_enforced(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("5.0 0.01\n5.0 0.002\n")
        with pytest.raises(ValueError):
            MaassData.load(str(p))

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "bad2.txt"
        p.write_text("5.0 0.01 7\n")
        with pytest.raises(ValueError):
            MaassData.load(str(p))

    @pytest.mark.parametrize("t_f, weyl_sq_diff", [([9.53, math.nan], [0.01, 0.002]),
                                                   ([9.53], [math.inf])])
    def test_non_finite_rejected(self, t_f, weyl_sq_diff):
        with pytest.raises(ValueError, match="finite"):
            MaassData(np.array(t_f), np.array(weyl_sq_diff))


class TestBerryEsseen:
    def test_identical_measures(self):
        m = heegner_measure(-23)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = berry_esseen_rhs(m, m, 2.0)
        assert b.eisenstein_term == 0.0
        assert b.cuspidal_term == 0.0
        assert b.total == b.leading_term == 0.5
        assert b.is_partial

    def test_quadrature_refinement(self, monkeypatch):
        m1 = heegner_measure(-23)
        m2 = haar_discretization(24, 18, 20.0)
        assert eisenstein._T_QUAD == (12, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = berry_esseen_rhs(m1, m2, 2.0)
            monkeypatch.setattr(eisenstein, "_T_QUAD", (24, 16))
            b = berry_esseen_rhs(m1, m2, 2.0)
        assert abs(a.eisenstein_term - b.eisenstein_term) <= 1e-6

    def test_cuspidal_monotonicity(self):
        m1 = heegner_measure(-23)
        m2 = haar_discretization(16, 12, 20.0)
        data = MaassData(np.array([9.533]), np.array([0.01]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = berry_esseen_rhs(m1, m2, 2.0)
        richer = berry_esseen_rhs(m1, m2, 2.0, data=data)
        assert richer.total > base.total
        assert not richer.is_partial

    def test_partial_warning(self):
        m = heegner_measure(-7)
        m2 = heegner_measure(-8)
        with pytest.warns(UserWarning):
            berry_esseen_rhs(m, m2, 1.0)

    def test_t_max_is_three_T(self, monkeypatch):
        # past T = 5 the t-integral runs to 3T, here 18, instead of 15
        spans = []

        def recording_panels(a, b, *rest):
            spans.append((a, b))
            return gl_panels(a, b, *rest)

        monkeypatch.setattr(eisenstein, "gl_panels", recording_panels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialBoundWarning)
            b = berry_esseen_rhs(heegner_measure(-7), heegner_measure(-8), 6.0)
        assert spans == [(0.0, 18.0)]
        assert b.eisenstein_term > 0.0 and math.isfinite(b.total)

    def test_tail_bound_reported(self):
        m1 = heegner_measure(-7)
        m2 = heegner_measure(-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = berry_esseen_rhs(m1, m2, 1.0)
        assert b.eisenstein_tail_bound >= 0.0
        assert b.eisenstein_tail_bound < 1e-6 * max(b.eisenstein_term, 1e-30)


class TestBatchedT:
    def test_eval_many_over_t_equals_per_t_calls(self):
        # y_max = 20 puts Bessel arguments past the clamp; t = 35 needs a
        # longer Fourier expansion than the others
        m = haar_discretization(8, 6, 20.0)
        ts = np.array([0.3, -2.0, 7.5, 14.9, 35.0])
        batched = eisenstein_eval_many(m.xs, m.ys, ts)
        assert batched.shape == (5, len(m))
        for t, row in zip(ts, batched):
            assert np.array_equal(row, eisenstein_eval_many(m.xs, m.ys, float(t)))

    def test_weyl_compare_over_t_equals_per_t_calls(self, monkeypatch):
        ts = np.array([0.5, -1.5, 3.0])
        for D in (-7, 5, -4):
            c = weyl_compare(D, ts, samples_per_unit_length=50)
            assert c.ratio.shape == ts.shape
            for i, t in enumerate(ts.tolist()):
                one = weyl_compare(D, t, samples_per_unit_length=50)
                assert c.empirical_sq[i] == one.empirical_sq
                assert c.exact_sq[i] == one.exact_sq
                assert c.ratio[i] == one.ratio
        builds = []
        for name in ("heegner_measure", "geodesic_measure"):
            build = getattr(eisenstein, name)
            monkeypatch.setattr(eisenstein, name,
                                lambda *a, build=build: builds.append(a) or build(*a))
        weyl_compare(-7, ts)
        weyl_compare(5, ts, samples_per_unit_length=50)
        assert builds == [(-7,), (5, 50)]

    def test_weyl_compare_one_l1_per_discriminant(self, monkeypatch):
        # L(1, chi_D) once, then L(1/2 + it, chi_D) for every t in one array call
        calls = []
        l_fn = eisenstein.dirichlet_l
        monkeypatch.setattr(eisenstein, "dirichlet_l",
                            lambda s, D: calls.append((s if np.ndim(s) == 0 else np.shape(s), D))
                            or l_fn(s, D))
        ts = np.array([0.5, -1.5, 3.0])
        for D in (-7, 5):
            weyl_compare(D, ts, samples_per_unit_length=50)
        assert calls == [(1.0, -7), (ts.shape, -7), (1.0, 5), (ts.shape, 5)]

    def test_one_zeta_per_t(self, monkeypatch):
        # xi(1 + 2it) and phi(t) come from one log xi, for every t in one zeta call
        calls = []
        zeta = eisenstein.riemann_zeta
        monkeypatch.setattr(eisenstein, "riemann_zeta", lambda s: calls.append(s) or zeta(s))
        m = heegner_measure(-23)
        ts = np.array([0.3, -2.0, 7.5, 14.9, 3.0])
        eisenstein_eval_many(m.xs, m.ys, ts)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 1.0 + 2j * ts)

    def test_rhs_many_equals_pairwise(self):
        # the data describes one measure; the many form adds it to each bound
        grid = haar_discretization(12, 10, 20.0)
        ms = [heegner_measure(-4), heegner_measure(-23), geodesic_measure(5, 20)]
        data = MaassData(np.array([9.533]), np.array([0.01]))
        many = berry_esseen_rhs_many(ms, grid, 2.0, data)
        assert many == [berry_esseen_rhs(m, grid, 2.0, data) for m in ms]

    @pytest.mark.parametrize("n_measures", [1, 7])
    def test_rhs_many_one_zeta_per_t_node(self, monkeypatch, n_measures):
        # xi(1 + 2it) and phi(t) are shared by the reference and every measure
        calls = []
        zeta = eisenstein.riemann_zeta
        monkeypatch.setattr(eisenstein, "riemann_zeta", lambda s: calls.append(s) or zeta(s))
        ms = [heegner_measure(D) for D in DEFAULT_DUKE_DISCRIMINANTS[:n_measures]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialBoundWarning)
            berry_esseen_rhs_many(ms, haar_discretization(8, 6, 10.0), 1.0)
        assert len(calls) == 1
        nodes = calls[0].tolist()
        assert len(set(nodes)) == len(nodes) == 12 * 16 == math.prod(eisenstein._T_QUAD)

    def test_rhs_many_peak_memory_bounded(self):
        # the default duke run; forming the (t, Fourier term, point) product
        # in one array instead of one t at a time takes about 55 MB
        grid = haar_discretization(40, 30, 20.0)
        ms = [heegner_measure(D) for D in DEFAULT_DUKE_DISCRIMINANTS]
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PartialBoundWarning)
                berry_esseen_rhs_many(ms, grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_truncation_warning_reaches_caller(self, monkeypatch):
        grid = haar_discretization(8, 6, 10.0)
        data = MaassData(np.array([9.533]), np.array([0.01]))
        monkeypatch.setattr(eisenstein, "_auto_n_fourier", lambda y_min, t: np.full(t.shape, 2))
        with pytest.warns(FourierTruncationWarning):
            berry_esseen_rhs_many([heegner_measure(-7)], grid, 1.0, data)

    def test_partial_bound_warning_class(self):
        with pytest.warns(PartialBoundWarning):
            bounds = berry_esseen_rhs_many([heegner_measure(-7)], heegner_measure(-8), 1.0)
        assert bounds[0].is_partial


class TestHaarReference:
    """berry_esseen_rhs_many without a reference bounds the distance to Haar measure."""

    def test_default_duke_evaluates_only_the_measures_atoms(self, tmp_path, monkeypatch):
        sets_seen, bessel_calls = [], []
        eval_sets, bessel = eisenstein._eval_sets, eisenstein.bessel_k_imag_many

        def recording_sets(sets, t):
            sets_seen.extend(sets)
            return eval_sets(sets, t)

        def recording_bessel(tau, xs):
            bessel_calls.append(xs)
            return bessel(tau, xs)

        monkeypatch.setattr(eisenstein, "_eval_sets", recording_sets)
        monkeypatch.setattr(eisenstein, "bessel_k_imag_many", recording_bessel)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["duke", "--out", "d.csv"]) == 0

        measures = [heegner_measure(D) for D in DEFAULT_DUKE_DISCRIMINANTS]
        atoms = {(x, y) for m in measures for x, y in zip(m.xs.tolist(), m.ys.tolist())}
        grid = haar_discretization(40, 30, 20.0)
        seen = [(x, y) for xs, ys in sets_seen for x, y in zip(xs.tolist(), ys.tolist())]
        assert len(seen) == sum(len(m) for m in measures) == 12
        assert set(seen) == atoms
        assert not atoms & set(zip(grid.xs.tolist(), grid.ys.tolist()))
        # each Bessel call takes one measure's atoms; its first row is 2 pi y
        heights = np.array(sorted(y for _, y in atoms))
        assert bessel_calls
        for xs in bessel_calls:
            assert xs.shape[-1] in {len(m) for m in measures}
            ys = xs[0] / (2.0 * math.pi)
            assert np.abs(heights[:, None] - ys).min(axis=0).max() <= 1e-14

    @pytest.mark.parametrize("D", [-7, 5])
    def test_eisenstein_term_is_the_exact_formula(self, D):
        m = heegner_measure(D) if D < 0 else geodesic_measure(D, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialBoundWarning)
            b = berry_esseen_rhs_many([m], None, 1.0)[0]
        # at T = 1 the t-integral runs over [0, 15] on the same Gauss-Legendre panels
        nodes, wts = gl_panels(0.0, 15.0, 12, 16)
        weight = np.exp(-(nodes**2)) / (0.25 + nodes**2)
        exact = 2.0 * (wts * weight * weyl_sum_exact_sq(D, nodes)).sum() / (4.0 * math.pi)
        assert abs(b.eisenstein_term - exact) <= 1e-7 * exact
        assert np.array_equal(b.t_nodes, nodes)

    @pytest.mark.parametrize("D", [-7, -23, -24, 5])
    def test_tail_bound_covers_the_exact_formula_past_t_max(self, D):
        m = heegner_measure(D) if D < 0 else geodesic_measure(D, 200)
        for T in (1.0, 5.0, 8.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PartialBoundWarning)
                # at T = 8 the nodes reach t = 24, where the omitted-term
                # estimate can pass 1e-12; the truncation is not checked here
                warnings.simplefilter("ignore", FourierTruncationWarning)
                b = berry_esseen_rhs_many([m], None, T)[0]
            t_max = max(3.0 * T, 15.0)
            nodes, wts = gl_panels(t_max, t_max + 30.0, 30, 16)
            weight = np.exp(-((nodes / T) ** 2)) / (0.25 + nodes**2)
            tail = 2.0 * (wts * weight * weyl_sum_exact_sq(D, nodes)).sum() / (4.0 * math.pi)
            assert 0.0 < tail <= b.eisenstein_tail_bound, (T, tail, b.eisenstein_tail_bound)

    def test_haar_reference_equals_a_zero_weyl_sum_reference(self, monkeypatch):
        # against a reference whose Weyl sums are all zero, the bound is the same
        ms = [heegner_measure(-7), geodesic_measure(5, 20)]
        point = DiscreteMeasure(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        empirical = eisenstein.weyl_sums_empirical

        def zero_reference(measures, t):
            sums = empirical(measures, t)
            return [np.zeros_like(s) if m is point else s for m, s in zip(measures, sums)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialBoundWarning)
            haar = berry_esseen_rhs_many(ms, None, 2.0)
            monkeypatch.setattr(eisenstein, "weyl_sums_empirical", zero_reference)
            zero = berry_esseen_rhs_many(ms, point, 2.0)
        assert haar == zero
        for h, z in zip(haar, zero):
            assert np.array_equal(h.weyl_sq, z.weyl_sq)
