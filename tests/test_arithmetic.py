"""Tests for quadratic forms, Heegner points, geodesics, and measures."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from modsurf import arithmetic
from modsurf.arithmetic import (
    DiscreteMeasure,
    QuadraticForm,
    class_number,
    closed_geodesics,
    geodesic_measure,
    haar_discretization,
    heegner_measure,
    is_fundamental,
    load_measure,
    pell_fundamental,
    read_table,
    reduced_forms,
    save_measure,
)
from modsurf.eisenstein import MaassData
from modsurf.hypgeo import Point
from modsurf.specfun import dirichlet_l
from modsurf.transport import load_plan

from oracles import cube_root_pell, distance, geodesic_path_points, inverse, mobius_apply


class TestFundamental:
    def test_classics(self):
        assert is_fundamental(-4)
        assert is_fundamental(-3)
        assert is_fundamental(5)
        assert is_fundamental(8)

    def test_square(self):
        assert not is_fundamental(9)
        assert not is_fundamental(1)
        assert not is_fundamental(0)

    def test_minus_twelve(self):
        assert not is_fundamental(-12)

    def test_envelope(self):
        # |D| <= 1e6; past it the error comes before any trial division
        assert not is_fundamental(-10**6)
        for D in (-10**6 - 3, 10**6 + 1, -1000000000000000003):
            with pytest.raises(ValueError, match="at most"):
                is_fundamental(D)

    def test_sweep_consistency(self):
        # fundamental iff it is the discriminant of some primitive form system:
        # spot check against the classical list
        known = {-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, 5, 8, 12, 13, 17, 21, 24}
        for D in range(-24, 25):
            if D in known:
                assert is_fundamental(D), D
            elif D in {-1, -2, -5, -6, -9, -10, 0, 1, 4, 9, 16, 25}:
                assert not is_fundamental(D), D


class TestReducedForms:
    def test_minus_four(self):
        forms = reduced_forms(-4)
        assert [(f.a, f.b, f.c) for f in forms] == [(1, 0, 1)]

    def test_minus_twenty_three(self):
        forms = reduced_forms(-23)
        assert {(f.a, f.b, f.c) for f in forms} == {(1, 1, 6), (2, -1, 3), (2, 1, 3)}

    def test_positive_five(self):
        assert class_number(5) == 1

    def test_class_numbers(self):
        assert class_number(-4) == 1
        assert class_number(-23) == 3
        # classical values
        assert class_number(-47) == 5
        assert class_number(-163) == 1

    def test_discriminant_invariant(self):
        for D in (-4, -23, -47, 5, 12):
            for f in reduced_forms(D):
                assert f.discriminant == D
                assert math.gcd(math.gcd(f.a, f.b), f.c) == 1

    def test_class_number_formula_sweep(self):
        # w = 6, 4, 2 for D = -3, -4, and below
        count = 0
        for D in range(-3, -201, -1):
            if not is_fundamental(D):
                continue
            count += 1
            w = 6 if D == -3 else 4 if D == -4 else 2
            h_formula = w * math.sqrt(-D) * dirichlet_l(1.0, D).real / (2.0 * math.pi)
            assert abs(class_number(D) - h_formula) < 1e-6, D
        assert count >= 20


class TestPellAndGeodesics:
    def test_pell_five(self):
        assert pell_fundamental(5) == (3, 1)

    def test_pell_eight(self):
        assert pell_fundamental(8) == (6, 2)

    def test_pell_sweep(self):
        for D in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 53, 56, 57, 60):
            t, u = pell_fundamental(D)
            assert t * t - D * u * u == 4
            # minimality: no smaller positive solution
            for uu in range(1, u):
                tt2 = D * uu * uu + 4
                tt = math.isqrt(tt2)
                assert tt * tt != tt2

    def test_matches_cube_root_oracle(self):
        for D in range(5, 5001):
            if is_fundamental(D):
                assert pell_fundamental(D) == cube_root_pell(D), D

    def test_period_guard(self, monkeypatch):
        # D = 604 = 4 * 151 takes 20 partial quotients
        monkeypatch.setattr(arithmetic, "_PELL_MAX_PERIOD", 20)
        assert pell_fundamental(604) == (3456296080, 140634693)
        monkeypatch.setattr(arithmetic, "_PELL_MAX_PERIOD", 19)
        with pytest.raises(RuntimeError):
            pell_fundamental(604)

    def test_lengths(self):
        g5 = closed_geodesics(5)[0]
        assert abs(g5.length - 2.0 * math.log((3 + math.sqrt(5)) / 2)) < 1e-12
        g8 = closed_geodesics(8)[0]
        assert abs(g8.length - 2.0 * math.log(3 + 2 * math.sqrt(2))) < 1e-12

    def test_automorph_fixes_endpoints(self):
        for D in (5, 8, 13, 21):
            for g in closed_geodesics(D):
                for e in g.endpoints:
                    a, b = g.automorph.a, g.automorph.b
                    c, d = g.automorph.c, g.automorph.d
                    image = (a * e + b) / (c * e + d)
                    assert abs(image - e) < 1e-10

    def test_trace_matches_pell_and_lengths_equal(self):
        for D in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 53, 56, 57, 60):
            t, u = pell_fundamental(D)
            geos = closed_geodesics(D)
            lengths = {round(g.length, 12) for g in geos}
            assert len(lengths) == 1
            for g in geos:
                assert g.automorph.a + g.automorph.d == t


class TestHeegnerMeasure:
    def test_minus_four(self):
        m = heegner_measure(-4)
        assert len(m) == 1
        np.testing.assert_allclose([m.xs[0], m.ys[0]], [0.0, 1.0], atol=1e-15)
        assert m.weights[0] == 1.0

    def test_minus_three_corner(self):
        # canonical corner representative per the reduction tie-break
        m = heegner_measure(-3)
        assert len(m) == 1
        np.testing.assert_allclose([m.xs[0], m.ys[0]], [-0.5, math.sqrt(3) / 2],
                                   atol=1e-15)

    def test_minus_twenty_three(self):
        m = heegner_measure(-23)
        assert len(m) == 3
        np.testing.assert_allclose(m.weights, 1.0 / 3.0)
        pts = sorted(zip(m.xs, m.ys))
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            assert (x1, y1) != (x2, y2)

    def test_atom_count_is_class_number(self):
        for D in (-7, -15, -23, -47, -71):
            assert len(heegner_measure(D)) == class_number(D)


class TestGeodesicMeasure:
    def test_total_mass(self):
        m = geodesic_measure(5, 100)
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_arclength_reconstruction(self):
        geo = closed_geodesics(5)[0]
        zs = geodesic_path_points(geo, 200)
        pts = [Point(z.real, z.imag) for z in zs]
        total = sum(distance(a, b) for a, b in zip(pts, pts[1:]))
        closing = mobius_apply(geo.automorph, pts[0])
        closing_d = distance(pts[-1], closing)
        if closing_d > geo.length / len(pts):  # automorph may act in either direction
            closing_d = distance(pts[-1], mobius_apply(inverse(geo.automorph), pts[0]))
        total += closing_d
        assert abs(total - geo.length) < 1e-6

    def test_refinement_w1(self):
        from modsurf.transport import w1_exact

        m1 = geodesic_measure(5, 200)
        m2 = geodesic_measure(5, 400)
        value, _ = w1_exact(m1, m2)
        assert value <= 1.0 / 200.0


class TestHaar:
    def test_total_mass(self):
        m = haar_discretization(24, 16, 20.0)
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_cusp_tail(self):
        n_levels = 40
        m = haar_discretization(48, n_levels, 50.0)
        got = float(m.weights[m.ys > 10.0].sum())
        expected = 3.0 / (10.0 * math.pi)
        # grid tolerance: at worst the full row of cells straddling the cut
        max_dv = (1.0 / math.sqrt(1.0 - 0.5**2) - 1.0 / 50.0) / n_levels
        row_mass = 3.0 / math.pi * max_dv
        assert abs(got - expected) < row_mass

    def test_mean_height_refinement(self):
        # midpoint error in the height moment is O(dv^2) per cell; these
        # resolutions put the refinement difference safely below 1e-3
        coarse = haar_discretization(48, 200, 10.0)
        fine = haar_discretization(96, 400, 10.0)
        mh_c = float((coarse.weights * coarse.ys).sum())
        mh_f = float((fine.weights * fine.ys).sum())
        assert abs(mh_c - mh_f) < 1e-3


class TestMeasureInvariants:
    def test_atoms_reduced_everywhere(self):
        for m in (heegner_measure(-23), geodesic_measure(5, 50),
                  haar_discretization(16, 12, 10.0)):
            assert np.all(m.xs >= -0.5) and np.all(m.xs < 0.5)
            assert np.all(m.xs**2 + m.ys**2 >= 1.0 - 1e-9)
            assert np.all(m.weights > 0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0]), np.array([1.0]), np.array([0.5]))

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.9]), np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("xs, ys, ws", [
        ([math.nan, 0.0], [2.0, 2.0], [0.5, 0.5]),
        ([0.0, 0.0], [2.0, math.inf], [0.5, 0.5]),
        ([0.0, 0.1], [2.0, 2.0], [1.0, math.nan]),
    ], ids=["x-nan", "y-inf", "weight-nan"])
    def test_rejects_non_finite(self, xs, ys, ws):
        # a NaN passes every comparison, so the order and mass checks alone let it through
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(np.array(xs), np.array(ys), np.array(ws))


class TestSerialisation:
    def test_round_trip_exact(self, tmp_path):
        m = heegner_measure(-23)
        path = os.path.join(tmp_path, "m.txt")
        save_measure(m, path)
        m2 = load_measure(path)
        assert m2.label == m.label
        assert np.array_equal(m.xs, m2.xs)
        assert np.array_equal(m.ys, m2.ys)
        assert np.array_equal(m.weights, m2.weights)

    @pytest.mark.parametrize("label", ["a atoms=3 b", "'q'", "x\ny"])
    def test_label_round_trip(self, tmp_path, label):
        m = replace(heegner_measure(-23), label=label)
        path = os.path.join(tmp_path, "m.txt")
        save_measure(m, path)
        m2 = load_measure(path)
        assert m2.label == label
        assert np.array_equal(m.xs, m2.xs)
        assert np.array_equal(m.ys, m2.ys)
        assert np.array_equal(m.weights, m2.weights)

    def test_round_trip_haar(self, tmp_path):
        m = haar_discretization(8, 6, 20.0)
        path = os.path.join(tmp_path, "h.txt")
        save_measure(m, path)
        m2 = load_measure(path)
        assert np.array_equal(m.weights, m2.weights)


class TestReadTable:
    def test_comments_and_rows(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# head\n1 2.5\n\n  # note\n-3 4e-2\n")
        comments, rows = read_table(str(path), 2)
        assert comments == ["# head", "# note"]
        assert rows.shape == (2, 2)
        assert rows.tolist() == [[1.0, 2.5], [-3.0, 0.04]]

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# only a header\n")
        assert read_table(str(path), 3)[1].shape == (0, 3)

    @pytest.mark.parametrize("loader, row", [
        (load_measure, "0.0 2.0"),
        (load_measure, "0.0 2.0 1.0 7"),
        (lambda path: load_plan(path, (2, 2)), "0 1"),
        (lambda path: load_plan(path, (2, 2)), "0 1 0.5 7"),
        (MaassData.load, "9.5"),
    ], ids=["measure-2", "measure-4", "plan-2", "plan-4", "maass-1"])
    def test_loaders_reject_column_count(self, tmp_path, loader, row):
        path = tmp_path / "t.txt"
        path.write_text(f"# header\n{row}\n")
        with pytest.raises(ValueError, match="malformed row"):
            loader(str(path))

    @pytest.mark.parametrize("row", ["nan 2 0.5", "0 inf 1", "0 2 -inf", "0 2 NaN"])
    def test_rejects_non_finite(self, tmp_path, row):
        path = tmp_path / "t.txt"
        path.write_text(f"# header\n0 2 0.5\n{row}\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_table(str(path), 3)


class TestQuadraticFormType:
    def test_primitivity_enforced(self):
        with pytest.raises(ValueError):
            QuadraticForm(2, 2, 2)

    def test_heegner_point(self):
        f = QuadraticForm(1, 1, 6)
        p = f.heegner_point()
        np.testing.assert_allclose([p.x, p.y], [-0.5, math.sqrt(23) / 2.0])
