"""Tests for the upper half-plane and modular surface geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsurf import hypgeo as hg
from modsurf.hypgeo import (
    DegeneratePointError,
    Point,
    UnimodularMatrix,
    fundamental_domain_grid,
    height,
    pair_u,
    polar_image,
    reduce,
    surface_distance,
)

from oracles import (
    GEN_S,
    GEN_T,
    brute_force_surface_distance,
    distance,
    inverse,
    mobius_apply,
    word,
)


def random_matrix(rng, steps=6) -> UnimodularMatrix:
    g = word()
    for _ in range(steps):
        pick = rng.integers(0, 3)
        g = word(g, GEN_S if pick == 0 else GEN_T if pick == 1 else inverse(GEN_T))
    return g


def random_point(rng) -> Point:
    return Point(float(rng.uniform(-2, 2)), float(np.exp(rng.uniform(-1.5, 2.0))))


def interior_point(rng) -> Point:
    """A point of F at least 0.05 inside its edges and above its floor arc."""
    x = float(rng.uniform(-0.45, 0.45))
    return Point(x, math.sqrt(1.0 - x * x) + float(rng.uniform(0.05, 2.0)))


class TestMobius:
    def test_inversion_fixes_i(self):
        assert mobius_apply(GEN_S, Point(0, 1)) == Point(0.0, 1.0)

    def test_translation(self):
        w = mobius_apply(GEN_T, Point(0.3, 2.0))
        np.testing.assert_allclose((w.x, w.y), (1.3, 2.0), rtol=0, atol=1e-15)

    def test_inversion_small_point(self):
        w = mobius_apply(GEN_S, Point(0.1, 0.1))
        np.testing.assert_allclose((w.x, w.y), (-5.0, 5.0), rtol=1e-14)

    def test_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g, h = random_matrix(rng), random_matrix(rng)
            z = random_point(rng)
            w1 = mobius_apply(word(g, h), z)
            w2 = mobius_apply(g, mobius_apply(h, z))
            np.testing.assert_allclose((w1.x, w1.y), (w2.x, w2.y), rtol=1e-10)


class TestDistanceAndU:
    def test_zero_at_coincidence(self):
        assert distance(Point(0, 1), Point(0, 1)) == 0.0

    def test_vertical_geodesic(self):
        assert abs(distance(Point(0, 1), Point(0, math.e)) - 1.0) < 1e-14
        assert abs(distance(Point(0, 1), Point(0, 2)) - math.log(2)) < 1e-14

    def test_u_values(self):
        assert pair_u(0.0, 1.0, 0.0, 1.0) == 0.0
        assert abs(pair_u(0.0, 1.0, 0.0, 2.0) - 0.125) < 1e-16

    def test_u_is_sinh_squared(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z, w = random_point(rng), random_point(rng)
            u = pair_u(z.x, z.y, w.x, w.y)
            s = math.sinh(0.5 * distance(z, w)) ** 2
            assert abs(u - s) <= 1e-12 * max(1.0, u)

    def test_u_in_place_keeps_the_bits_and_the_arguments(self):
        # (dx dx + dy dy) / ((4 y1) y2) on broadcast shapes, among them one
        # where y1 - y2 is narrower than the result; scalars give a float
        rng = np.random.default_rng(3)
        x1, y1 = rng.uniform(-2, 2, (5, 1)), np.exp(rng.uniform(-1, 2, (5, 1)))
        x2, y2 = rng.uniform(-2, 2, 7), np.exp(rng.uniform(-1, 2, 7))
        for args in [(x1, y1, x2, y2), (x2, y2, x1, y1), (x1, y1[0, 0], x2, y2[0]),
                     (x1, y1, x2, y1), (x2[0], y2[0], x1[0, 0], y1[0, 0])]:
            before = [np.copy(a) for a in args]
            a, b, c, d = args
            assert np.array_equal(pair_u(*args), ((a - c) * (a - c) + (b - d) * (b - d))
                                  / (4.0 * b * d))
            assert all(np.array_equal(a, b) for a, b in zip(args, before))
        assert isinstance(pair_u(0.1, 1.0, 0.2, 2.0), float)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = random_matrix(rng)
            z, w = random_point(rng), random_point(rng)
            gz, gw = mobius_apply(g, z), mobius_apply(g, w)
            assert abs(distance(gz, gw) - distance(z, w)) < 1e-10
            u = pair_u(z.x, z.y, w.x, w.y)
            assert abs(pair_u(gz.x, gz.y, gw.x, gw.y) - u) < 1e-10 * (1.0 + u)


class TestReduce:
    def test_translation_case(self):
        assert reduce(Point(5, 1)) == Point(0.0, 1.0)
        # translations of a point inside F reduce back to it
        w = Point(0.2, 1.5)
        for n in (-7, -1, 1, 5):
            r = reduce(mobius_apply(UnimodularMatrix(1, n, 0, 1), w))
            assert abs(r.x - w.x) <= 1e-12 and abs(r.y - w.y) <= 1e-12

    def test_inversion_case(self):
        r = reduce(Point(0.1, 0.1))
        np.testing.assert_allclose((r.x, r.y), (0.0, 5.0), atol=1e-12)

    def test_already_reduced(self):
        assert reduce(Point(0.2, 1.5)) == Point(0.2, 1.5)
        # every point inside F is its own representative, bit for bit
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = interior_point(rng)
            assert reduce(w) == w

    def test_word_images_reduce_back(self):
        # the orbit check: gamma w reduces back to w for w inside F
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = interior_point(rng)
            r = reduce(mobius_apply(random_matrix(rng), w))
            assert abs(r.x - w.x) <= 1e-12 and abs(r.y - w.y) <= 1e-12

    def test_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = reduce(random_point(rng))
            assert -0.5 <= p.x < 0.5
            assert p.x * p.x + p.y * p.y >= 1.0 - 1e-14
            if abs(p.x * p.x + p.y * p.y - 1.0) < 1e-14:
                assert p.x <= 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = reduce(random_point(rng))
            q = reduce(p)
            assert math.hypot(p.x - q.x, p.y - q.y) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePointError):
            reduce(Point(0.3, 1e-13))

    def test_height_envelope(self):
        # MIN_HEIGHT = 1e-12 is the edge: on it a point reduces, below it raises
        for x in (0.3, -0.41, 1e-12, 0.0):
            r = reduce(Point(x, 1e-12))
            assert -0.5 <= r.x < 0.5 and r.y >= math.sqrt(3.0) / 2.0
        # the orbit check at the edge: T^n S maps w = 2^39 i to n + 2^-39 i
        # (y = 1.8e-12) exactly, and that image reduces back to w
        w = Point(0.0, 2.0**39)
        for n in (-3, 0, 1, 7):
            z = mobius_apply(UnimodularMatrix(n, -1, 1, 0), w)
            assert z == Point(float(n), 2.0**-39)
            r = reduce(z)
            assert abs(r.x - w.x) <= 1e-12 and abs(r.y - w.y) <= 1e-12
        with pytest.raises(DegeneratePointError):
            reduce(Point(0.3, 9.9e-13))
        with pytest.raises(DegeneratePointError):
            hg.reduce_batch(np.array([0.0, 0.3]), np.array([1.0, 9.9e-13]))

    def test_huge_x_exact(self):
        # the first translation is exact beyond the int64 range
        assert reduce(Point(1e19, 1.0)) == Point(0.0, 1.0)
        # the orbit check: T^n w for n up to 10^19 reduces back to w
        w = Point(0.0, 1.5)
        for n in (10**19, -(10**19), 2**62 + 2**12):
            r = reduce(mobius_apply(UnimodularMatrix(1, n, 0, 1), w))
            assert abs(r.x - w.x) <= 1e-12 and abs(r.y - w.y) <= 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 2, 100)
        ys = np.exp(rng.uniform(-1.5, 2.0, 100))
        bx, by = hg.reduce_batch(xs, ys)
        for i in range(100):
            p = reduce(Point(xs[i], ys[i]))
            assert math.hypot(p.x - bx[i], p.y - by[i]) < 1e-12


class TestSurfaceDistance:
    def test_equivalent_points(self):
        assert surface_distance(Point(1, 1), Point(0, 1)) < 1e-15

    def test_same_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = random_point(rng)
            assert surface_distance(z, z) < 1e-15

    def test_vertical_pair_matches_brute_force(self):
        d = surface_distance(Point(0, 1), Point(0, 2))
        assert abs(d - math.log(2)) < 1e-14
        oracle = brute_force_surface_distance(Point(0, 1), Point(0, 2))
        assert abs(d - oracle) < 1e-12

    def test_random_pairs_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            z = reduce(random_point(rng))
            w = reduce(random_point(rng))
            assert abs(surface_distance(z, w) - brute_force_surface_distance(z, w)) < 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            z1, z2, z3 = (random_point(rng) for _ in range(3))
            d12 = surface_distance(z1, z2)
            d21 = surface_distance(z2, z1)
            assert abs(d12 - d21) < 1e-9
            d13 = surface_distance(z1, z3)
            d23 = surface_distance(z2, z3)
            assert d13 <= d12 + d23 + 1e-9

    def test_not_larger_than_plane_distance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            z, w = random_point(rng), random_point(rng)
            assert surface_distance(z, w) <= distance(z, w) + 1e-12

    def test_matrix_variant_agrees(self):
        rng = np.random.default_rng(11)
        xs1, ys1 = hg.reduce_batch(rng.uniform(-2, 2, 8), np.exp(rng.uniform(-1, 2, 8)))
        xs2, ys2 = hg.reduce_batch(rng.uniform(-2, 2, 6), np.exp(rng.uniform(-1, 2, 6)))
        mat = hg.surface_distance_matrix(xs1, ys1, xs2, ys2)
        for i in range(8):
            for j in range(6):
                d = surface_distance(Point(xs1[i], ys1[i]), Point(xs2[j], ys2[j]))
                assert abs(mat[i, j] - d) < 1e-12


def _image_side_distances(xs1, ys1, xs2, ys2):
    """Surface distances from the images of the second set under every gamma in NEIGHBOR_MATS."""
    best = np.full((len(xs1), len(xs2)), np.inf)
    for a, b, c, d in hg.NEIGHBOR_MATS:
        gx, gy = hg.mobius_image(a, b, c, d, xs2, ys2)
        best = np.minimum(best, pair_u(xs1[:, None], ys1[:, None], gx, gy))
    return 2.0 * np.arcsinh(np.sqrt(best))


def _reduced_points(rng, n):
    return hg.reduce_batch(rng.uniform(-2, 2, n), np.exp(rng.uniform(-1.5, 2.0, n)))


class TestSurfaceDistanceMatrixSides:
    """The smaller set takes the Mobius maps: against the image side, transposed, and counted."""

    def test_neighbor_mats_closed_under_inversion(self):
        mats = set(hg.NEIGHBOR_MATS)
        assert {hg.canonical_sign(d, -b, -c, a) for a, b, c, d in mats} == mats

    @pytest.mark.parametrize("m, n", [(1, 400), (60, 400), (400, 60), (1, 1), (50, 50)])
    def test_matches_the_image_side(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        (xs1, ys1), (xs2, ys2) = _reduced_points(rng, m), _reduced_points(rng, n)
        mat = hg.surface_distance_matrix(xs1, ys1, xs2, ys2)
        assert np.abs(mat - _image_side_distances(xs1, ys1, xs2, ys2)).max() <= 1e-15
        if m != n:
            assert np.array_equal(hg.surface_distance_matrix(xs2, ys2, xs1, ys1), mat.T)

    @pytest.mark.parametrize("m, n", [(1, 50), (30, 7), (7, 30), (9, 9)])
    def test_one_mobius_call_on_the_smaller_set(self, m, n, monkeypatch):
        moved, mobius_image = [], hg.mobius_image

        def counted(a, b, c, d, xs, ys):
            moved.append((np.ravel(xs), np.ravel(ys)))
            return mobius_image(a, b, c, d, xs, ys)

        rng = np.random.default_rng(4)
        (xs1, ys1), (xs2, ys2) = _reduced_points(rng, m), _reduced_points(rng, n)
        monkeypatch.setattr(hg, "mobius_image", counted)
        mat = hg.surface_distance_matrix(xs1, ys1, xs2, ys2)
        assert len(moved) == 1
        smaller = (xs1, ys1) if m <= n else (xs2, ys2)
        assert all(np.array_equal(got, want) for got, want in zip(moved[0], smaller))
        assert mat.shape == (m, n) and mat.flags.c_contiguous


# points of the fundamental domain as x and the height above its floor arc
# (near the arc the nearest image of a point is often not the point itself),
# and words in S, T, T^-1
COORDS = st.builds(lambda x, h: (x, math.sqrt(1.0 - x * x) + h),
                   st.floats(-0.5, 0.5), st.floats(0.0, 1.5))
WORDS = st.lists(st.sampled_from([GEN_S, GEN_T, inverse(GEN_T)]), max_size=8)


class TestSurfaceDistanceMatrixProperties:
    """The one neighbour minimum, against symmetry, the group action and the oracle."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.lists(COORDS, min_size=1, max_size=2), st.lists(COORDS, min_size=1, max_size=2),
           WORDS)
    def test_symmetric_invariant_and_oracle(self, pts1, pts2, letters):
        xs1, ys1 = hg.reduce_batch(*np.array(pts1).T)
        xs2, ys2 = hg.reduce_batch(*np.array(pts2).T)
        mat = hg.surface_distance_matrix(xs1, ys1, xs2, ys2)
        np.testing.assert_allclose(hg.surface_distance_matrix(xs2, ys2, xs1, ys1), mat.T,
                                   rtol=0, atol=1e-12)

        g = word(*letters)
        moved = [mobius_apply(g, Point(x, y)) for x, y in pts2]
        gx, gy = hg.reduce_batch(np.array([p.x for p in moved]), np.array([p.y for p in moved]))
        np.testing.assert_allclose(hg.surface_distance_matrix(xs1, ys1, gx, gy), mat,
                                   rtol=0, atol=1e-9)

        for i, j in np.ndindex(mat.shape):
            oracle = brute_force_surface_distance(Point(xs1[i], ys1[i]), Point(xs2[j], ys2[j]))
            assert abs(mat[i, j] - oracle) < 1e-12


# boundary points of the fundamental domain: the floor arc, the edges x = +-1/2
# and the corners, which reduction must send to one representative each
BOUNDARY = st.one_of(
    st.floats(-0.5, 0.5).map(lambda x: (x, math.sqrt(1.0 - x * x))),
    st.tuples(st.sampled_from([-0.5, 0.5]), st.floats(math.sqrt(3.0) / 2.0, 5.0)),
    st.sampled_from([(-0.5, math.sqrt(3.0) / 2.0), (0.5, math.sqrt(3.0) / 2.0)]),
)


# points strictly inside the fundamental domain, which the words move off it
INTERIOR = st.builds(lambda x, h: (x, math.sqrt(1.0 - x * x) + h),
                     st.floats(-0.45, 0.45), st.floats(0.05, 1.5))


class TestReduceProperties:
    """reduce and reduce_batch agree and land in F on boundary points and their
    images, and images of interior points reduce back to them."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(BOUNDARY, min_size=1, max_size=4), st.lists(INTERIOR, min_size=1, max_size=4),
           WORDS)
    def test_agree_and_land_in_domain(self, pts, inner, letters):
        g = word(*letters)
        moved = [mobius_apply(g, Point(x, y)) for x, y in pts]
        bx, by = hg.reduce_batch(np.array([p.x for p in moved]), np.array([p.y for p in moved]))
        for p, x, y in zip(moved, bx, by):
            r = reduce(p)
            assert (r.x, r.y) == (x, y)
            for px, py in ((r.x, r.y), (x, y)):
                assert -0.5 <= px < 0.5
                assert px * px + py * py >= 1.0 - 1e-14
                # the tie-break holds in reduce's arc band, within _ARC_EPS
                # of |z| = 1; images of arc points under these words come
                # back up to 1.8e-14 off the arc (2.2e-15 for the corner
                # under S T^-3 S T^-1, see test_arc_tie_break_off_the_arc)
                if px * px + py * py <= 1.0 + hg._ARC_EPS:
                    assert px <= 0.0
        # the orbit check: g w reduces back to w for w inside F
        for x, y in inner:
            r = reduce(mobius_apply(g, Point(x, y)))
            assert abs(r.x - x) <= 1e-12 and abs(r.y - y) <= 1e-12

    def test_arc_tie_break_off_the_arc(self):
        # S T^-3 S T^-1 moves the corner to a point that reduces 2.2e-15
        # outside the unit circle; it still takes the x <= 0 representative
        Ti = inverse(GEN_T)
        g = word(GEN_S, Ti, Ti, Ti, GEN_S, Ti)
        assert g == UnimodularMatrix(-1, 1, -3, 2)
        z = mobius_apply(g, Point(-0.5, math.sqrt(3.0) / 2.0))
        r = reduce(z)
        bx, by = hg.reduce_batch(np.array([z.x]), np.array([z.y]))
        assert abs(r.x + 0.5) < 1e-15 and r.x < 0.0
        assert (bx[0], by[0]) == (r.x, r.y)
        # the orbit check: the image of the corner reduces back to the corner
        assert math.hypot(r.x + 0.5, r.y - math.sqrt(3.0) / 2.0) < 1e-14


class TestHeight:
    def test_values(self):
        assert abs(height(Point(0, 1)) - 1.0) < 1e-15
        assert abs(height(Point(7, 1)) - 1.0) < 1e-15
        assert abs(height(Point(0.1, 0.1)) - 5.0) < 1e-12

    def test_lower_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            assert height(random_point(rng)) >= math.sqrt(3) / 2 - 1e-15


class TestGeodesicPolar:
    def test_center(self):
        for theta in (0.0, 1.0, 3.0):
            assert polar_image(0.0, theta) == (0.0, 1.0)

    def test_upward_ray(self):
        u = 0.8
        x, y = polar_image(u, math.pi)
        expected_y = math.exp(2.0 * math.asinh(math.sqrt(u)))
        np.testing.assert_allclose(y, expected_y, rtol=1e-13)
        assert abs(x) < 1e-13

    def test_round_trip(self):
        x, y = polar_image(0.37, 1.1)
        assert abs(pair_u(0.0, 1.0, x, y) - 0.37) < 1e-12

    def test_ball_area_jacobian(self):
        # numerical Jacobian of the polar map must integrate y^-2 dx dy over
        # the ball u <= sinh^2(r/2) to 4 pi sinh^2(r/2)
        r = 1.3
        u_max = math.sinh(0.5 * r) ** 2
        gu, wu = np.polynomial.legendre.leggauss(60)
        gt, wt = np.polynomial.legendre.leggauss(60)
        us = 0.5 * u_max * (gu + 1.0)
        wus = 0.5 * u_max * wu
        ths = math.pi * (gt + 1.0)
        wths = math.pi * wt
        h = 1e-6
        total = 0.0
        for u, wu_i in zip(us, wus):
            for th, wt_i in zip(ths, wths):
                xu1, yu1 = polar_image(u + h, th)
                xu0, yu0 = polar_image(max(u - h, 0.0), th)
                du = (u + h) - max(u - h, 0.0)
                xt1, yt1 = polar_image(u, th + h)
                xt0, yt0 = polar_image(u, th - h)
                jxu = (xu1 - xu0) / du
                jyu = (yu1 - yu0) / du
                jxt = (xt1 - xt0) / (2 * h)
                jyt = (yt1 - yt0) / (2 * h)
                det = abs(jxu * jyt - jyu * jxt)
                y = polar_image(u, th)[1]
                total += wu_i * wt_i * det / (y * y)
        expected = 4.0 * math.pi * u_max
        assert abs(total - expected) <= 1e-8 * expected


class TestFundamentalDomainGrid:
    def test_total_measure(self):
        xs, ys, w = fundamental_domain_grid(24, 18, 30.0)
        np.testing.assert_allclose(w.sum(), math.pi / 3.0 - 1.0 / 30.0, rtol=1e-13)

    def test_atoms_inside_domain(self):
        xs, ys, w = fundamental_domain_grid(16, 12, 10.0)
        assert np.all(xs >= -0.5) and np.all(xs < 0.5)
        assert np.all(xs * xs + ys * ys > 1.0)
        assert np.all(ys <= 10.0)
