"""Tests for the test-function pair, automorphic kernel, and mollifier."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from modsurf import transform as tr
from modsurf._gl import gl_panels
from modsurf.cli import _BASE_POINTS
from modsurf.hypgeo import Point, canonical_sign, mobius_image, pair_u, reduce
from modsurf.transform import (
    TransformParams,
    arsinh_moment,
    automorphic_kernel,
    forward_transform,
    h_test,
    inner_sine_integral,
    k_kernel,
    k_kernel_spectral,
    kernel_mass_integral,
    mollifier_k_eps,
    smooth,
    smooth_with_gradient,
)

from oracles import brute_force_ball_tiles, full_grid_kernel_mass, quad_inner_sine

# frozen from the 40-digit quadrature oracle
BUMP_UNIT_INTEGRAL = 0.2219969080840397


@pytest.fixture(scope="module")
def params_t1():
    return TransformParams.default(1.0)


@pytest.fixture(scope="module")
def params_t2():
    return TransformParams.default(2.0)


class TestHTest:
    def test_unit_at_i_half(self):
        for T in (1.0, 3.0):
            assert h_test(0.5j, T) == 1.0

    def test_at_zero(self):
        assert abs(h_test(0.0, 2.0) - math.exp(-1.0 / 32.0)) < 1e-15

    def test_at_bandwidth(self):
        T = 3.0
        expected = math.exp(-0.5) * math.exp(-1.0 / (8 * T * T))
        assert abs(h_test(T, T) - expected) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            h_test(0.7j, 1.0)
        with pytest.raises(ValueError):
            h_test(np.array([0.0, 1.0, 0.3 + 0.2j]), 1.0)

    def test_array_equals_scalar_calls(self):
        ts = np.array([0.0, 1.0, 5.0, 10.0, 0.5j, -0.25j])
        for T in (1.0, 2.0, 5.0, 10.0):
            assert h_test(ts, T).tolist() == [h_test(t, T) for t in ts.tolist()]
            assert type(h_test(1.0, T)) is float


class TestInnerSineIntegral:
    def test_zero_at_origin(self):
        assert inner_sine_integral(0.0, 1.0) == 0.0

    def test_against_quadrature(self):
        for v, T in ((1.0, 2.0), (0.5, 1.0), (2.5, 1.0)):
            closed = inner_sine_integral(v, T)
            oracle = quad_inner_sine(v, T)
            assert abs(closed - oracle) < 1e-8 * max(1.0, abs(closed))

    def test_positive(self):
        for T in (1.0, 2.0, 5.0):
            vs = np.linspace(1e-3, 10.0, 50)
            vals = inner_sine_integral(vs, T)
            assert np.all(vals >= 0.0)
            representable = 0.5 * T * T * vs * vs < 700.0
            assert np.all(vals[representable] > 0.0)


class TestKernel:
    def test_unit_mass(self):
        for T in (1.0, 2.0, 5.0, 10.0):
            p = TransformParams.default(T)
            assert abs(kernel_mass_integral(p) - 1.0) <= 1e-6

    def test_route_agreement(self, params_t2):
        a = k_kernel(0.1, params_t2)
        b = k_kernel_spectral(0.1, params_t2)
        assert abs(a - b) <= 1e-6

    def test_nonnegative_on_log_grid(self):
        for T in (1.0, 2.0, 5.0, 10.0):
            p = TransformParams.default(T)
            us = np.concatenate([[0.0], np.geomspace(1e-8, p.u_cutoff, 199)])
            vals = tr.k_of_rho(2.0 * np.arcsinh(np.sqrt(us)), T)
            assert vals.min() >= -1e-15

    def test_cutoff_invariant(self):
        for T in (1.0, 4.0):
            p = TransformParams.default(T)
            k0 = k_kernel(0.0, p)
            assert k_kernel(p.u_cutoff, p) < 1e-13 * k0

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_cut_table_reads_zero_from_its_end(self, T):
        # at the knots of kernel-mass's tiles and of automorphic_kernel's
        # cutoff: np.interp's values up to the knot rho_end, read off the
        # evenly spaced knots instead of searched for, exactly 0 from there
        # on and past the table's end, and the caller's u left as it was
        tab = tr._kernel_table(T)
        for level in (tr._TILE_LEVEL, tr._CUTOFF_REL):
            rho_end = tab.rho_at_level(level)
            u_end = math.sinh(0.5 * rho_end) ** 2
            u = np.concatenate([[0.0], np.geomspace(1e-12, 4.0 * u_end, 4000),
                                [2.0 * math.sinh(0.5 * tab.rho[-1]) ** 2]])
            before = u.copy()
            k = tab.cut_at(rho_end)(u)
            assert np.array_equal(u, before)
            inside = u < u_end * (1.0 - 1e-12)
            rho = 2.0 * np.arcsinh(np.sqrt(u[inside]))
            knots = tab.rho[:len(tab.k)]
            assert np.abs(k[inside] - np.interp(rho, knots, tab.k)).max() <= 1e-15 * tab.k0
            assert k[u >= u_end].max() == 0.0 < k[inside].min()

    def test_table_that_ends_too_early_raises(self):
        with pytest.raises(ValueError, match="ends before"):
            tr._kernel_table(1.0).rho_at_level(0.0)

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_table_is_built_as_far_as_it_is_read(self, T):
        # whole blocks up to the first that ends below _CUTOFF_REL k(0), the
        # same bits as the blocks of the whole table; rho keeps every knot
        tab, block = tr._kernel_table(T), tr._TABLE_BLOCK
        n = len(tab.k)
        assert len(tab.rho) == tr._TABLE_POINTS > n and n % block == 0
        assert tab.k[n - 1] < tr._CUTOFF_REL * tab.k0 <= tab.k[n - block - 1]
        whole = np.concatenate([tr.k_of_rho(tab.rho[i:i + block], T)
                                for i in range(0, tr._TABLE_POINTS, block)])
        assert np.array_equal(tab.k, whole[:n])
        if T == 1.0:
            assert n == 3328
        # a level the computed knots do not reach raises, though the whole
        # table would have reached it
        level = 0.5 * tab.k[-1] / tab.k0
        assert whole.min() < level * tab.k0
        with pytest.raises(ValueError, match="ends before"):
            tab.rho_at_level(level)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            TransformParams.default(0.5)
        with pytest.raises(ValueError):
            TransformParams(T=0.8)


class TestForwardTransform:
    def test_round_trip(self, params_t1, params_t2):
        for p, T in ((params_t1, 1.0), (params_t2, 2.0)):
            for t in (0.0, 1.0, 5.0, 10.0):
                assert abs(forward_transform(t, p) - h_test(t, T)) <= 1e-4

    def test_array_equals_scalar_calls(self):
        ts = np.array([0.0, 1.0, 5.0, 10.0])
        for T in (1.0, 2.0, 5.0, 10.0):
            p = TransformParams.default(T)
            values = [forward_transform(t, p) for t in ts.tolist()]
            assert forward_transform(ts, p).tolist() == values
            assert all(type(v) is float for v in values)

    def test_unit_limit(self, params_t1):
        # the t = i/2 case degenerates to the kernel unit mass
        assert abs(kernel_mass_integral(params_t1) - h_test(0.5j, 1.0)) <= 1e-6


class TestArsinhMoment:
    def test_bounded_by_majorant(self):
        for T in (1.0, 2.0, 4.0, 8.0):
            m, mj = arsinh_moment(TransformParams.default(T))
            assert 0.0 <= m <= mj

    def test_decay_rate(self):
        prev = None
        for T in (1.0, 2.0, 4.0, 8.0):
            m, _ = arsinh_moment(TransformParams.default(T))
            if prev is not None:
                assert T * m <= prev * 1.05
            prev = T * m


# pairs (z, w) at which automorphic_kernel is checked against its direct sum
_KERNEL_PAIRS = [
    (Point(0.0, 1.0), Point(0.0, 2.0)),
    (Point(0.13, 1.21), Point(-0.31, 1.73)),
    (Point(0.3, 0.9), Point(0.1, 4.0)),
]


class TestAutomorphicKernel:
    def test_symmetry(self, params_t1):
        a = automorphic_kernel(Point(0, 1), Point(0, 2), params_t1)
        b = automorphic_kernel(Point(0, 2), Point(0, 1), params_t1)
        assert abs(a - b) < 1e-10

    def test_nonnegative(self, params_t2):
        rng = np.random.default_rng(21)
        for _ in range(5):
            z = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.9, 3.0)))
            w = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.9, 3.0)))
            assert automorphic_kernel(z, w, params_t2) >= 0.0

    def test_translation_invariance(self, params_t2):
        z, w = Point(0.2, 1.1), Point(-0.3, 1.7)
        a = automorphic_kernel(z, w, params_t2)
        b = automorphic_kernel(z, Point(w.x + 1.0, w.y), params_t2)
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("z, w", _KERNEL_PAIRS)
    def test_value_against_direct_sum(self, z, w, T):
        # k_of_rho summed over the same orbit points; the gap is the linear
        # table's bias, 6.8e-7 to 6.1e-6 relative
        rho_cutoff = tr._kernel_table(T).rho_at_level(tr._CUTOFF_REL)
        zr, wr = reduce(z), reduce(w)
        u = pair_u(*mobius_image(*tr.ball_tiles(zr, rho_cutoff).T, zr.x, zr.y), wr.x, wr.y)
        rho = 2.0 * np.arcsinh(np.sqrt(u))
        direct = float(tr.k_of_rho(rho[rho < rho_cutoff], T).sum())
        assert abs(automorphic_kernel(z, w, TransformParams(T)) - direct) <= 1e-5 * direct

    def test_surface_mass(self, params_t2):
        # T = 2 keeps the tile count small
        mass, bound = tr.kernel_mass_on_surface(Point(0, 1), params_t2)
        assert abs(mass - 1.0) <= 1e-3


_MASS_POINTS = [
    Point(0.0, 1.0),
    Point(-0.5, math.sqrt(3.0) / 2.0),  # the corner e^{2 pi i/3}
    Point(-0.5, 1.047803440528859),  # on the side x = -1/2
    Point(0.3, 0.9),  # reduced inside
    Point(0.1, 4.0),  # the ball reaches far above the grid top
    Point(0.2, 60.0),  # above the rule's top: its own coset's cusp term is half the mass
]


class TestKernelMassByPreimageBalls:
    """The preimage-ball selection against every tile folded over every node of the rule."""

    @pytest.mark.parametrize("z", _MASS_POINTS)
    def test_bit_identical_to_full_grid(self, z, params_t2):
        assert tr.kernel_mass_on_surface(z, params_t2) == full_grid_kernel_mass(z, params_t2)

    @pytest.mark.parametrize("z", _MASS_POINTS)
    def test_agrees_with_mobius_images(self, z, params_t2):
        # u(gamma^-1 z, w) against u(z, gamma w) from the images of the nodes
        mass, bound = tr.kernel_mass_on_surface(z, params_t2)
        mass_g, bound_g = full_grid_kernel_mass(z, params_t2, by_images=True)
        assert abs(mass - mass_g) <= 1e-14 * abs(mass_g)
        assert abs(bound - bound_g) <= 1e-14 * abs(bound_g)

    def test_one_preimage_call_whatever_the_tile_count(self, params_t2, monkeypatch):
        # one mobius_image call in ball_tiles and one for the preimages
        calls = []

        def counted(*args):
            calls.append(1)
            return mobius_image(*args)

        points = (Point(0.0, 1.0), Point(0.1, 4.0))
        rho_tile = tr._kernel_table(2.0).rho_at_level(tr._TILE_LEVEL)
        assert len(tr.ball_tiles(points[0], rho_tile)) != len(tr.ball_tiles(points[1], rho_tile))
        monkeypatch.setattr(tr, "mobius_image", counted)
        for z in points:
            calls.clear()
            tr.kernel_mass_on_surface(z, params_t2)
            assert len(calls) == 2


def _two_level_loop(terms):
    """Each tile's sum of a (level, tile, column) array: its levels in each column, then columns."""
    sums = []
    for tile in np.moveaxis(terms, 1, 0).tolist():
        total = 0.0
        for c in range(len(tile[0])):
            column = 0.0
            for level in tile:
                column += level[c]
            total += column
        sums.append(total)
    return sums


class TestTileSumOrder:
    """The fold's per-tile sums against an explicit two-level Python loop."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (9, 1, 1), (200, 1, 1), (1, 5, 1), (1, 1, 9),
                                       (1, 4, 7), (200, 3, 1), (130, 1, 2), (9, 1, 20),
                                       (40, 6, 5)])
    def test_shapes(self, shape):
        # terms over sixteen decades, so any other order changes the bits
        rng = np.random.default_rng(sum(shape))
        terms = rng.random(shape) * 10.0 ** rng.integers(-8, 8, shape)
        assert tr._tile_sums(terms).tolist() == _two_level_loop(terms)

    def test_edge_shapes_of_the_fold(self, params_t2, monkeypatch):
        # boxes of one column, of one level and blocks of one tile occur in
        # the fold at _MASS_POINTS, and one block of one tile of one column
        shapes, tile_sums = [], tr._tile_sums

        def pinned(terms):
            if 1 in terms.shape:
                shapes.append(terms.shape)
                assert tile_sums(terms).tolist() == _two_level_loop(terms)
            return tile_sums(terms)

        monkeypatch.setattr(tr, "_tile_sums", pinned)
        for z in _MASS_POINTS:
            tr.kernel_mass_on_surface(z, params_t2)
        n_levels, n_tiles, n_columns = zip(*shapes)
        assert 1 in n_levels and 1 in n_tiles and 1 in n_columns
        assert (1, 1) in zip(n_tiles, n_columns)


def _direct_cusp_mass(Y, T):
    """int over Im w > _Y_CUT of k(u(iY, w)) dmu(w), by Gauss-Legendre over k_of_rho.

    With y = Y e^a and x = 2 sqrt(yY) t, u(iY, w) = sinh^2(a/2) + t^2 and
    dmu = 2 e^{-a/2} dt da; t runs over both half-lines and a from
    log(_Y_CUT / Y) to where k is e^-40 of its value at the bottom.
    """
    a_lo = math.log(tr._Y_CUT / Y)
    a_hi = math.sqrt(a_lo * a_lo + 80.0 / (T * T))
    a, wa = gl_panels(a_lo, a_hi, 8, 24)
    u0 = np.sinh(0.5 * a) ** 2
    t, wt = gl_panels(0.0, np.sqrt(math.sinh(0.5 * a_hi) ** 2 - u0), 8, 24)
    k = tr.k_of_rho(2.0 * np.arcsinh(np.sqrt(u0[:, None] + t * t)).ravel(), T).reshape(t.shape)
    return float((wa * 4.0 * np.exp(-0.5 * a) * (wt * k).sum(axis=1)).sum())


class TestKernelMassRule:
    """The product rule and the unfolded cusp term, at the CLI's bandwidth and base points."""

    @pytest.fixture(scope="class")
    def masses(self, params_t1):
        return [tr.kernel_mass_on_surface(z, params_t1)[0] for z in _BASE_POINTS]

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("Y", [0.3, 1.0, 4.0])
    def test_cusp_mass_against_quadrature(self, Y, T):
        exact = float(tr._cusp_mass([Y], T)[0])
        assert abs(_direct_cusp_mass(Y, T) - exact) <= 1e-12 * exact

    def test_mass_does_not_depend_on_z(self, masses):
        # what is left is the linear table's own bias, about 9.6e-7
        assert max(masses) - min(masses) <= 1e-8
        assert all(abs(m - 1.0 - 9.6e-7) <= 1e-7 for m in masses)

    def test_stabiliser_cosets_are_counted(self, masses, params_t1):
        # at z = i the cosets (0, 1) and (1, 0) both have Im(gamma^-1 z) = 1
        # and share one orbit point; 1e-6 (1 + i) away they are two points
        near = tr.kernel_mass_on_surface(Point(1e-6, 1.0 + 1e-6), params_t1)[0]
        assert _BASE_POINTS[0] == Point(0.0, 1.0)
        assert abs(near - masses[0]) <= 1e-9

    def test_base_point_high_in_the_cusp(self, params_t2):
        # the kernel spans only the first few s-nodes there; mass - 1 reads -9.75e-8
        mass, _ = tr.kernel_mass_on_surface(Point(0.2, 60.0), params_t2)
        assert abs(mass - 1.0) <= 2e-7

    def test_large_bandwidth(self):
        # at T = 8 the rule no longer resolves k as well: mass - 1 reads
        # +3.06e-6, +3.04e-6 and +2.95e-6, against 9.6e-7 at T = 1
        params = TransformParams(8.0)
        for z in _BASE_POINTS:
            assert abs(tr.kernel_mass_on_surface(z, params)[0] - 1.0) <= 5e-6

    def test_quadrature_order(self, masses, params_t1, monkeypatch):
        monkeypatch.setattr(tr, "_SURFACE_NODES", (6, 16))
        assert len(tr._surface_rule()[0]) == 96
        for z, mass in zip(_BASE_POINTS, masses):
            assert abs(tr.kernel_mass_on_surface(z, params_t1)[0] - mass) <= 1e-8


def _cpus(monkeypatch, n):
    """Give the process an affinity mask of n CPUs, and fold in blocks of at most 1024 nodes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(tr, "_FOLD_NODES", 1024)


class TestKernelMassThreads:
    """The tile fold on one or more threads: the same bits, never more threads than CPUs."""

    @pytest.mark.parametrize("z", _MASS_POINTS)
    def test_same_bits_on_any_worker_count(self, z, params_t2, monkeypatch):
        # 5 workers may be more than the cores; the short switch interval
        # interleaves the threads' writes to the tile sums finely
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in (1, 2, 5):
                _cpus(monkeypatch, n)
                results.append(tr.kernel_mass_on_surface(z, params_t2))
        finally:
            sys.setswitchinterval(interval)
        assert results == [full_grid_kernel_mass(z, params_t2)] * 3

    def test_same_bits_with_one_openblas_thread(self, params_t2):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from modsurf.hypgeo import Point; "
                "from modsurf.transform import TransformParams, kernel_mass_on_surface as km; "
                "print([km(Point(float(x), float(y)), TransformParams(2.0)) "
                "for x, y in zip(sys.argv[2::2], sys.argv[3::2])])")
        points = [repr(c) for z in _MASS_POINTS for c in (z.x, z.y)]
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code, str(src), *points],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, text=True, check=True, timeout=120)
        here = [tr.kernel_mass_on_surface(z, params_t2) for z in _MASS_POINTS]
        assert done.stdout.strip() == repr(here)

    def test_one_cpu_starts_no_thread(self, params_t2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was made on one CPU")

        _cpus(monkeypatch, 1)
        monkeypatch.setattr(threading, "Thread", refuse)
        z = Point(0.1, 4.0)
        assert tr.kernel_mass_on_surface(z, params_t2) == full_grid_kernel_mass(z, params_t2)

    @pytest.mark.parametrize("n_cpus", [2, 3, 5])
    def test_threads_never_exceed_the_cpus(self, n_cpus, params_t2, monkeypatch):
        # pair_u runs once per block of the fold, on the thread that folds
        # it; thread objects, not idents, as a finished thread's ident can be
        # reused
        started, folding, calls = [], set(), []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def traced(*args):
            folding.add(threading.current_thread())
            calls.append(1)
            return pair_u(*args)

        _cpus(monkeypatch, n_cpus)
        monkeypatch.setattr(threading, "Thread", Counted)
        monkeypatch.setattr(tr, "pair_u", traced)
        tr.kernel_mass_on_surface(Point(0.1, 4.0), params_t2)
        assert len(calls) > 5
        assert len(started) == n_cpus - 1
        assert len(folding) == n_cpus
        assert not any(t.is_alive() for t in started)

    def test_a_helper_threads_error_is_raised(self, params_t2, monkeypatch):
        caller = threading.get_ident()

        def failing(*args):
            if threading.get_ident() != caller:
                raise FloatingPointError("in a helper")
            return pair_u(*args)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(tr, "pair_u", failing)
        with pytest.raises(FloatingPointError, match="in a helper"):
            tr.kernel_mass_on_surface(Point(0.1, 4.0), params_t2)


class TestBallTilesComplete:
    """ball_tiles against a sweep of every matrix in a box."""

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("z", [
        Point(0.0, 1.0),
        Point(-0.5, math.sqrt(3.0) / 2.0),
        Point(-0.5, 1.047803440528859),
        Point(0.1, 4.0),
        Point(0.2, 16.0),
    ])
    def test_every_tile_in_the_ball_is_listed(self, z, T):
        rho = tr._kernel_table(T).rho_at_level(tr._TILE_LEVEL)
        # the translates of F alone need |b| up to Im z sinh rho
        bound = math.ceil(max(z.y, 1.0 / z.y) * math.sinh(rho)) + 8
        found = brute_force_ball_tiles(z, rho, bound)
        assert max(abs(e) for g in found for e in g) < bound
        # ball_tiles lists gamma^-1 = (a, b; c, d), so gamma = (d, -b; -c, a)
        listed = {canonical_sign(d, -b, -c, a) for a, b, c, d in tr.ball_tiles(z, rho).tolist()}
        assert found <= listed


class TestMollifier:
    def test_support(self):
        S = math.sinh(0.25) ** 2
        assert mollifier_k_eps(S, 0.5) == 0.0
        assert mollifier_k_eps(S * 1.01, 0.5) == 0.0
        assert mollifier_k_eps(S * 0.5, 0.5) > 0.0
        for eps in (0.0, -0.1):
            with pytest.raises(ValueError):
                mollifier_k_eps(S, eps)

    def test_normalising_constant(self):
        # k_eps(0) = e^{-1} / (C S) with C = 4 pi int_0^1 e^{1/(u^2-1)} du
        S = math.sinh(0.15) ** 2
        C = 1.0 / (math.e * S * mollifier_k_eps(0.0, 0.3))
        assert abs(C - 4.0 * math.pi * BUMP_UNIT_INTEGRAL) < 1e-10

    def test_unit_mass(self):
        from modsurf._gl import gl_panels

        for eps in (0.1, 0.5):
            S = math.sinh(0.5 * eps) ** 2
            u, w = gl_panels(0.0, S, 8, 32)
            total = 4.0 * math.pi * float((w * mollifier_k_eps(u, eps)).sum())
            assert abs(total - 1.0) < 1e-8


class TestSmooth:
    def test_constant_function(self):
        F = lambda xs, ys: np.full_like(xs, 3.25)
        val = smooth(F, 0.2, Point(0.1, 1.3))
        assert abs(val - 3.25) < 1e-9

    def test_sup_bound(self):
        from modsurf.transport import clipped_distance

        F = clipped_distance(Point(0, 2), 3.0)
        rng = np.random.default_rng(22)
        eps = 0.2
        for _ in range(12):
            z = Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.9, 4.0)))
            fz = float(F(np.array([z.x]), np.array([z.y]))[0])
            assert abs(fz - smooth(F, eps, z)) <= eps

    def test_gradient_bound(self):
        from modsurf.transport import clipped_distance

        F = clipped_distance(Point(0, 2), 3.0)
        rng = np.random.default_rng(23)
        eps = 0.2
        bound = (math.exp(eps) - 0.5) ** 2 + 1e-3
        h = 1e-3
        for _ in range(8):
            z = Point(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.95, 3.0)))
            dfx = (smooth(F, eps, Point(z.x + h, z.y))
                   - smooth(F, eps, Point(z.x - h, z.y))) / (2 * h)
            dfy = (smooth(F, eps, Point(z.x, z.y + h))
                   - smooth(F, eps, Point(z.x, z.y - h))) / (2 * h)
            assert z.y**2 * 0.25 * (dfx**2 + dfy**2) <= bound


class TestSmoothWithGradient:
    # the point of mollify-check's largest grad_sq at seed 0, at both eps
    WORST = Point(0.12021345201537781, 4.914324994586312)

    @staticmethod
    def _gradient(F, eps, z):
        return np.array(smooth_with_gradient(F, eps, z)[1:])

    @staticmethod
    def _central_differences(F, eps, z, h=1e-3):
        return np.array([
            smooth(F, eps, Point(z.x + h, z.y)) - smooth(F, eps, Point(z.x - h, z.y)),
            smooth(F, eps, Point(z.x, z.y + h)) - smooth(F, eps, Point(z.x, z.y - h)),
        ]) / (2 * h)

    @staticmethod
    def _grad_sq(z, g):
        # the figure mollify-check reports
        return z.y**2 * 0.25 * float(g @ g)

    def test_constant_function(self):
        F = lambda xs, ys: np.full_like(xs, 3.25)
        for eps in (0.2, 0.05):
            fe, dfx, dfy = smooth_with_gradient(F, eps, Point(0.1, 1.3))
            assert abs(fe - 3.25) < 1e-9
            assert abs(dfx) < 1e-12 and abs(dfy) < 1e-12

    def test_value_is_smooth(self):
        from modsurf.transport import clipped_distance

        F = clipped_distance(Point(0, 2), 3.0)
        for z in (Point(0.1, 1.3), self.WORST):
            for eps in (0.2, 0.05):
                assert smooth_with_gradient(F, eps, z)[0] == smooth(F, eps, z)

    def test_matches_central_differences(self):
        from modsurf.transport import clipped_distance

        F = clipped_distance(Point(0, 2), 3.0)
        for eps in (0.2, 0.05):
            # F is smooth on these patches, so the gradient vectors agree
            for z in (Point(0.1, 1.3), Point(0.23, 1.32)):
                g = self._gradient(F, eps, z)
                fd = self._central_differences(F, eps, z)
                assert np.linalg.norm(g - fd) <= 2e-5 * np.linalg.norm(g)
            # at mollify-check's worst point, the figure it reports
            z = self.WORST
            closed = self._grad_sq(z, self._gradient(F, eps, z))
            assert abs(closed - self._grad_sq(z, self._central_differences(F, eps, z))) <= 2e-5 * closed

    def test_gradient_converges_under_refinement(self, monkeypatch):
        from modsurf.transport import clipped_distance

        F = clipped_distance(Point(0, 2), 3.0)
        z = self.WORST
        # limits on the last two levels' difference and on the default nodes' relative error
        for eps, last, default in ((0.2, 5e-8, 1.1e-5), (0.05, 1e-12, 5e-8)):
            levels = []
            for panels, thetas in ((4, 64), (8, 128), (16, 256), (32, 512)):
                monkeypatch.setattr(tr, "_SMOOTH_Q_NODES", (panels, 24))
                monkeypatch.setattr(tr, "_SMOOTH_THETAS", thetas)
                levels.append(self._grad_sq(z, self._gradient(F, eps, z)))
            assert abs(levels[-1] - levels[-2]) <= last
            # the README's quadrature error of grad_sq at the default nodes
            assert abs(levels[0] - levels[-1]) <= default * levels[-1]


class TestTruncationGuard:
    def test_tile_cap_warns(self, params_t1, monkeypatch):
        import modsurf.transform as mod

        monkeypatch.setattr(mod, "_MAX_TILES", 10)
        with pytest.warns(tr.TruncationWarning):
            automorphic_kernel(Point(0, 1), Point(0, 2), params_t1)
