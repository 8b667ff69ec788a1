"""Tests for the exact and entropic Wasserstein solvers and dual bounds."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsurf import hypgeo as hg
from modsurf import transport
from modsurf.arithmetic import (DiscreteMeasure, geodesic_measure, haar_discretization,
                                heegner_measure, load_measure)
from modsurf.hypgeo import Point
from modsurf.transport import (
    DEFAULT_DUAL_FAMILY,
    SinkhornWarning,
    SupportLimitError,
    _eps_ladder,
    _greedy_basis,
    _sinkhorn_plan_cost,
    best_dual_lower_bound,
    best_dual_lower_bound_many,
    clipped_distance,
    cost_matrix,
    dual_lower_bound,
    load_plan,
    save_plan,
    w1_exact,
    w1_sinkhorn,
)

from oracles import log_sinkhorn, transport_by_enumeration

DATA = os.path.join(os.path.dirname(__file__), "data")


def measure(atoms):
    xs = np.array([a[0] for a in atoms], dtype=float)
    ys = np.array([a[1] for a in atoms], dtype=float)
    ws = np.array([a[2] for a in atoms], dtype=float)
    return DiscreteMeasure(xs, ys, ws)


def random_measure(rng, k):
    xs = rng.uniform(-0.5, 0.5, k)
    ys = np.exp(rng.uniform(0.0, 1.5, k))
    xs, ys = hg.reduce_batch(xs, ys)
    w = rng.uniform(0.2, 1.0, k)
    w /= w.sum()
    return DiscreteMeasure(xs, ys, w)


def haar_sample(rng, n):
    """n equal-weight atoms from the probability Haar measure, by rejection in
    (x, v) with v = 1/y, where dmu = dx dv on the fundamental domain."""
    xs = rng.uniform(-0.5, 0.5, 4 * n)
    vs = rng.uniform(0.0, 2.0 / math.sqrt(3.0), 4 * n)
    keep = (vs > 0.0) & (vs <= 1.0 / np.sqrt(1.0 - xs * xs))
    return DiscreteMeasure(xs[keep][:n], 1.0 / vs[keep][:n], np.full(n, 1.0 / n))


DELTA_I = measure([(0.0, 1.0, 1.0)])
DELTA_2I = measure([(0.0, 2.0, 1.0)])


class TestCostMatrix:
    def test_single_pair(self):
        c = cost_matrix(DELTA_I, DELTA_I)
        assert c.entries.shape == (1, 1)
        assert c.entries[0, 0] == 0.0

    def test_log_two(self):
        c = cost_matrix(DELTA_I, DELTA_2I)
        assert abs(c.entries[0, 0] - math.log(2)) < 1e-14

    def test_self_symmetric(self):
        m = heegner_measure(-23)
        c = cost_matrix(m, m).entries
        np.testing.assert_allclose(c, c.T, atol=1e-12)
        assert np.all(np.diag(c) < 1e-12)


class TestExactSolver:
    def test_identical_measures(self):
        m = measure([(0.0, 1.0, 0.4), (0.2, 1.5, 0.6)])
        value, plan = w1_exact(m, m)
        assert value < 1e-12

    def test_two_deltas(self):
        value, plan = w1_exact(DELTA_I, DELTA_2I)
        assert abs(value - math.log(2)) < 1e-14
        assert plan.plan[0, 0] == 1.0

    def test_spec_two_by_two(self):
        m1 = measure([(0.0, 1.0, 0.6), (0.0, 2.0, 0.4)])
        m2 = measure([(0.0, 1.0, 0.3), (0.0, 2.0, 0.7)])
        value, plan = w1_exact(m1, m2)
        assert abs(value - 0.3 * math.log(2)) < 1e-14
        # brute-force one-parameter family oracle
        oracle = transport_by_enumeration(m1.weights, m2.weights,
                                          cost_matrix(m1, m2).entries)
        assert abs(value - oracle) < 1e-12

    def test_small_instances_against_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            shape = rng.choice([(2, 2), (2, 3)])
            mA = random_measure(rng, int(shape[0]))
            mB = random_measure(rng, int(shape[1]))
            value, plan = w1_exact(mA, mB)
            oracle = transport_by_enumeration(mA.weights, mB.weights,
                                              cost_matrix(mA, mB).entries)
            assert abs(value - oracle) <= 1e-10

    def test_plan_feasibility(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            mA = random_measure(rng, int(rng.integers(2, 20)))
            mB = random_measure(rng, int(rng.integers(2, 20)))
            value, plan = w1_exact(mA, mB)
            assert plan.plan.min() >= -1e-15
            np.testing.assert_allclose(plan.plan.sum(axis=1), mA.weights, atol=1e-9)
            np.testing.assert_allclose(plan.plan.sum(axis=0), mB.weights, atol=1e-9)
            c = cost_matrix(mA, mB).entries
            assert abs(plan.value - float((plan.plan * c).sum())) < 1e-12

    def test_optimality_certificate(self):
        # complementary slackness via dual feasibility of the potentials is
        # implied by agreement with an independent LP solver
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(33)
        for _ in range(5):
            mA = random_measure(rng, 12)
            mB = random_measure(rng, 9)
            value, _ = w1_exact(mA, mB)
            C = cost_matrix(mA, mB).entries
            m, n = C.shape
            rows = []
            for i in range(m):
                r = np.zeros((m, n))
                r[i, :] = 1
                rows.append(r.ravel())
            for j in range(n):
                r = np.zeros((m, n))
                r[:, j] = 1
                rows.append(r.ravel())
            res = linprog(C.ravel(), A_eq=np.array(rows),
                          b_eq=np.concatenate([mA.weights, mB.weights]),
                          method="highs")
            assert abs(value - res.fun) < 1e-10

    def test_metric_axioms(self):
        rng = np.random.default_rng(34)
        for _ in range(6):
            m1 = random_measure(rng, 8)
            m2 = random_measure(rng, 7)
            m3 = random_measure(rng, 6)
            d12, _ = w1_exact(m1, m2)
            d21, _ = w1_exact(m2, m1)
            assert abs(d12 - d21) < 1e-9
            d13, _ = w1_exact(m1, m3)
            d32, _ = w1_exact(m3, m2)
            assert d12 <= d13 + d32 + 1e-8

    def test_support_guard(self):
        xs = np.zeros(2001)
        ys = np.linspace(1.0, 3.0, 2001)
        m = DiscreteMeasure(xs, ys, np.full(2001, 1.0 / 2001))
        with pytest.raises(ValueError):
            w1_exact(m, DELTA_I)


# Reduced points for tiny instances: repeats give duplicated atoms and zero
# costs, and the mirror pair (+-0.25, 1.3) is equidistant from the imaginary
# axis, which gives cost ties.
POOL = [(0.0, 1.0), (0.0, 2.0), (-0.5, math.sqrt(3.0) / 2.0), (0.25, 1.3),
        (-0.25, 1.3), (0.0, 1.5)]


@st.composite
def tiny_measure(draw):
    k = draw(st.integers(1, 3))
    atoms = draw(st.lists(st.sampled_from(POOL), min_size=k, max_size=k))
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)), float)
    xs, ys = zip(*atoms)
    return DiscreteMeasure(np.array(xs), np.array(ys), counts / counts.sum())


def tree_plan(parent, flow, m, n):
    """The plan of a rooted basis tree: a row's arc is (row, parent), a column's (parent, column)."""
    plan = np.zeros((m, n))
    for k in range(1, m + n):
        p = parent[k]
        plan[(k, p - m) if k < m else (p, k - m)] = flow[k]
    return plan


@st.composite
def small_measure(draw):
    """1 to 5 atoms drawn in the strip, reduced, with integer weights 1..5."""
    k = draw(st.integers(1, 5))
    xs = draw(st.lists(st.floats(-0.5, 0.5), min_size=k, max_size=k))
    logys = draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k))
    counts = np.array(draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)), float)
    rx, ry = hg.reduce_batch(np.array(xs), np.exp(logys))
    return DiscreteMeasure(rx, ry, counts / counts.sum())


def permutation_pair(seed, n):
    """n equal-weight atoms, the same atoms permuted, and the permutation."""
    rng = np.random.default_rng(seed)
    base = random_measure(rng, n)
    perm = rng.permutation(n)
    w = np.full(n, 1.0 / n)
    return (DiscreteMeasure(base.xs, base.ys, w), DiscreteMeasure(base.xs[perm], base.ys[perm], w),
            perm)


def tie_pairs():
    """60 pairs of 2 to 6 atoms drawn from POOL with repeats, with equal or small
    integer weights, so that costs and flows tie."""
    rng = np.random.default_rng(45)
    pairs = []
    for _ in range(60):
        pair = []
        for k in rng.integers(2, 7, 2):
            xs, ys = np.array(POOL)[rng.integers(0, len(POOL), k)].T
            w = np.ones(k) if rng.random() < 0.5 else rng.integers(1, 4, k).astype(float)
            pair.append(DiscreteMeasure(xs, ys, w / w.sum()))
        pairs.append(pair)
    return pairs


def repeated_pairs():
    """4 pairs of 40 and 60 equal-weight atoms drawn with repeats from 12 shared
    sites: duplicated atoms, zero costs and a degenerate optimum."""
    rng = np.random.default_rng(46)
    sites = random_measure(rng, 12)
    pairs = []
    for _ in range(4):
        pair = []
        for k in (40, 60):
            pick = rng.integers(0, 12, k)
            pair.append(DiscreteMeasure(sites.xs[pick], sites.ys[pick], np.full(k, 1.0 / k)))
        pairs.append(pair)
    return pairs


def assert_dual_certificate(mA, mB):
    value, plan = w1_exact(mA, mB)
    u, v = plan.duals
    c = cost_matrix(mA, mB).entries
    assert (u[:, None] + v[None, :] - c).max() <= 1e-11
    assert abs(mA.weights @ u + mB.weights @ v - value) <= 1e-12


def assert_strongly_feasible_tree(tree, cost, a, b):
    """Check the basis tree of w1_exact (see _pivot) and return its count of zero-flow arcs;
    ``parent``, ``flow`` and ``size`` are lists, the rest arrays."""
    parent, flow, order, pos, pot, depth, size = tree
    m, n = cost.shape
    assert len(parent) == len(flow) == len(size) == m + n
    assert sorted(order.tolist()) == list(range(m + n)) and order[0] == 0 and parent[0] == -1
    np.testing.assert_array_equal(pos[order], np.arange(m + n))
    # a preorder of a spanning tree: each node hangs under the node before it
    # or one of that node's ancestors (the pop raises IndexError otherwise)
    chain = [0]
    for k in order[1:]:
        while chain[-1] != parent[k]:
            chain.pop()
        chain.append(k)
        assert (k < m) != (parent[k] < m) and depth[k] == depth[parent[k]] + 1
    assert depth[0] == 0
    below = np.ones(m + n, dtype=int)
    for k in order[:0:-1]:
        below[parent[k]] += below[k]
    assert size == below.tolist()
    # tree arcs price to zero
    arcs = [(k, parent[k] - m) if k < m else (parent[k], k - m) for k in order[1:]]
    rows, cols = np.array(arcs).T
    assert np.abs(cost[rows, cols] - pot[rows] - pot[m + cols]).max() <= 1e-12
    plan = tree_plan(parent, flow, m, n)
    assert plan.min() >= 0.0
    np.testing.assert_allclose(plan.sum(axis=1), a, rtol=0, atol=1e-14)
    np.testing.assert_allclose(plan.sum(axis=0), b, rtol=0, atol=1e-14)
    # strongly feasible: every zero-flow arc is a row's, so it points toward the root
    zeros = [k for k in order[1:] if flow[k] == 0.0]
    assert all(k < m for k in zeros), [k for k in zeros if k >= m]
    return len(zeros)


class TestMetricProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_measure(), small_measure(), small_measure())
    def test_zero_symmetric_triangle(self, m1, m2, m3):
        assert abs(w1_exact(m1, m1)[0]) <= 1e-12
        d12, _ = w1_exact(m1, m2)
        d21, _ = w1_exact(m2, m1)
        assert abs(d12 - d21) <= 1e-12
        d13, _ = w1_exact(m1, m3)
        d32, _ = w1_exact(m3, m2)
        assert d12 <= d13 + d32 + 1e-12


class TestNetworkSimplex:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tiny_measure(), tiny_measure())
    def test_tiny_instances_against_enumeration(self, mA, mB):
        # w1_exact raises once it passes its pivot bound, so returning means
        # the run ended below it
        value, plan = w1_exact(mA, mB)
        c = cost_matrix(mA, mB).entries
        assert abs(value - transport_by_enumeration(mA.weights, mB.weights, c)) <= 1e-10
        assert plan.plan.min() >= 0.0
        np.testing.assert_allclose(plan.plan.sum(axis=1), mA.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.plan.sum(axis=0), mB.weights, rtol=0, atol=1e-12)

    def test_permutation_of_equal_weights(self):
        # the greedy start fills exactly the permutation's cells, each of which
        # exhausts a row and a column, so its tree holds n - 1 zero-flow arcs
        # and every pivot is degenerate
        n = 60
        mA, mB, perm = permutation_pair(40, n)
        value, plan = w1_exact(mA, mB)
        assert value <= 1e-12
        expected = np.zeros((n, n))
        expected[perm, np.arange(n)] = 1.0 / n
        np.testing.assert_allclose(plan.plan, expected, rtol=0, atol=1e-15)

    def test_greedy_start_is_strongly_feasible(self):
        rng = np.random.default_rng(41)
        cases = [(np.full(5, 0.2), np.full(5, 0.2)),
                 (np.full(4, 0.25), np.full(2, 0.5)),
                 (np.full(2, 0.5), np.full(4, 0.25)),
                 (np.array([1.0]), np.full(3, 1.0 / 3.0)),
                 (np.full(3, 1.0 / 3.0), np.array([1.0])),
                 (np.array([1.0]), np.full(7, 1.0 / 7.0)),
                 (np.full(6, 1.0 / 6.0), np.array([1.0]))]
        for _ in range(20):
            a = rng.integers(1, 4, rng.integers(1, 8)).astype(float)
            b = rng.integers(1, 4, rng.integers(1, 8)).astype(float)
            cases.append((a / a.sum(), b / b.sum()))
        zero_arcs = 0
        for a, b in cases:
            m, n = len(a), len(b)
            # the start reads the costs: distinct atoms, atoms from POOL with
            # repeats (zero costs and exact ties), and one atom repeated
            distinct = (random_measure(rng, m), random_measure(rng, n))
            pooled = [DiscreteMeasure(*np.array(POOL)[rng.integers(0, len(POOL), k)].T, w)
                      for k, w in ((m, a), (n, b))]
            one = [DiscreteMeasure(np.zeros(k), np.full(k, 2.0), w) for k, w in ((m, a), (n, b))]
            for mA, mB in (distinct, pooled, one):
                parent, flow, order = _greedy_basis(a, b, cost_matrix(mA, mB).entries)
                assert sorted(order) == list(range(m + n)) and order[0] == 0 and parent[0] == -1
                # ``order`` is a preorder: each node hangs under the last node or
                # one of its ancestors (the pop raises IndexError otherwise)
                chain = [0]
                for k in order[1:]:
                    while chain[-1] != parent[k]:
                        chain.pop()
                    chain.append(k)
                # every zero-flow arc is a row's, so it points toward the root
                zeros = [k for k in order[1:] if flow[k] == 0.0]
                assert all(k < m for k in zeros)
                zero_arcs += len(zeros)
                plan = tree_plan(parent, flow, m, n)
                assert plan.min() >= 0.0
                np.testing.assert_allclose(plan.sum(axis=1), a, rtol=0, atol=1e-15)
                np.testing.assert_allclose(plan.sum(axis=0), b, rtol=0, atol=1e-15)
        assert zero_arcs > 0  # the ties above do make degenerate arcs

    def test_column_without_a_cell(self):
        # a weight below the marginals' rounding mismatch (1 + 1e-16 == 1): row 0
        # runs out on column 0, so column 1 gets no cell and hangs under row 0
        mA = DiscreteMeasure(np.array([0.17]), np.array([1.77]), np.array([1.0]))
        mB = DiscreteMeasure(np.array([0.15, 0.12]), np.array([2.99, 2.96]),
                             np.array([1.0, 1e-16]))
        cost = cost_matrix(mA, mB).entries
        parent, flow, order = _greedy_basis(mA.weights, mB.weights, cost)
        assert parent == [-1, 0, 0] and flow == [0.0, 1.0, 0.0] and order.tolist() == [0, 2, 1]
        value, _ = w1_exact(mA, mB)
        assert abs(value - transport_by_enumeration(mA.weights, mB.weights, cost)) <= 1e-12

    @pytest.mark.parametrize("shape, seed", [((12, 9), 42), ((40, 30), 43)])
    def test_dual_certificate(self, shape, seed):
        rng = np.random.default_rng(seed)
        assert_dual_certificate(random_measure(rng, shape[0]), random_measure(rng, shape[1]))

    @pytest.mark.parametrize("other", ["geodesic_13", "haar_300"])
    def test_dual_certificate_many_blocks(self, other):
        # 385 rows against 956 or 300 columns: pricing runs over 193 or 97 blocks
        mA = load_measure(os.path.join(DATA, "geodesic_5.txt"))
        mB = (load_measure(os.path.join(DATA, "geodesic_13.txt")) if other == "geodesic_13"
              else haar_sample(np.random.default_rng(44), 300))
        assert_dual_certificate(mA, mB)

    @pytest.mark.parametrize("instance", ["permutation", "ties"])
    def test_every_pivot_keeps_a_strongly_feasible_tree(self, instance, monkeypatch):
        pivot, seen = transport._pivot, {"pivots": 0, "zero_arcs": 0}

        def checked_pivot(tree, cost, ei, ej):
            pivot(tree, cost, ei, ej)
            seen["pivots"] += 1
            seen["zero_arcs"] += assert_strongly_feasible_tree(tree, cost, a, b)

        monkeypatch.setattr(transport, "_pivot", checked_pivot)
        # the cost-aware start solves the permutation in 56 pivots and the ties
        # in 8, so each run also solves repeated_pairs(), which takes 146
        family = [permutation_pair(40, 60)[:2]] if instance == "permutation" else tie_pairs()
        for mA, mB in family + repeated_pairs():
            a, b = mA.weights, mB.weights
            w1_exact(mA, mB)
        # the instances do pivot, and leave zero-flow arcs in the tree
        assert seen["pivots"] > 100 and seen["zero_arcs"] > 0

    def test_cost_aware_start_saves_pivots(self, monkeypatch):
        # the instance of test_dual_certificate_many_blocks[haar_300]; from the
        # northwest-corner start it took 4,864 pivots, from the greedy start 2,429
        pivot, pivots = transport._pivot, [0]

        def counted_pivot(*args):
            pivots[0] += 1
            pivot(*args)

        monkeypatch.setattr(transport, "_pivot", counted_pivot)
        mA = load_measure(os.path.join(DATA, "geodesic_5.txt"))
        w1_exact(mA, haar_sample(np.random.default_rng(44), 300))
        assert pivots[0] <= 0.7 * 4864


class TestSinkhorn:
    def test_identical(self):
        m = heegner_measure(-23)
        assert abs(w1_sinkhorn(m, m, 1e-2)) <= 1e-6

    def test_equal_but_distinct_measures(self):
        m = heegner_measure(-23)
        copy = DiscreteMeasure(m.xs.copy(), m.ys.copy(), m.weights.copy())
        assert w1_sinkhorn(m, copy, 1e-2) == 0.0

    def test_agreement_with_exact(self):
        rng = np.random.default_rng(35)
        mA = random_measure(rng, 50)
        mB = random_measure(rng, 50)
        v, _ = w1_exact(mA, mB)
        vs = w1_sinkhorn(mA, mB, 1e-3)
        assert abs(v - vs) <= 1e-3

    def test_monotone_in_reg(self):
        rng = np.random.default_rng(36)
        mA = random_measure(rng, 30)
        mB = random_measure(rng, 30)
        v, _ = w1_exact(mA, mB)
        diffs = [abs(w1_sinkhorn(mA, mB, reg) - v) for reg in (1e-1, 1e-2, 1e-3)]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_rejects_bad_reg(self):
        with pytest.raises(ValueError):
            w1_sinkhorn(DELTA_I, DELTA_2I, 0.0)


def criterion_5_pair():
    """The 200 x 200 pair of test_acceptance.py::test_criterion_5_transport."""
    rng = np.random.default_rng(101)
    for _ in range(20):
        for shape in ((2, 2), (2, 3)):
            random_measure(rng, shape[0])
            random_measure(rng, shape[1])
    return random_measure(rng, 200), random_measure(rng, 200)


def haar_pair(seed):
    rng = np.random.default_rng(seed)
    return haar_sample(rng, 200), haar_sample(rng, 200)


class TestSinkhornNewton:
    """The entropic plan against plain log-domain Sinkhorn, and the Newton
    ladder's convergence on 200-atom instances."""

    # the Newton step eliminates the rows, so only a non-square plan shows a swapped axis
    @pytest.mark.parametrize("shape", [(30, 30), (20, 45), (45, 20)],
                             ids=["30x30", "20x45", "45x20"])
    def test_matches_log_domain_oracle(self, shape):
        rng = np.random.default_rng(37)
        mA = random_measure(rng, shape[0])
        mB = random_measure(rng, shape[1])
        cost = cost_matrix(mA, mB).entries
        value = _sinkhorn_plan_cost(mA.weights, mB.weights, cost, 0.05)
        assert abs(value - log_sinkhorn(mA.weights, mB.weights, cost, 0.05)) <= 1e-11

    @pytest.mark.parametrize("pair", [criterion_5_pair, lambda: haar_pair(7)],
                             ids=["criterion-5", "haar"])
    def test_no_warning_at_200_atoms(self, pair):
        mA, mB = pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w1_sinkhorn(mA, mB, 1e-3)

    # each level opens on the marginals, so Newton need not shed the previous level's
    # excess mass; a x2 ladder whose levels open on the old potentials takes 112 and 156
    @pytest.mark.parametrize("reg, most", [(1e-3, 60), (1e-4, 80)], ids=["1e-3", "1e-4"])
    def test_newton_solves_bounded(self, reg, most, monkeypatch):
        solve, calls = np.linalg.solve, []

        def counted(*args):
            calls.append(None)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        mA, mB = haar_pair(7)
        _sinkhorn_plan_cost(mA.weights, mB.weights, cost_matrix(mA, mB).entries, reg)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("reg", [1e-4, 1e-3, 0.05, 0.3, 1.0, 2.0])
    def test_eps_ladder_shape(self, reg):
        levels = _eps_ladder(reg)
        assert levels[0] == max(1.0, reg) and levels[-1] == reg
        assert all(big > small and big <= 4.0 * small for big, small in zip(levels, levels[1:]))

    def test_reg_1e4_envelope(self):
        mA, mB = haar_pair(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = w1_sinkhorn(mA, mB, 1e-4)
        exact, _ = w1_exact(mA, mB)
        assert abs(value - exact) <= 1e-3

    @pytest.mark.parametrize("solver", [w1_exact, lambda m1, m2: w1_sinkhorn(m1, m2, 1e-3)],
                             ids=["exact", "sinkhorn"])
    def test_support_guard_before_cost(self, solver, monkeypatch):
        def no_cost(m1, m2):
            raise AssertionError("cost_matrix called before the support guard")

        monkeypatch.setattr(transport, "cost_matrix", no_cost)
        m = DiscreteMeasure(np.zeros(2000), np.linspace(1.0, 3.0, 2000), np.full(2000, 1 / 2000))
        with pytest.raises(SupportLimitError):
            solver(m, DELTA_I)

    def test_self_terms_report_non_convergence(self, monkeypatch):
        monkeypatch.setattr(transport, "_SELF_ITERS", 1)
        rng = np.random.default_rng(38)
        with pytest.warns(SinkhornWarning):
            w1_sinkhorn(random_measure(rng, 30), random_measure(rng, 30), 1e-2)


class TestDualBounds:
    def test_constant_function(self):
        F = lambda xs, ys: np.full_like(xs, 2.0)
        assert dual_lower_bound(DELTA_I, DELTA_2I, F) == 0.0

    def test_tight_on_deltas(self):
        F = clipped_distance(Point(0, 1), 2.0)
        bound = dual_lower_bound(DELTA_I, DELTA_2I, F)
        v, _ = w1_exact(DELTA_I, DELTA_2I)
        assert abs(bound - math.log(2)) < 1e-12
        assert bound <= v + 1e-9

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            mA = random_measure(rng, int(rng.integers(2, 12)))
            mB = random_measure(rng, int(rng.integers(2, 12)))
            v, _ = w1_exact(mA, mB)
            for F in DEFAULT_DUAL_FAMILY:
                assert dual_lower_bound(mA, mB, F) <= v + 1e-9

    def test_family_size_and_gap_on_two_atoms(self):
        assert len(DEFAULT_DUAL_FAMILY) == 10
        rng = np.random.default_rng(38)
        hits = 0
        for _ in range(10):
            mA = random_measure(rng, 1)
            mB = random_measure(rng, 1)
            v, _ = w1_exact(mA, mB)
            if v < 1e-12:
                continue
            b = best_dual_lower_bound(mA, mB)
            if b >= 0.95 * v:
                hits += 1
        assert hits >= 5  # clipped distances from the site list are often tight

    def test_many_equals_pairwise_with_one_reference_pass(self, monkeypatch):
        grid = haar_discretization(12, 10, 10.0)
        ms = [heegner_measure(-7), heegner_measure(-23), geodesic_measure(5, 20)]
        pairwise = [best_dual_lower_bound(m, grid) for m in ms]
        assert pairwise == [max(dual_lower_bound(m, grid, F) for F in DEFAULT_DUAL_FAMILY)
                            for m in ms]
        calls = []
        family = [lambda xs, ys, i=i, F=F: calls.append((i, len(xs))) or F(xs, ys)
                  for i, F in enumerate(DEFAULT_DUAL_FAMILY)]
        monkeypatch.setattr(transport, "DEFAULT_DUAL_FAMILY", family)
        assert best_dual_lower_bound_many(ms, grid) == pairwise
        # each family function meets the reference and all measures in one call
        atoms = len(grid) + sum(len(m) for m in ms)
        assert calls == [(i, atoms) for i in range(len(family))]

    def test_many_equals_pair_form_on_mixed_measures(self):
        # F acts atom by atom, so evaluating it on the measures' atoms taken
        # together changes no bit of any measure's integral
        ms = [heegner_measure(D) for D in (-3, -4, -15, -23, -47)]
        ms += [geodesic_measure(D, 10) for D in (5, 8, 13)]
        for reference in (haar_discretization(8, 6, 6.0), geodesic_measure(12, 10)):
            many = best_dual_lower_bound_many(ms, reference)
            assert many == [best_dual_lower_bound(m, reference) for m in ms]
            assert many == [max(dual_lower_bound(m, reference, F) for F in DEFAULT_DUAL_FAMILY)
                            for m in ms]
        assert best_dual_lower_bound_many([], ms[0]) == []

    def test_lipschitz_quotient_invariant(self):
        rng = np.random.default_rng(39)
        for F in DEFAULT_DUAL_FAMILY[:4]:
            for _ in range(30):
                xs = rng.uniform(-0.5, 0.5, 2)
                ys = np.exp(rng.uniform(0.0, 1.5, 2))
                xs, ys = hg.reduce_batch(xs, ys)
                d = hg.surface_distance(Point(xs[0], ys[0]), Point(xs[1], ys[1]))
                if d < 1e-9:
                    continue
                vals = F(xs, ys)
                quotient = abs(vals[0] - vals[1]) / d
                assert quotient <= 1.0 + 1e-6


class TestPlanSerialisation:
    def test_round_trip(self, tmp_path):
        m1 = measure([(0.0, 1.0, 0.6), (0.0, 2.0, 0.4)])
        m2 = measure([(0.0, 1.0, 0.3), (0.0, 2.0, 0.7)])
        value, plan = w1_exact(m1, m2)
        path = os.path.join(tmp_path, "plan.txt")
        save_plan(plan, path)
        p2 = load_plan(path, plan.plan.shape)
        assert np.array_equal(plan.plan, p2.plan)
        assert p2.value == plan.value

    @pytest.mark.parametrize("row", ["-1 0 0.5", "2 0 0.5", "0 2 0.5", "1.5 0 0.5",
                                     "0 nan 0.5"])
    def test_bad_index_rejected(self, tmp_path, row):
        # negative, past the shape, non-integral or NaN: each names the row
        path = tmp_path / "plan.txt"
        path.write_text(f"# modsurf-plan value=0.5 shape=2x2\n0 0 0.5\n{row}\n")
        with pytest.raises(ValueError, match="plan row") as exc:
            load_plan(str(path), (2, 2))
        assert " ".join(row.split()[:2]) in str(exc.value)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_measure(), small_measure())
    def test_round_trip_bit_exact(self, tmp_path_factory, m1, m2):
        # the duals are not saved
        _value, plan = w1_exact(m1, m2)
        path = str(tmp_path_factory.mktemp("plan") / "plan.txt")
        save_plan(plan, path)
        p2 = load_plan(path, plan.plan.shape)
        assert np.array_equal(plan.plan, p2.plan)
        assert p2.value == plan.value
