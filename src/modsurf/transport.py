"""1-Wasserstein distances between discrete measures on the modular surface.

The exact distance solves the transportation LP by a primal network simplex
on strongly feasible spanning trees, which cannot cycle, priced by block
search.  It starts from a cost-aware tree: a few log-domain Sinkhorn sweeps
at a coarse epsilon key the cells, a greedy fill in key order gives a forest
with positive flows, and Prim's rule joins it with zero-flow row arcs.  A
pivot re-hangs and re-prices only the subtree cut off by the leaving arc, and
the final potentials are returned as a dual certificate.
Each epsilon level of the entropic approximation runs one log-domain Sinkhorn
sweep, then Newton ascent on the dual; self-transport terms debias it.
Kantorovich-Rubinstein dual lower bounds come from an explicit family of
clipped-distance Lipschitz functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hypgeo
from .arithmetic import AtomLimitError, DiscreteMeasure, read_table, write_table
from .hypgeo import Point, surface_distance_matrix, surface_distance_to_point

_COST_SIZE_LIMIT = 4 * 10**8  # entries
_SUPPORT_LIMIT = 2000  # combined atom count for w1_exact and w1_sinkhorn
_RC_TOL = 1e-11  # reduced-cost optimality tolerance
_PRICING_BLOCK = 4.0  # most cells in a pricing block, in units of sqrt(m n)
_START_EPS, _START_SWEEPS = 0.05, 10  # Sinkhorn sweeps that key w1_exact's start


class SupportLimitError(AtomLimitError):
    """The measures have more atoms combined than the transport solvers take."""


class SinkhornWarning(RuntimeWarning):
    """An entropic plan stopped above the marginal tolerance."""


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise surface distances between the atoms of two measures."""

    entries: np.ndarray


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix, its cost and w1_exact's dual potentials (u, v), u_i + v_j <= c_ij."""

    plan: np.ndarray
    value: float
    duals: tuple[np.ndarray, np.ndarray] | None = None


def clipped_distance(z0: Point, radius: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The 1-Lipschitz function z -> min(surface_distance(z, z0), radius) of arrays (xs, ys)."""

    def ev(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        rx, ry = hypgeo.reduce_batch(xs, ys)
        return np.minimum(surface_distance_to_point(rx, ry, z0), radius)

    return ev


# Fixed family used for dual lower bounds: clipped distances from a small
# site list at three truncation radii.
_SITES = [Point(0.0, 1.0), Point(0.0, 2.0), Point(-0.5, math.sqrt(3.0) / 2.0)]
DEFAULT_DUAL_FAMILY = [clipped_distance(z, R) for z in _SITES for R in (1.0, 2.0, 4.0)]
DEFAULT_DUAL_FAMILY.append(clipped_distance(Point(0.3, 1.5), 2.0))


def _check_support(*sizes: int) -> None:
    """Raise SupportLimitError if measures of these atom counts exceed _SUPPORT_LIMIT combined."""
    if sum(sizes) > _SUPPORT_LIMIT:
        raise SupportLimitError(f"transport solvers are limited to {_SUPPORT_LIMIT} atoms "
                                f"combined, got {' + '.join(map(str, sizes))}")


def cost_matrix(m1: DiscreteMeasure, m2: DiscreteMeasure) -> CostMatrix:
    """All pairwise surface distances between the atoms of m1 and m2."""
    if len(m1) * len(m2) > _COST_SIZE_LIMIT:
        raise ValueError("cost matrix would exceed the size guard")
    entries = surface_distance_matrix(m1.xs, m1.ys, m2.xs, m2.ys)
    return CostMatrix(entries=entries)


# ---------------------------------------------------------------------------
# Network simplex


def _greedy_basis(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Cost-aware strongly feasible start, a tree rooted at row 0: (parent, flow, order).

    _START_SWEEPS log-domain Sinkhorn sweeps at _START_EPS give potentials
    (f, g).  Cells are filled in ascending order of c_ij - f_i - g_j, each
    with what its row and column have left; that exhausts one of the two, so
    no later cell draws on it and the cells with flow form a forest.  Prim's rule
    joins the forest: the outside row with the smallest key to a tree column
    hangs, with its component, under that column with zero flow, so every
    zero-flow arc is a row's and points toward the root.  (A column gets no
    cell only if its weight is below the marginals' rounding mismatch; it then
    hangs under row 0 with zero flow.)  ``order`` is the tree's preorder.
    """
    m, n = cost.shape
    g = np.zeros(n)
    for _ in range(_START_SWEEPS):
        f, g = _sweep(a, b, cost, _START_EPS, g)

    def key(j):  # c_ij - f_i - g_j of columns j, built only while needed
        return cost[:, j] - f[:, None] - g[j]

    adj, left = [[] for _ in range(m + n)], a.tolist() + b.tolist()
    cells, step = np.argsort(key(slice(None)), axis=None), 4 * (m + n)
    for lo in range(0, m * n, step):  # by chunks, skipping cells already exhausted
        i, j = np.divmod(cells[lo:lo + step], n)
        rem = np.array(left)
        live = (rem[i] > 0) & (rem[m + j] > 0)
        for i, j in zip(i[live].tolist(), (j[live] + m).tolist()):
            q = min(left[i], left[j])
            if q > 0:
                left[i] -= q
                left[j] -= q
                adj[i].append((j, q))
                adj[j].append((i, q))
    # Prim: ``best`` holds each outside row's smallest key to a tree column, ``arg`` that column
    best, arg = np.full(m, np.inf), np.zeros(m, dtype=int)
    intree, stack = np.zeros(m + n, dtype=bool), [0]
    while True:
        cols = []
        while stack:  # the component just joined
            x = stack.pop()
            intree[x] = True
            if x >= m:
                cols.append(x)
            stack += [y for y, _ in adj[x] if not intree[y]]
        if cols and not intree[:m].all():
            block = key(np.array(cols) - m)
            k, near = block.argmin(axis=1), block.min(axis=1)
            low = near < best
            best[low], arg[low] = near[low], np.array(cols)[k[low]]
        best[intree[:m]] = np.inf
        x = int(best.argmin())
        if best[x] < np.inf:
            p = int(arg[x])
        elif not intree.all():  # the tree has no column yet, or a column has no cell
            x, p = m + int(intree[m:].argmin()), 0
        else:
            break
        adj[x].append((p, 0.0))
        adj[p].append((x, 0.0))
        stack = [x]
    parent, flow, order, stack = [-1] * (m + n), [0.0] * (m + n), [], [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y, q in adj[x]:
            if y != parent[x]:
                parent[y], flow[y] = x, q
                stack.append(y)
    return parent, flow, np.array(order)


def _pivot(tree, cost: np.ndarray, ei: int, ej: int) -> None:
    """Enter cell (ei, ej) into w1_exact's tree (parent, flow, order, pos, pot, depth, size).

    The last blocking arc met going round the cycle from its apex along the
    entering arc leaves (Cunningham), so the tree stays strongly feasible.
    Work along the cycle runs on the lists ``parent``, ``flow`` and ``size``;
    work over the cut subtree on the arrays ``order``, ``pos``, ``pot`` and ``depth``.
    """
    parent, flow, order, pos, pot, depth, size = tree
    m = cost.shape[0]
    rc = cost[ei, ej] - pot[ei] - pot[m + ej]
    # tree paths from the entering arc's row and column up to their apex
    up_r, up_c, r, c = [], [], ei, m + ej
    for _ in range(depth[r] - depth[c]):
        up_r.append(r)
        r = parent[r]
    for _ in range(depth[c] - depth[r]):
        up_c.append(c)
        c = parent[c]
    while r != c:
        up_r.append(r)
        up_c.append(c)
        r, c = parent[r], parent[c]
    # the cycle from the apex along the entering arc goes down to its row
    # and up from its column; rows lose flow going down, columns going up
    down = len(up_r)
    cycle = up_r[::-1] + up_c
    delta, last = math.inf, 0
    for t, x in enumerate(cycle):
        if (x < m) == (t < down) and flow[x] <= delta:
            delta, last = flow[x], t
    for t, x in enumerate(cycle):
        flow[x] += -delta if (x < m) == (t < down) else delta
    # the leaving arc cuts off the subtree holding ``sub``, an end of the entering
    # arc; ``path`` climbs from ``sub`` to the arc's child, and up to the apex
    # ``shrink`` loses the subtree, ``grow`` gains it
    if last >= down:
        path, shrink, grow = cycle[down:last + 1], cycle[last + 1:], cycle[:down]
        sub, att = m + ej, ei
    else:
        path, shrink, grow = cycle[last:down][::-1], cycle[:last], cycle[down:]
        sub, att = ei, m + ej
    # re-rooted at ``sub``, the cut subtree's preorder lists, for t = 0, 1, ...,
    # the part of x_t = path[t]'s old subtree outside x_{t-1}'s, each in old
    # order; x_t moves from depth depth[sub] - t to depth[att] + 1 + t, and
    # the potentials shift so that the entering arc prices to zero
    below = [size[x] for x in path]
    head, cut = pos[path], below[-1]
    s = int(head[-1])
    part = len(path) - np.cumsum(np.bincount(head - s, minlength=cut)
                                 - np.bincount(head + below - s, minlength=cut + 1)[:cut])
    old = order[s:s + cut]
    depth[old] += depth[att] + 1 - depth[sub] + 2 * part
    pot[old] += np.where((old < m) == (sub < m), rc, -rc)
    for x in shrink:
        size[x] -= cut
    for x in grow:
        size[x] += cut
    # each path node hangs under the one before it, with that node's old arc flow
    for x, p, q, lost in zip(path, [att] + path[:-1], [delta] + [flow[x] for x in path[:-1]],
                             [0] + below[:-1]):
        parent[x], flow[x], size[x] = p, q, cut - lost
    # move the subtree to just after ``att`` in the preorder; only the nodes
    # between the two places shift
    moved, at = old[np.argsort(part, kind="stable")], int(pos[att]) + 1
    if at <= s:
        lo, hi, pieces = at, s + cut, (moved, order[at:s])
    else:
        lo, hi, pieces = s, at, (order[s + cut:at], moved)
    order[lo:hi] = np.concatenate(pieces)
    pos[order[lo:hi]] = np.arange(lo, hi)


def w1_exact(m1: DiscreteMeasure, m2: DiscreteMeasure) -> tuple[float, TransportPlan]:
    """Exact 1-Wasserstein distance and an optimal plan (network simplex).

    The basis is a spanning tree on rows 0..m-1 and columns m..m+n-1, rooted
    at row 0: node k's arc to its parent is cell (k, parent - m) for a row,
    (parent, k - m) for a column, with flow ``flow[k]``; ``pot`` (u then v)
    prices tree arcs to zero; k's subtree is ``order[pos[k]:pos[k] + size[k]]``
    in the preorder ``order``.  The start is :func:`_greedy_basis`, a greedy
    basis keyed by Sinkhorn potentials at a coarse epsilon (warm-starting
    exact transport from an entropic solution, after Schmitzer 2016), so that
    few pivots remain.  Block-search pricing (Kelly & O'Neill 1991, as
    in LEMON and Bonneel et al. 2011) scans blocks of whole rows, at most
    _PRICING_BLOCK * sqrt(mn) cells or one row each, in cyclic order: the first
    block with a reduced cost below -_RC_TOL sends its most negative cell to
    :func:`_pivot`, and a full cycle of blocks with none proves optimality.
    """
    _check_support(len(m1), len(m2))
    cost = cost_matrix(m1, m2).entries
    m, n = cost.shape
    parent, flow, order = _greedy_basis(m1.weights, m2.weights, cost)
    pot, depth, size = np.zeros(m + n), np.zeros(m + n, dtype=int), [1] * (m + n)
    for k in order[1:].tolist():
        p = parent[k]
        pot[k] = cost[(k, p - m) if k < m else (p, k - m)] - pot[p]
        depth[k] = depth[p] + 1
    for k in order[:0:-1].tolist():
        size[parent[k]] += size[k]
    tree = (parent, flow, order, np.argsort(order), pot, depth, size)

    u, v = pot[:m, None], pot[None, m:]  # views, kept current by _pivot
    rows = max(1, int(_PRICING_BLOCK * math.sqrt(m / n)))
    blocks, start = -(-m // rows), 0
    for _ in range(400 * (m + n) + 20_000):  # pivot bound
        for b in range(start, start + blocks):
            r0 = b % blocks * rows
            block = cost[r0:r0 + rows] - u[r0:r0 + rows] - v
            cell = int(block.argmin())
            if block.flat[cell] < -_RC_TOL:
                break
        else:
            break  # a full cycle of blocks priced nothing below -_RC_TOL
        start = (b + 1) % blocks
        _pivot(tree, cost, r0 + cell // n, cell % n)
    else:
        raise RuntimeError("transportation simplex exceeded its pivot bound")

    plan = np.zeros((m, n))
    for k in order[1:].tolist():
        p = parent[k]
        plan[(k, p - m) if k < m else (p, k - m)] = flow[k]
    value = float((plan * cost).sum())
    return value, TransportPlan(plan=plan, value=value, duals=(pot[:m].copy(), pot[m:].copy()))


# ---------------------------------------------------------------------------
# Entropic (Sinkhorn) approximation


# Iteration budget of each self-term level.
_SELF_ITERS = 3000


def _eps_ladder(reg):
    """Epsilon-scaling levels: ``reg`` times powers of 4 up to 1 (capped), largest first."""
    levels = [reg]
    while levels[-1] < 1.0:
        levels.append(min(1.0, levels[-1] * 4.0))
    return levels[::-1]


def _lse(z, axis):
    """log(sum(exp(z))) along ``axis``, shifted by the maximum there; overwrites ``z``."""
    top = z.max(axis=axis)
    z -= np.expand_dims(top, axis)
    return top + np.log(np.exp(z, out=z).sum(axis=axis))


def _sweep(a, b, cost, eps, g):
    """One log-domain Sinkhorn sweep at ``eps`` from column potentials ``g``: the
    row potentials that put the plan on the rows' marginals, then the columns'."""
    f = -eps * _lse((g - cost) / eps + np.log(b), axis=1)
    return f, -eps * _lse((f[:, None] - cost) / eps + np.log(a)[:, None], axis=0)


def _warn_violation(pi, a, b):
    """Warn when the plan's L1 marginal violation (rows or columns) exceeds 1e-7."""
    violation = max(float(np.abs(pi.sum(axis=1) - a).sum()),
                    float(np.abs(pi.sum(axis=0) - b).sum()))
    if violation > 1e-7:
        warnings.warn(f"Sinkhorn marginal violation {violation:.2e} above 1e-7",
                      SinkhornWarning, stacklevel=4)


def _newton_dual(a, b, cost, eps, f, g):
    """Entropic plan at ``eps`` and its potentials, by Newton ascent on the dual from (f, g).

    The dual <a, f> + <b, g> - eps * sum(pi), with
    pi_ij = a_i b_j exp((f_i + g_j - c_ij) / eps), has gradient
    (a - pi 1, b - pi^T 1) and Hessian -(1/eps) [[diag r, pi], [pi^T, diag c]]
    with r = pi 1, c = pi^T 1 (Brauer, Clason, Lorenz & Wirth 2017).  The
    Newton system takes a ridge of 1e-12 times the largest of r and c, as pi
    is numerically sparse, and is solved by eliminating the rows: the Schur
    complement diag(c) - pi^T diag(r)^-1 pi on the columns is n x n.  The
    null direction (1, -1) is orthogonal to the gradient.  Armijo
    backtracking sums the dual's increase term by term, since the
    difference of two dual values cancels.  The loop stops at a violation
    below 1e-13 or below the rounding of the exponents (unit roundoff times
    sum_ij pi_ij (|f_i| + |g_j| + c_ij) / eps, about 1e-12 at reg = 1e-4),
    or when backtracking falls below a step of 1e-10.  Exponents are capped
    at 300, so that no sum over the plan of a long trial step overflows.
    Returns (pi, f, g).
    """
    logab = np.log(a)[:, None] + np.log(b)[None, :]

    def plan(f, g):
        return np.exp(np.minimum((f[:, None] + g[None, :] - cost) / eps + logab, 300.0))

    pi = plan(f, g)
    for _ in range(500):  # step bound; the stopping rules end the loop long before it
        r, c = pi.sum(axis=1), pi.sum(axis=0)
        ga, gb = a - r, b - c
        floor = 2.0**-53 * (r @ np.abs(f) + c @ np.abs(g) + float((pi * cost).sum())) / eps
        if max(np.abs(ga).sum(), np.abs(gb).sum()) < max(1e-13, floor):
            break
        ridge = 1e-12 * max(r.max(), c.max())
        r, c = r + ridge, c + ridge
        schur = np.diag(c) - pi.T @ (pi / r[:, None])
        dg = eps * np.linalg.solve(schur, gb - pi.T @ (ga / r))
        df = (eps * ga - pi @ dg) / r
        slope, ascent = float(ga @ df + gb @ dg), float(a @ df + b @ dg)
        t = 1.0
        while t >= 1e-10:
            pi_t = plan(f + t * df, g + t * dg)
            if t * ascent - eps * float((pi_t - pi).sum()) >= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        f, g, pi = f + t * df, g + t * dg, pi_t
    return pi, f, g


def _sinkhorn_plan_cost(a, b, cost, reg):
    """Transport cost of the entropic plan at ``reg``, rounded onto the marginals; each
    level of :func:`_eps_ladder` puts the previous level's plan (about 1/eps too heavy)
    on the rows', then the columns' marginals by one log-domain Sinkhorn sweep, before
    Newton ascent on the dual (:func:`_newton_dual`), which sheds excess mass slowly."""
    g = np.zeros(len(b))
    for eps in _eps_ladder(reg):
        pi, f, g = _newton_dual(a, b, cost, eps, *_sweep(a, b, cost, eps, g))
    _warn_violation(pi, a, b)
    pi = _round_to_feasible(pi, a, b)
    return float((pi * cost).sum())


def _round_to_feasible(pi, a, b):
    """Project an almost-feasible plan onto the transport polytope.

    Scales rows and columns down where they overshoot, then spreads the
    residual mass as a rank-one correction; the value shift is bounded by
    the marginal violation times the cost sup.
    """
    r = pi.sum(axis=1)
    pi = pi * np.minimum(a / np.maximum(r, 1e-300), 1.0)[:, None]
    c = pi.sum(axis=0)
    pi = pi * np.minimum(b / np.maximum(c, 1e-300), 1.0)[None, :]
    da = a - pi.sum(axis=1)
    db = b - pi.sum(axis=0)
    total = da.sum()
    if total > 1e-300:
        pi = pi + np.outer(da, db) / total
    return pi


def _sym_self_plan_cost(a, cost, reg):
    """Entropic self-transport cost via the damped symmetric iteration.

    The self problem can be degenerate (near-duplicate atoms); the
    averaged update on a single potential is robust where alternating
    projections crawl.
    """
    loga = np.log(a)
    n = len(a)
    f = np.zeros(n)
    for eps in _eps_ladder(reg):
        for it in range(_SELF_ITERS):
            lse = _lse((f[None, :] - cost) / eps + loga[None, :], axis=1)
            f_new = 0.5 * f + 0.5 * (-eps * lse)  # averaged fixed-point update
            delta = float(np.abs(f_new - f).max())
            f = f_new
            if delta < 1e-13 * max(1.0, eps):
                break
    pi = np.exp((f[:, None] + f[None, :] - cost) / reg + loga[:, None] + loga[None, :])
    _warn_violation(pi, a, a)
    pi = _round_to_feasible(pi, a, a)
    return float((pi * cost).sum())


def w1_sinkhorn(m1: DiscreteMeasure, m2: DiscreteMeasure, reg: float) -> float:
    """Debiased entropic approximation of the 1-Wasserstein distance.

    Returns <pi_ab, C> - (<pi_aa, C> + <pi_bb, C>)/2 with entropic plans at
    regularisation ``reg``; exactly zero for identical measures and
    converging to the exact distance as reg -> 0.
    """
    if reg <= 0:
        raise ValueError("regularisation must be positive")
    _check_support(len(m1), len(m2))  # dense m x n plans, and Newton systems of their size
    if m1 is m2 or (len(m1) == len(m2) and np.array_equal(m1.xs, m2.xs)
                    and np.array_equal(m1.ys, m2.ys)
                    and np.array_equal(m1.weights, m2.weights)):
        return 0.0  # the debiased divergence of a measure with itself
    c_ab = cost_matrix(m1, m2).entries
    c_aa = cost_matrix(m1, m1).entries
    c_bb = cost_matrix(m2, m2).entries
    a = m1.weights.astype(float)
    b = m2.weights.astype(float)
    v_ab = _sinkhorn_plan_cost(a, b, c_ab, reg)
    v_aa = _sym_self_plan_cost(a, c_aa, reg)
    v_bb = _sym_self_plan_cost(b, c_bb, reg)
    return v_ab - 0.5 * (v_aa + v_bb)


# ---------------------------------------------------------------------------
# Kantorovich-Rubinstein dual bounds


def dual_lower_bound(m1: DiscreteMeasure, m2: DiscreteMeasure,
                     F: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """|int F dm1 - int F dm2| for a 1-Lipschitz F of arrays (xs, ys).

    By Kantorovich-Rubinstein duality it never exceeds the exact distance.
    """
    return abs(_integral(m1, F) - _integral(m2, F))


def _integral(m: DiscreteMeasure, F: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    return float((m.weights * F(m.xs, m.ys)).sum())


def best_dual_lower_bound_many(measures: list[DiscreteMeasure],
                               reference: DiscreteMeasure) -> list[float]:
    """Best KR lower bound over DEFAULT_DUAL_FAMILY from each measure to one reference;
    each function runs once, on all atoms together, and maps them one by one."""
    ms = [reference, *measures]
    xs, ys = np.concatenate([m.xs for m in ms]), np.concatenate([m.ys for m in ms])
    parts = np.cumsum([len(m) for m in ms])[:-1]
    ints = np.array([[float((m.weights * v).sum()) for m, v in zip(ms, np.split(F(xs, ys), parts))]
                     for F in DEFAULT_DUAL_FAMILY])
    return np.abs(ints[:, 1:] - ints[:, :1]).max(axis=0).tolist()


def best_dual_lower_bound(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """The bound of ``best_dual_lower_bound_many`` for the single pair (m1, m2)."""
    return best_dual_lower_bound_many([m1], m2)[0]


# ---------------------------------------------------------------------------
# Plan serialisation (same table format and reader as measures)


def save_plan(p: TransportPlan, path: str) -> None:
    """Write nonzero plan entries as rows "i j mass" (17 significant digits)."""
    rows, cols = p.plan.shape
    i, j = np.nonzero(p.plan)
    write_table(path, f"modsurf-plan value={p.value:.17g} shape={rows}x{cols}", i, j, p.plan[i, j])


def load_plan(path: str, shape: tuple[int, int]) -> TransportPlan:
    """Read a plan written by :func:`save_plan`; indices must be integers within ``shape``."""
    try:
        comments, rows = read_table(path, 3)
    except ValueError as exc:  # each error of a plan file names the plan row
        raise ValueError(f"plan row rejected: {exc}") from exc
    value = float("nan")
    for line in comments:
        if "value=" in line:
            value = float(line.split("value=", 1)[1].split()[0])
    ij = rows[:, :2]
    bad = ((ij != np.floor(ij)) | (ij < 0) | (ij >= shape)).any(axis=1)
    if bad.any():
        i, j, mass = rows[np.argmax(bad)]
        raise ValueError(f"plan row '{i:g} {j:g} {mass:.17g}' has indices that are not "
                         f"integers within {shape[0]}x{shape[1]}")
    plan = np.zeros(shape)
    plan[tuple(ij.astype(int).T)] = rows[:, 2]
    return TransportPlan(plan=plan, value=value)
