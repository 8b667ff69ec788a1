"""1-Wasserstein distances between discrete measures on the modular surface.

The exact distance solves the transportation LP by a primal network simplex
on strongly feasible spanning trees, which cannot cycle, priced by block
search; a pivot re-hangs and re-prices only the subtree cut off by the
leaving arc, and the final potentials are returned as a dual certificate.
The entropic approximation runs Newton ascent on the entropic dual at each
level of an epsilon ladder, and is debiased by the self-transport terms.
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


def _northwest_basis(a: np.ndarray, b: np.ndarray):
    """Northwest-corner start as a tree rooted at row 0: (parent, flow, order).

    Each cell hangs a new node under the one it shares with the previous
    cell, the last node added or its parent, so creation order is a preorder.
    A cell gets zero flow only after a tie, and ties advance the row, so each
    zero-flow arc is a row's and points toward the root (strong feasibility).
    """
    m, n = len(a), len(b)
    parent, flow, order = [-1] * (m + n), np.zeros(m + n), [0]
    ra, rb = a.copy(), b.copy()
    i = j = 0
    node, parent[m] = m, 0  # column 0 hangs under row 0
    while True:
        q = min(ra[i], rb[j])
        flow[node] = q
        order.append(node)
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == n - 1:
            return parent, flow, np.array(order)
        # on ties advance only the row, keeping the basis a tree
        if j == n - 1 or (i < m - 1 and ra[i] <= rb[j]):
            i += 1
            node, parent[i] = i, m + j
        else:
            j += 1
            node, parent[m + j] = m + j, i


def _pivot(tree, cost: np.ndarray, ei: int, ej: int) -> None:
    """Enter cell (ei, ej) into w1_exact's tree (parent, flow, order, pos, pot, depth, size).

    The last blocking arc met going round the cycle from its apex along the
    entering arc leaves (Cunningham), so the tree stays strongly feasible.
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
    cycle = np.array(up_r[::-1] + up_c, dtype=int)
    gain = np.where(cycle < m, 1.0, -1.0)
    gain[:down] *= -1.0
    losing = np.where(gain < 0, flow[cycle], np.inf)
    last = len(cycle) - 1 - int(losing[::-1].argmin())
    delta = losing[last]
    flow[cycle] += delta * gain
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
    head, below = pos[path], size[path]
    s, cut = int(head[-1]), int(below[-1])
    part = len(path) - np.cumsum(np.bincount(head - s, minlength=cut)
                                 - np.bincount(head + below - s, minlength=cut + 1)[:cut])
    old = order[s:s + cut]
    depth[old] += depth[att] + 1 - depth[sub] + 2 * part
    pot[old] += np.where((old < m) == (sub < m), rc, -rc)
    size[shrink] -= cut
    size[grow] += cut
    size[path[1:]] = cut - below[:-1]
    size[sub] = cut
    flow[path[1:]] = flow[path[:-1]]
    flow[sub] = delta
    for x, p in zip(path.tolist(), [att] + path[:-1].tolist()):
        parent[x] = p
    # move the subtree to just after ``att`` in the preorder
    rest = np.concatenate((order[:s], order[s + cut:]))
    at = int(pos[att]) + 1 - (cut if pos[att] > s else 0)
    order[:] = np.concatenate((rest[:at], old[np.argsort(part, kind="stable")], rest[at:]))
    pos[order] = np.arange(len(order))


def w1_exact(m1: DiscreteMeasure, m2: DiscreteMeasure) -> tuple[float, TransportPlan]:
    """Exact 1-Wasserstein distance and an optimal plan (network simplex).

    The basis is a spanning tree on rows 0..m-1 and columns m..m+n-1, rooted
    at row 0: node k's arc to its parent is cell (k, parent - m) for a row,
    (parent, k - m) for a column, with flow ``flow[k]``; ``pot`` (u then v)
    prices tree arcs to zero; k's subtree is ``order[pos[k]:pos[k] + size[k]]``
    in the preorder ``order``.  Block-search pricing (Kelly & O'Neill 1991, as
    in LEMON and Bonneel et al. 2011) scans blocks of whole rows, at most
    _PRICING_BLOCK * sqrt(mn) cells or one row each, in cyclic order: the first
    block with a reduced cost below -_RC_TOL sends its most negative cell to
    :func:`_pivot`, and a full cycle of blocks with none proves optimality.
    """
    _check_support(len(m1), len(m2))
    cost = cost_matrix(m1, m2).entries
    m, n = cost.shape
    parent, flow, order = _northwest_basis(m1.weights, m2.weights)
    pot, depth, size = np.zeros(m + n), np.zeros(m + n, dtype=int), np.ones(m + n, dtype=int)
    for k in order[1:]:
        p = parent[k]
        pot[k] = cost[(k, p - m) if k < m else (p, k - m)] - pot[p]
        depth[k] = depth[p] + 1
    for k in order[:0:-1]:
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
    for k in order[1:]:
        p = parent[k]
        plan[(k, p - m) if k < m else (p, k - m)] = flow[k]
    value = float((plan * cost).sum())
    return value, TransportPlan(plan=plan, value=value, duals=(pot[:m].copy(), pot[m:].copy()))


# ---------------------------------------------------------------------------
# Entropic (Sinkhorn) approximation


# Iteration budget of each self-term level.
_SELF_ITERS = 3000


def _eps_ladder(reg):
    """Epsilon-scaling levels: ``reg`` doubled up to 1 (capped), largest first."""
    levels = [reg]
    while levels[-1] < 1.0:
        levels.append(min(1.0, levels[-1] * 2.0))
    return levels[::-1]


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
    level of :func:`_eps_ladder`, from 1 down to ``reg``, runs a Newton ascent on the
    dual (:func:`_newton_dual`) from the previous level's potentials."""
    f, g = np.zeros(len(a)), np.zeros(len(b))
    for eps in _eps_ladder(reg):
        pi, f, g = _newton_dual(a, b, cost, eps, f, g)
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
            z = (f[None, :] - cost) / eps + loga[None, :]
            lse = z.max(axis=1)  # log-sum-exp over each row, shifted by its max
            lse += np.log(np.exp(z - lse[:, None]).sum(axis=1))
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
