"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A workload runs its operations one after another in this process (a closed
loop with one client).  Each CLI operation goes through ``modsurf.cli.main``
with the arguments a user would type, so parsing, the computation and the
CSV/JSON output are all inside the timed call.  Inputs come only from the
workload seed.  Checks run after the timed passes and use tolerances taken
from the README's numerical guarantees.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from modsurf import cli, transport
from modsurf.arithmetic import DiscreteMeasure, load_measure, save_measure

HERE = Path(__file__).resolve().parent

# README guarantees (section "Numerical guarantees exercised by the suite").
KERNEL_MASS_TOL = 1e-3        # surface mass of the automorphic kernel
SINKHORN_TOL = 1e-3           # debiased Sinkhorn at reg = 1e-3 vs exact W1
SINKHORN_REG = 1e-3
# Exact W1 "matches an independent LP solver at machine precision"; 1e-9 is
# the LP feasibility tolerance the test suite's oracles use.
LP_TOL = 1e-9
PLAN_TOL = 1e-12              # plan marginals and <P, C> against reported W1
SLOPE_TOL = 1e-8              # slope fitted from W1 values each good to LP_TOL


@dataclass
class Op:
    """One timed operation and what its check found."""

    name: str
    seconds: float
    result: object = None
    failure: str | None = None
    warnings: Counter = field(default_factory=Counter)
    inputs: tuple = ()                 # files the check reads
    reference: float | None = None     # independent value the check compares with


def timed(name: str, call) -> Op:
    """Run ``call`` once, timing it; warnings are counted by class and shown on stderr."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                result = call()
            failure = None
        except (Exception, SystemExit):  # an operation failure is a result
            result = None
            failure = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    op = Op(name, seconds, result, failure)
    for w in caught:
        op.warnings[w.category.__name__] += 1
    for text in sorted({warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                        for w in caught}):
        sys.stderr.write(text)
    return op


def haar_sample(rng: np.random.Generator, n: int):
    """n equal-weight atoms drawn from the probability Haar measure.

    Rejection sampling in (x, v) with v = 1/y, where dmu = dx dv: the
    fundamental domain is |x| <= 1/2, 0 < v <= 1/sqrt(1 - x^2), inside the
    box v <= 2/sqrt(3).
    """
    v_box = 2.0 / math.sqrt(3.0)
    xs, ys = [], []
    while len(xs) < n:
        x = rng.uniform(-0.5, 0.5)
        v = rng.uniform(0.0, v_box)
        if 0.0 < v <= 1.0 / math.sqrt(1.0 - x * x):
            xs.append(x)
            ys.append(1.0 / v)
    return DiscreteMeasure(np.array(xs), np.array(ys), np.full(n, 1.0 / n),
                           label=f"haar sample n={n}")


def lp_references(pairs: list[tuple[Path, Path]]) -> list[float]:
    """Exact W1 of each measure-file pair by HiGHS, in a child process.

    The child keeps the LP solver's memory out of the workload's peak RSS.
    """
    if not pairs:
        return []
    argv = [sys.executable, str(HERE / "lp_reference.py")]
    for f1, f2 in pairs:
        argv += [str(f1), str(f2)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"HiGHS reference failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def _pass_column(rows, allowed=(True,)) -> str | None:
    bad = [r for r in rows if r.get("pass", "") not in allowed + ("",)]
    return f"{len(bad)} rows fail their CLI check" if bad else None


def _first(*failures):
    return next((f for f in failures if f), None)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs are made from the seed once, in ``__init__``, outside timing and
    tracing; every pass runs on them.  ``run(k)`` is pass ``k``; ``check``
    sets each op's failure.
    """

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def run(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.failure is None:
                op.failure = self._check(op)

    def _cli(self, k: int, argv: list[str]) -> Op:
        """One CLI call; its result is the JSON rows it wrote."""
        out = self.work / f"{argv[0]}-{k}.json"
        op = timed(argv[0], lambda: cli.main(argv + ["--json", "--out", str(out)]))
        if op.failure is None:
            if op.result != 0:
                op.failure = f"exit code {op.result}"
            else:
                op.result = json.loads(out.read_text())
        return op


class Duke(Workload):
    """CLI duke with the default config, then weyl-compare, class-number and heegner."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.ref = json.loads((HERE / "duke_reference.json").read_text())

    def run(self, k):
        return [self._cli(k, [name])
                for name in ("duke", "weyl-compare", "class-number", "heegner")]

    def _check(self, op):
        rows = op.result
        if op.name == "duke":
            got = {str(r["D"]): r["W1_estimate"] for r in rows}
            bad = [d for d, w in self.ref["w1"].items()
                   if d not in got or not abs(got[d] - w) <= LP_TOL]
            slope_err = abs(got.get("slope", math.inf) - self.ref["slope"])
            return _first(_pass_column(rows),
                          bad and f"W1 differs from the reference for D in {bad}",
                          not slope_err <= SLOPE_TOL and f"slope off by {slope_err:.3e}")
        if op.name == "weyl-compare":
            return _pass_column(rows, (True, "recorded"))
        if op.name == "class-number":
            return _first(_pass_column(rows),
                          len(rows) != self.ref["fundamental_below_200"]
                          and f"{len(rows)} discriminants checked")
        # heegner: one measure file per D, with h(D) atoms
        got = {str(r["D"]): r["class_number"] for r in rows}
        return None if got == self.ref["class_numbers"] else f"class numbers {got}"


class Kernel(Workload):
    """CLI transform-check, kernel-mass and mollify-check --seed <seed>."""

    def run(self, k):
        return [self._cli(k, ["transform-check"]), self._cli(k, ["kernel-mass"]),
                self._cli(k, ["mollify-check", "--seed", str(self.seed)])]

    def _check(self, op):
        rows = op.result
        if op.name == "kernel-mass":
            worst = max(abs(r["mass"] - 1.0) for r in rows)
            if not worst <= KERNEL_MASS_TOL:
                return f"|mass - 1| = {worst:.3e}"
        if op.name == "mollify-check":
            # smoothing lemma: |F - F_eps| <= eps, y^2 |grad F_eps|^2 <= (e^eps - 1/2)^2 + 1e-3
            bad = [r["eps"] for r in rows
                   if not (r["sup_error"] <= r["eps"]
                           and r["grad_sq"] <= (math.exp(r["eps"]) - 0.5) ** 2 + 1e-3)]
            if bad:
                return f"smoothing bound fails at eps {bad}"
        return _pass_column(rows)


class Transport(Workload):
    """CLI geodesics for D = 5, then for each seeded instance CLI wasserstein
    against a 300-atom Haar sample (with --plan-out) and w1_sinkhorn on a
    200x200 Haar-sample pair."""

    # Simplex pivots and Sinkhorn iterations vary up to twofold between
    # seeded inputs, so a pass solves two instances of each.
    INSTANCES = 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        (work / "geodesic.ini").write_text(
            "[experiment]\ndiscriminants = 5\n[geodesic]\nsamples_per_unit_length = 200\n")
        rng = np.random.default_rng(seed)
        self.instances = []
        for i in range(self.INSTANCES):
            files = [work / f"{name}-{i}.txt" for name in ("sample", "pair-a", "pair-b")]
            measures = [haar_sample(rng, n) for n in (300, 200, 200)]
            for m, path in zip(measures, files):
                save_measure(m, str(path))
            self.instances.append((files, measures[1:]))

    def run(self, k):
        ops = [self._cli(k, ["geodesics", "--config", str(self.work / "geodesic.ini")])]
        for i, ((sample, pair_a, pair_b), pair) in enumerate(self.instances):
            plan = self.work / f"plan-{k}-{i}.txt"
            w1 = self._cli(k, ["wasserstein", "geodesic_5.txt", str(sample),
                               "--plan-out", str(plan)])
            w1.inputs = (self.work / "geodesic_5.txt", sample, plan)
            # looked up on the module, so a traced pass sees the wrapped function
            sk = timed("sinkhorn", lambda: transport.w1_sinkhorn(*pair, SINKHORN_REG))
            sk.inputs = (pair_a, pair_b)
            ops += [w1, sk]
        return ops

    def check(self, ops):
        # one HiGHS solve per distinct pair of measure files, outside the timed passes
        pairs = list({op.inputs[:2] for op in ops if op.inputs and op.failure is None})
        exact = dict(zip(pairs, lp_references(pairs)))
        for op in ops:
            if op.inputs and op.failure is None:
                op.reference = exact[op.inputs[:2]]
        super().check(ops)

    def _check(self, op):
        if op.name == "sinkhorn":
            err = abs(op.result - op.reference)
            return None if err <= SINKHORN_TOL else f"|Sinkhorn - exact| = {err:.3e}"
        rows = op.result
        if op.name == "geodesics":
            return None if [r["atoms"] for r in rows] == [385] else f"rows {rows}"
        m1, m2 = (load_measure(str(p)) for p in op.inputs[:2])
        value = rows[0]["W1"]
        i, j, mass = np.loadtxt(op.inputs[2], comments="#", ndmin=2).T
        plan = np.zeros((len(m1), len(m2)))
        plan[i.astype(int), j.astype(int)] = mass
        marginal = max(np.abs(plan.sum(axis=1) - m1.weights).max(),
                       np.abs(plan.sum(axis=0) - m2.weights).max())
        pc = float((plan * transport.cost_matrix(m1, m2).entries).sum())
        dual = transport.best_dual_lower_bound(m1, m2)
        return _first(
            plan.min() < 0.0 and f"negative plan entry {plan.min():.3e}",
            not marginal <= PLAN_TOL and f"plan marginals off by {marginal:.3e}",
            not abs(pc - value) <= PLAN_TOL and f"<P, C> - W1 = {pc - value:.3e}",
            not value >= dual - LP_TOL and f"W1 {value} below dual bound {dual}",
            not abs(value - op.reference) <= LP_TOL
            and f"W1 - HiGHS = {value - op.reference:.3e}")


WORKLOADS = {"duke": Duke, "kernel": Kernel, "transport": Transport}
