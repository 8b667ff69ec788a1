"""Exact W1 by HiGHS (``scipy.optimize.linprog``), a solver independent of modsurf's simplex.

    python3 perfbench/lp_reference.py m1.txt m2.txt [m3.txt m4.txt ...]
        prints a JSON list with W1 of each pair of measure files
    python3 perfbench/lp_reference.py --duke
        prints the reference W1 values and slope of the default ``duke`` run
        (kept in perfbench/duke_reference.json)

Both measures and the cost matrix come from modsurf (``load_measure``,
``cost_matrix``); only the LP solve is independent.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modsurf.arithmetic import haar_discretization, heegner_measure, load_measure  # noqa: E402
from modsurf.transport import cost_matrix  # noqa: E402

DUKE_DISCRIMINANTS = (-7, -8, -11, -15, -20, -23, -24)  # the CLI default config


def w1_highs(m1, m2) -> float:
    """min <P, C> over plans with marginals m1, m2; interior point with crossover."""
    cost = cost_matrix(m1, m2).entries
    m, n = cost.shape
    cells = np.arange(m * n)
    rows = np.concatenate([cells // n, m + cells % n])
    a_eq = coo_matrix((np.ones(2 * m * n), (rows, np.concatenate([cells, cells]))),
                      shape=(m + n, m * n))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([m1.weights, m2.weights]),
                  bounds=(0, None), method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def duke_reference() -> dict:
    grid = haar_discretization(40, 30, 20.0)
    w1 = {D: w1_highs(heegner_measure(D), grid) for D in DUKE_DISCRIMINANTS}
    slope = float(np.polyfit(np.log([abs(D) for D in w1]), np.log(list(w1.values())), 1)[0])
    return {"w1": {str(D): v for D, v in w1.items()}, "slope": slope}


def main(argv: list[str]) -> int:
    if argv == ["--duke"]:
        print(json.dumps(duke_reference(), indent=2))
        return 0
    if not argv or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = [load_measure(p) for p in argv]
    print(json.dumps([w1_highs(a, b) for a, b in zip(files[::2], files[1::2])]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
