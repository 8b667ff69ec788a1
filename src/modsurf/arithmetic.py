"""Binary quadratic forms, Heegner points, closed geodesics and measures.

Class groups are enumerated through reduced forms: for D < 0 the standard
reduction |b| <= a <= c (with b >= 0 on ties), for D > 0 one representative
per cycle of reduced indefinite forms, which is in bijection with the
narrow class group.  The probability measures produced here are the
Heegner-point measure (equal weights), the closed-geodesic measure
(uniform in hyperbolic arclength) and a cell-centred discretisation of the
normalised Haar measure with an explicit cusp-tail atom.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hypgeo
from .hypgeo import Point, UnimodularMatrix, fundamental_domain_grid
from .specfun import is_fundamental, require_fundamental  # noqa: F401 (re-exported)

SURFACE_AREA = math.pi / 3.0  # mu(Gamma \ H) for the modular group

_PELL_MAX_PERIOD = 100_000
_GEODESIC_ATOM_LIMIT = 2_000_000  # geodesic_measure's atoms, counted before sampling
_TABLE_BLOCK = 65_536  # rows write_table turns into Python floats at a time, not millions


class AtomLimitError(ValueError):
    """A measure would have more atoms than the code that builds or takes it allows."""


@dataclass(frozen=True)
class QuadraticForm:
    """Primitive integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise ValueError(f"form {self} is not primitive")
        if self.discriminant < 0 and self.a <= 0:
            raise ValueError("definite forms must be positive definite (a > 0)")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def heegner_point(self) -> Point:
        """Root (-b + i sqrt(|D|)) / (2a) in the upper half-plane (D < 0)."""
        D = self.discriminant
        if D >= 0:
            raise ValueError("Heegner points require D < 0")
        return Point(-self.b / (2 * self.a), math.sqrt(-D) / (2 * self.a))


@dataclass(frozen=True)
class ClosedGeodesic:
    """The closed geodesic attached to a narrow class of discriminant D > 0."""

    form: QuadraticForm
    endpoints: tuple[float, float]
    length: float
    automorph: UnimodularMatrix


# ---------------------------------------------------------------------------
# Form enumeration


def reduced_forms(D: int) -> list[QuadraticForm]:
    """One reduced-form representative per (narrow, if D > 0) class."""
    require_fundamental(D)
    if D < 0:
        return _reduced_forms_definite(D)
    return [cycle[0] for cycle in _form_cycles(D)]


def _reduced_forms_definite(D: int) -> list[QuadraticForm]:
    forms = []
    a_max = math.isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            forms.append(QuadraticForm(a, b, c))
    return sorted(forms, key=lambda f: (f.a, f.b, f.c))


def _is_reduced_indefinite(a: int, b: int, c: int, D: int) -> bool:
    s = math.sqrt(D)
    return 0 < b < s and s - b < 2 * abs(a) < s + b


def _rho_step(f: QuadraticForm, D: int) -> QuadraticForm:
    """Reduction step (a, b, c) -> (c, b', c') continuing the cycle."""
    s = math.isqrt(D)
    # b' = -b mod 2|c|, the one in (s - 2|c|, s] with s = isqrt(D)
    b1 = s - (s + f.b) % (2 * abs(f.c))
    c1 = (b1 * b1 - D) // (4 * f.c)
    return QuadraticForm(f.c, b1, c1)


@lru_cache(maxsize=64)
def _form_cycles(D: int) -> tuple[tuple[QuadraticForm, ...], ...]:
    """Cycles of reduced indefinite forms, one per narrow class; cached, as
    tuples that no caller can change, for closed_geodesics and geodesic_measure."""
    s = math.isqrt(D)
    reduced = set()
    for b in range(1, s + 1):
        if (D - b * b) % 4 != 0:
            continue
        ac = (b * b - D) // 4  # negative
        for a in range(1, s + 1):
            if ac % a != 0:
                continue
            for aa in (a, -a):
                c = ac // aa
                if _is_reduced_indefinite(aa, b, c, D):
                    reduced.add((aa, b, c))
    cycles = []
    remaining = set(reduced)
    for start in sorted(reduced):
        if start not in remaining:
            continue
        cycle = []
        f = QuadraticForm(*start)
        while True:
            key = (f.a, f.b, f.c)
            if key not in remaining:
                break
            remaining.discard(key)
            cycle.append(f)
            f = _rho_step(f, D)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def class_number(D: int) -> int:
    """Class number h(D) (narrow class number for D > 0) by enumeration."""
    return len(reduced_forms(D))


# ---------------------------------------------------------------------------
# Pell equation and closed geodesics


def pell_fundamental(D: int) -> tuple[int, int]:
    """Smallest positive solution (t, u) of t^2 - D u^2 = 4.

    With P = D mod 2 and omega = (P + sqrt(D))/2, the order of
    discriminant D is Z[omega], and p - q omega' = (2p - Pq + q sqrt(D))/2
    has norm ((2p - Pq)^2 - D q^2)/4.  Such units of norm 1 come from
    convergents p/q of omega, so one continued fraction of omega is
    expanded until the first convergent with (2p - Pq)^2 - D q^2 = 4, and
    (t, u) = (2p - Pq, q).
    """
    require_fundamental(D)
    if D <= 0:
        raise ValueError("Pell solutions require D > 0")
    P, s = D % 2, math.isqrt(D)
    m, d = P, 2  # complete quotient (m + sqrt(D))/d, starting at omega
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for _ in range(_PELL_MAX_PERIOD):
        a = (m + s) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        t = 2 * p - P * q
        if t * t - D * q * q == 4:
            return t, q
        m = a * d - m
        d = (D - m * m) // d
    raise RuntimeError(f"Pell solver exceeded {_PELL_MAX_PERIOD} steps for D = {D}")


@lru_cache(maxsize=64)
def _pell_and_length(D: int) -> tuple[int, int, float]:
    """(t, u, length): the fundamental solution of t^2 - D u^2 = 4 and the
    common closed-geodesic length 2 log((t + u sqrt(D))/2), taken from the
    integers t and u/t so that no big integer is converted to float."""
    t, u = pell_fundamental(D)
    return t, u, 2.0 * (math.log(t) + math.log1p(math.sqrt(D) * (u / t)) - math.log(2.0))


def closed_geodesics(D: int) -> list[ClosedGeodesic]:
    """One closed geodesic per narrow class of discriminant D > 0.

    The automorph of the form (a, b, c) is ((t - bu)/2, -cu; au, (t + bu)/2)
    with (t, u) the fundamental solution of t^2 - D u^2 = 4.
    """
    t, u, length = _pell_and_length(D)
    out = []
    for f in reduced_forms(D):
        r = math.sqrt(D)
        e1 = (-f.b - r) / (2 * f.a)
        e2 = (-f.b + r) / (2 * f.a)
        auto = UnimodularMatrix(
            (t - f.b * u) // 2, -f.c * u, f.a * u, (t + f.b * u) // 2
        )
        out.append(ClosedGeodesic(f, (e1, e2), length, auto))
    return out


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on the modular surface.

    Atoms are stored as coordinate arrays (already reduced to the
    fundamental domain); weights are positive and sum to one.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    label: str = field(default="measure")

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        ws = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "weights", ws)
        if not (len(xs) == len(ys) == len(ws)) or len(xs) == 0:
            raise ValueError("atoms and weights must be nonempty and aligned")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(ws).all()):
            raise ValueError("atoms and weights must be finite")
        if np.any(ws <= 0):
            raise ValueError("weights must be positive")
        if abs(ws.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {ws.sum()}, not 1")
        if np.any(xs < -0.5) or np.any(xs >= 0.5) or np.any(xs * xs + ys * ys < 1.0 - 1e-9):
            raise ValueError("atoms must be reduced to the fundamental domain")

    def __len__(self) -> int:
        return len(self.weights)


def heegner_measure(D: int) -> DiscreteMeasure:
    """Uniform probability measure on the Heegner points of discriminant D < 0."""
    require_fundamental(D)
    if D >= 0:
        raise ValueError("Heegner measures require D < 0")
    pts = [f.heegner_point() for f in reduced_forms(D)]
    xs, ys = hypgeo.reduce_batch([p.x for p in pts], [p.y for p in pts])
    return DiscreteMeasure(xs, ys, np.full(len(pts), 1.0 / len(pts)), label=f"heegner D={D}")


def _flow_param(f: QuadraticForm, x: float, y: float) -> float:
    """Signed arclength along the axis of f, zero at the apex.

    The parameter increases toward the attracting endpoint
    (-b + sqrt(D))/(2a) of the form's automorph.
    """
    center = -f.b / (2.0 * f.a)
    theta = math.atan2(y, x - center)
    sigma = 1.0 if f.a > 0 else -1.0
    return -sigma * math.log(math.tan(0.5 * theta))


def _arc_lengths(cycle: tuple[QuadraticForm, ...], D: int) -> list[float]:
    """Arc decomposition of a closed geodesic along its reduction cycle.

    Between consecutive cycle forms the step matrix (0, -1; 1, m) with
    m = (b_k + b_{k+1})/(2 c_k) carries the axis of f_{k+1} onto the axis
    of f_k, so the image of the next apex marks where the geodesic leaves
    the current form's arc.  Every arc is short (a single reduction step),
    which keeps the raw coordinates far from the real axis regardless of
    the total length.

    Returns each form's arc length in cycle order; they sum to the class's
    closed-geodesic length.
    """
    lengths = []
    for f, g in zip(cycle, cycle[1:] + cycle[:1]):
        num = f.b + g.b
        if num % (2 * f.c) != 0:
            raise RuntimeError(f"broken reduction cycle at {f} -> {g}")
        m = num // (2 * f.c)
        ax, ay = -g.b / (2.0 * g.a), math.sqrt(D) / (2.0 * abs(g.a))  # the next apex
        # step matrix (0, -1; 1, m) applied to the next apex
        den = ax * ax + ay * ay + 2.0 * m * ax + m * m
        delta = _flow_param(f, (-(ax + m)) / den, ay / den)
        if delta <= 0:
            raise RuntimeError(f"non-positive arc length at {f}")
        lengths.append(delta)
    return lengths


def _sample_cycle(cycle: tuple[QuadraticForm, ...], D: int, n: int) -> tuple[np.ndarray, ...]:
    """n equal-arclength samples along the cycle's closed geodesic, not yet reduced."""
    bounds = np.cumsum([0.0] + _arc_lengths(cycle, D))
    t = (np.arange(n) + 0.5) * (bounds[-1] / n)
    idx = np.searchsorted(bounds, t, side="right") - 1
    # each sample's arc: its form's a and b, and the arclength from the arc's start
    a, b = np.array([(f.a, f.b) for f in cycle], dtype=float)[idx].T
    theta = 2.0 * np.arctan(np.exp(-np.sign(a) * (t - bounds[idx])))
    radius = math.sqrt(D) / (2.0 * np.abs(a))
    return -b / (2.0 * a) + radius * np.cos(theta), radius * np.sin(theta)


def geodesic_measure(D: int, samples_per_unit_length: int) -> DiscreteMeasure:
    """Arclength-uniform sampling of the closed geodesics of discriminant D > 0.

    Each narrow class is sampled along its reduction cycle, one short arc
    per reduced form, so the construction is numerically stable for
    arbitrarily long geodesics.  Every class contributes the same number
    of equally spaced samples (the lengths agree), so all atoms carry
    equal weight and the measure refines to the normalised line-integral
    measure.  Raises AtomLimitError above ``_GEODESIC_ATOM_LIMIT`` atoms.
    """
    if samples_per_unit_length <= 0:
        raise ValueError("sampling rate must be positive")
    _t, _u, length = _pell_and_length(D)
    n = max(2, math.ceil(length * samples_per_unit_length))
    cycles = _form_cycles(D)
    if n * len(cycles) > _GEODESIC_ATOM_LIMIT:
        raise AtomLimitError(f"geodesic measures are limited to {_GEODESIC_ATOM_LIMIT} atoms, "
                             f"D={D} would have {n * len(cycles)}")
    # each cycle's temporaries are freed before its samples are reduced
    samples = (hypgeo.reduce_batch(*_sample_cycle(cycle, D, n)) for cycle in cycles)
    xs, ys = map(np.concatenate, zip(*samples))
    return DiscreteMeasure(xs, ys, np.full(len(xs), 1.0 / len(xs)), label=f"geodesic D={D}")


def haar_discretization(n_x: int, n_levels: int, y_max: float) -> DiscreteMeasure:
    """Cell-centred discretisation of the probability Haar measure.

    Atoms carry (3/pi) times the exact mu-mass of their cell below height
    ``y_max``; the cusp tail mass 3/(pi y_max) sits on a single atom at
    height y_max, so the total mass is exactly one.
    """
    xs, ys, mu_w = fundamental_domain_grid(n_x, n_levels, y_max)
    scale = 3.0 / math.pi
    xs = np.append(xs, 0.0)
    ys = np.append(ys, y_max)
    ws = np.append(scale * mu_w, scale / y_max)
    return DiscreteMeasure(xs, ys, ws, label=f"haar n_x={n_x} n_levels={n_levels} Y={y_max}")


# ---------------------------------------------------------------------------
# Plain-text tables (17 significant digits; exact decimal round-trip)


def write_table(path: str, header: str, *columns: np.ndarray) -> None:
    """Write the '#' header line, then one row per entry of the columns."""
    row = " ".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for k in range(0, len(columns[0]), _TABLE_BLOCK):
            fh.writelines(map(row.format, *(c[k:k + _TABLE_BLOCK].tolist() for c in columns)))


def read_table(path: str, ncols: int) -> tuple[list[str], np.ndarray]:
    """The '#' lines of a whitespace table and its rows as an (n, ncols) float array."""
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                comments.append(line)
            elif line:
                values = [float(v) for v in line.split()]
                if len(values) != ncols or not all(map(math.isfinite, values)):
                    raise ValueError(f"malformed row: {line!r} (expected {ncols} finite numbers)")
                rows.append(values)
    return comments, np.array(rows, dtype=float).reshape(-1, ncols)


def save_measure(m: DiscreteMeasure, path: str) -> None:
    """Write a measure as a text table: header line, then rows x y weight."""
    write_table(path, f"modsurf-measure label={m.label!r} atoms={len(m)}", m.xs, m.ys, m.weights)


def measure_atoms(path: str) -> int | None:
    """The N of a measure file's first line '# modsurf-measure ... atoms=N', or None."""
    with open(path) as fh:
        head = fh.readline().strip()
    count = head.rsplit(" atoms=", 1)[-1]
    return int(count) if head.startswith("# modsurf-measure ") and count.isdigit() else None


def load_measure(path: str) -> DiscreteMeasure:
    """Read a measure written by :func:`save_measure`."""
    comments, rows = read_table(path, 3)
    label = "measure"
    for line in comments:
        if "label=" in line:
            # the label is a repr, and " atoms=N" always ends the header
            text = line.split("label=", 1)[1].rsplit(" atoms=", 1)[0]
            try:
                label = ast.literal_eval(text)
            except SyntaxError as exc:
                raise ValueError(f"malformed measure header: {line}") from exc
    return DiscreteMeasure(*rows.T, label=label)
