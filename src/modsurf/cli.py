"""Experiment harness: every verification as a subcommand with CSV/JSON output.

All subcommands take --config, --out and --json; mollify-check also takes
--seed, duke --maass-data, and wasserstein two measure files and
--plan-out.  ``modsurf <command> --help`` lists a command's CSV columns.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
bad arguments, or measures too large to build or to transport (one line on
stderr).

The configuration file is flat INI (sections [experiment], [haar],
[geodesic], [tolerances]); every key has a default, so a config file is
optional.  CSV goes to --out (default stdout); --json emits the same rows
as JSON.  Status lines ([PASS]/[FAIL] and what a command wrote) go to
stderr, so stdout holds only the rows.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import json
import math
import sys
import textwrap
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import transform
from .arithmetic import (
    AtomLimitError,
    class_number,
    closed_geodesics,
    geodesic_measure,
    haar_discretization,
    heegner_measure,
    is_fundamental,
    load_measure,
    measure_atoms,
    require_fundamental,
    save_measure,
)
from .eisenstein import (
    MaassData,
    PartialBoundWarning,
    _check_t,
    berry_esseen_rhs_many,
    weyl_compare,
    weyl_sum_exact_sq,
)
from .hypgeo import Point, pair_u
from .specfun import dirichlet_l
from .transform import TransformParams
from .transport import (_check_support, best_dual_lower_bound_many, clipped_distance,
                        save_plan, w1_exact)


class ConfigError(ValueError):
    pass


_K_IT_ENVELOPE = 20.0  # largest |t| at which K_it, and so the Eisenstein series, is trusted


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale experiment parameters; all fields have defaults."""

    bandwidths: tuple[float, ...] = (1.0,)
    discriminants: tuple[int, ...] = (-7, -8, -11, -15, -20, -23, -24)
    n_x: int = 40
    n_levels: int = 30
    y_max: float = 20.0
    samples_per_unit_length: int = 200
    tol_kint: float = 1e-5
    tol_forward: float = 1e-4
    tol_route: float = 1e-6
    tol_kernel_mass: float = 1e-3
    tol_weyl: float = 1e-3
    tol_weyl_positive: float = 5e-3
    tol_class_number: float = 1e-6
    eps_list: tuple[float, ...] = (0.2, 0.05)
    t_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    seed: int = 0
    maass_data: str | None = None

    @property
    def T(self) -> float:
        return self.bandwidths[0]

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite")
            if f.name.startswith("tol_") and value <= 0:
                raise ConfigError(f"{f.name} must be positive")
        if not (self.bandwidths and self.t_values and self.discriminants and self.eps_list):
            raise ConfigError("bandwidth, t_values, discriminants and eps_list must each "
                              "list at least one value")
        if any(T < 1.0 for T in self.bandwidths):
            raise ConfigError("bandwidth T must be at least 1")
        try:
            for D in self.discriminants:
                require_fundamental(D)
            _check_t(self.t_values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if any(abs(t) > _K_IT_ENVELOPE for t in self.t_values):
            raise ConfigError("t_values entries must have |t| <= 20, the K_it envelope")
        if self.y_max < 2.0:
            raise ConfigError("y_max must be at least 2")
        if min(self.samples_per_unit_length, self.n_x, self.n_levels, *self.eps_list) <= 0:
            raise ConfigError("samples_per_unit_length, n_x, n_levels and eps_list "
                              "must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


# INI section -> {key: config field}; a value parses as the type of the
# field's default, element-wise for the lists
_INI_KEYS = {
    "experiment": {"bandwidth": "bandwidths", "discriminants": "discriminants",
                   "seed": "seed", "maass_data": "maass_data", "t_values": "t_values",
                   "eps_list": "eps_list"},
    "haar": {"n_x": "n_x", "n_levels": "n_levels", "y_max": "y_max"},
    "geodesic": {"samples_per_unit_length": "samples_per_unit_length"},
    "tolerances": {key: "tol_" + key for key in ("kint", "forward", "route", "kernel_mass",
                                                  "weyl", "weyl_positive", "class_number")},
}


def _parse(text: str, default):
    if isinstance(default, tuple):
        return tuple(type(default[0])(v) for v in text.split())
    return (str if default is None else type(default))(text)


def load_config(path: str | None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    # no DEFAULT section: one named [DEFAULT] is checked like any other
    parser = configparser.ConfigParser(default_section="")
    try:
        read = parser.read(path)
        values = {name: _parse(parser.get(sec, key), getattr(cfg, name))
                  for sec, keys in _INI_KEYS.items() for key, name in keys.items()
                  if parser.has_option(sec, key)}
    except (ValueError, configparser.Error) as exc:
        # configparser's messages run over several lines; the first says what failed
        raise ConfigError(f"malformed config: {str(exc).splitlines()[0]}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    unknown = [f"[{sec}]" for sec in parser.sections() if sec not in _INI_KEYS]
    unknown += [f"[{sec}] {key}" for sec in parser.sections() if sec in _INI_KEYS
                for key in parser.options(sec) if key not in _INI_KEYS[sec]]
    if unknown:
        raise ConfigError(f"unknown config section or key: {', '.join(unknown)}")
    return replace(cfg, **values)


@contextlib.contextmanager
def _writing(path: str):
    """Report a failed write to path as a ConfigError: exit 2, one line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(rows: list[dict], columns: tuple[str, ...], out: str | None, as_json: bool) -> None:
    """Write rows as CSV (or JSON) to a path or stdout; key order is fixed."""
    if as_json:
        # a non-finite float (a slope fitted to one row) is null: JSON has no NaN
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()} for row in rows]
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        text = buf.getvalue()
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(ok: bool, label: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


# ---------------------------------------------------------------------------
# Subcommands: each handler cmd_<name> takes (cfg, args) and returns
# (rows, ok); main writes the rows under the command's COMMANDS columns,
# and what a handler prints goes to stderr.


def cmd_transform_check(cfg: ExperimentConfig, args):
    rows = []
    all_ok = True
    moments = []
    for T in cfg.bandwidths:
        params = TransformParams.default(T)
        mass = transform.kernel_mass_integral(params)
        ok_mass = abs(mass - 1.0) <= cfg.tol_kint

        us = np.concatenate([[0.0], np.geomspace(1e-8, params.u_cutoff, 199)])
        kvals = transform.k_of_rho(2.0 * np.arcsinh(np.sqrt(us)), T)
        ok_pos = bool(kvals.min() >= -1e-15)

        ts = np.array([0.0, 1.0, 5.0, 10.0])
        fwd_err = float(max(abs(transform.forward_transform(ts, params) - transform.h_test(ts, T))))
        ok_fwd = fwd_err <= cfg.tol_forward

        route_diff = abs(transform.k_kernel(0.1, params)
                         - transform.k_kernel_spectral(0.1, params))
        ok_route = route_diff <= cfg.tol_route

        moment, majorant = transform.arsinh_moment(params)
        ok_moment = moment <= majorant
        moments.append((T, moment))

        for name, ok, value in (
            ("kint", ok_mass, abs(mass - 1.0)),
            ("k_nonnegative", ok_pos, float(kvals.min())),
            ("forward_transform", ok_fwd, fwd_err),
            ("route_agreement", ok_route, route_diff),
            ("arsinh_moment_bound", ok_moment, moment / majorant),
        ):
            all_ok &= _status(ok, f"T={T} {name} ({value:.3e})")
            rows.append({"T": T, "check": name, "value": value, "pass": ok})

    for (T1, m1), (T2, m2) in zip(moments, moments[1:]):
        ok = T2 * m2 <= T1 * m1 * 1.05
        all_ok &= _status(ok, f"T*moment non-increasing {T1}->{T2}")
        rows.append({"T": T2, "check": "t_moment_nonincreasing",
                     "value": T2 * m2 / (T1 * m1), "pass": ok})
    return rows, all_ok


_BASE_POINTS = (Point(0.0, 1.0), Point(0.5, 2.0), Point(0.3, 0.9))


def cmd_kernel_mass(cfg: ExperimentConfig, args):
    params = TransformParams.default(cfg.T)
    rows = []
    all_ok = True
    for z in _BASE_POINTS:
        mass, bound = transform.kernel_mass_on_surface(z, params)
        ok = abs(mass - 1.0) <= cfg.tol_kernel_mass
        all_ok &= _status(ok, f"kernel mass at ({z.x}, {z.y}): {mass:.6f}")
        rows.append({"z_x": z.x, "z_y": z.y, "mass": mass,
                     "error_bound": bound, "pass": ok})
    return rows, all_ok


def cmd_heegner(cfg: ExperimentConfig, args):
    rows = []
    for D in sorted((d for d in cfg.discriminants if d < 0), key=abs):
        m = heegner_measure(D)
        path = f"heegner_{abs(D)}.txt"
        with _writing(path):
            save_measure(m, path)
        rows.append({"D": D, "class_number": len(m), "file": path,
                     "max_height": float(m.ys.max())})
        print(f"D={D}: {len(m)} atoms -> {path}")
    return rows, True


def cmd_geodesics(cfg: ExperimentConfig, args):
    rows = []
    for D in sorted((d for d in cfg.discriminants if d > 0)):
        geos = closed_geodesics(D)
        m = geodesic_measure(D, cfg.samples_per_unit_length)
        path = f"geodesic_{D}.txt"
        with _writing(path):
            save_measure(m, path)
        rows.append({"D": D, "narrow_classes": len(geos),
                     "length": geos[0].length, "atoms": len(m), "file": path})
        print(f"D={D}: {len(geos)} classes, length {geos[0].length:.6f} -> {path}")
    return rows, True


def cmd_class_number(cfg: ExperimentConfig, args):
    rows = []
    all_ok = True
    for D in (d for d in range(-3, -201, -1) if is_fundamental(d)):
        h = class_number(D)
        w = {-3: 6, -4: 4}.get(D, 2)  # number of units of the order
        h_formula = w * math.sqrt(abs(D)) * dirichlet_l(1.0, D).real / (2.0 * math.pi)
        ok = abs(h - h_formula) <= cfg.tol_class_number
        all_ok &= ok
        if not ok:
            _status(ok, f"class number formula at D={D}")
        rows.append({"D": D, "h_enumerated": h, "h_formula": h_formula,
                     "abs_diff": abs(h - h_formula), "pass": ok})
    print(f"checked {len(rows)} discriminants; all pass: {all_ok}")
    return rows, all_ok


def cmd_weyl_compare(cfg: ExperimentConfig, args):
    rows = []
    all_ok = True
    for D in cfg.discriminants:
        c = weyl_compare(D, cfg.t_values, cfg.samples_per_unit_length)
        ratios = c.ratio.tolist()
        exempt = D in (-3, -4)
        tol = cfg.tol_weyl_positive if D > 0 else cfg.tol_weyl
        for t, emp, exact, ratio in zip(cfg.t_values, c.empirical_sq.tolist(),
                                        c.exact_sq.tolist(), ratios):
            ok = exempt or abs(ratio - 1.0) <= tol
            all_ok &= ok
            rows.append({"D": D, "t": t, "empirical_sq": emp, "exact_sq": exact,
                         "ratio": ratio, "pass": "recorded" if exempt else ok})
        if exempt:
            spread = max(ratios) - min(ratios)
            ok = spread <= cfg.tol_weyl
            all_ok &= ok
            _status(ok, f"D={D}: ratio constant in t (spread {spread:.2e}), "
                        f"recorded offset {sum(ratios) / len(ratios):.6f}")
        else:
            worst = max(abs(r - 1.0) for r in ratios)
            _status(worst <= tol, f"D={D}: max |ratio-1| = {worst:.2e}")
    return rows, all_ok


def _haar_mesh_bound(n_x: int, n_levels: int, y_max: float) -> float:
    """Hyperbolic diameter of the largest discretisation cell."""
    edges = np.linspace(-0.5, 0.5, n_x + 1)
    xc = 0.5 * (edges[:-1] + edges[1:])
    v = np.linspace(1.0 / y_max, 1.0 / np.sqrt(1.0 - xc * xc), n_levels + 1)
    u = pair_u(edges[1:], 1.0 / v[:-1], edges[:-1], 1.0 / v[1:])
    return float(2.0 * np.arcsinh(np.sqrt(u.max())))


def cmd_duke(cfg: ExperimentConfig, args):
    if 3.0 * cfg.T > _K_IT_ENVELOPE:  # berry_esseen_rhs_many's t-grid runs to max(3T, 15)
        raise ConfigError(f"duke's t-grid runs to 3T = {3.0 * cfg.T:g}, past the K_it envelope "
                          "|t| <= 20: bandwidth must be at most 20/3")
    try:
        data = MaassData.load(cfg.maass_data) if cfg.maass_data else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read Maass data {cfg.maass_data}: {exc}") from exc
    if cfg.maass_data and len(cfg.discriminants) > 1:
        # berry_esseen_rhs_many adds the one data set to every measure's bound
        raise ConfigError(f"--maass-data describes one measure, got {len(cfg.discriminants)} "
                          "discriminants")
    _check_support(cfg.n_x * cfg.n_levels + 1)  # the grid's atoms, before they are built
    grid = haar_discretization(cfg.n_x, cfg.n_levels, cfg.y_max)
    mesh = _haar_mesh_bound(cfg.n_x, cfg.n_levels, cfg.y_max)
    cusp_bound = 3.0 / (math.pi * cfg.y_max)
    disc_bound = mesh + cusp_bound
    ds = sorted(cfg.discriminants, key=abs)
    measures = [heegner_measure(D) if D < 0
                else geodesic_measure(D, cfg.samples_per_unit_length) for D in ds]
    for m in measures:  # fail before the spectral bound, not after it
        _check_support(len(m), len(grid))
    with warnings.catch_warnings():
        # the partial-bound note below stands for the warning
        warnings.simplefilter("ignore", PartialBoundWarning)
        bounds = berry_esseen_rhs_many(measures, None, cfg.T, data)
    duals = best_dual_lower_bound_many(measures, grid)
    if any(b.is_partial for b in bounds):
        source = (f"Maass data {cfg.maass_data} holds no rows" if cfg.maass_data
                  else "no Maass data supplied")
        print(f"note: {source}; spectral bound is the Eisenstein part only (partial bound)")
    rows = []
    all_ok = True
    for D, m, bound, dual in zip(ds, measures, bounds, duals):
        value, _plan = w1_exact(m, grid)
        ok = value >= dual - 1e-9
        all_ok &= ok
        # the bound's own Weyl sums against the L-function formula, on the
        # scale of the row's largest exact value
        exact = weyl_sum_exact_sq(D, bound.t_nodes)
        rows.append({
            "D": D, "W1_estimate": value, "dual_lower_bound": dual,
            "discretization_bound": disc_bound,
            "berry_esseen_total": bound.total,
            "weyl_exact_rel": float(np.abs(bound.weyl_sq - exact).max() / exact.max()),
            "T_used": cfg.T, "pass": ok,
        })
        print(f"D={D}: W1={value:.6f} dual>={dual:.6f} spectral total={bound.total:.4f}")
    if len(rows) >= 2:
        lx = np.log([abs(r["D"]) for r in rows])
        ly = np.log([r["W1_estimate"] for r in rows])
        slope = float(np.polyfit(lx, ly, 1)[0])
    else:
        slope = float("nan")
    print(f"fitted log-log slope of W1 vs |D|: {slope:.4f}")
    rows.append({"D": "slope", "W1_estimate": slope, "dual_lower_bound": "",
                 "discretization_bound": "", "berry_esseen_total": "",
                 "weyl_exact_rel": "", "T_used": cfg.T, "pass": ""})
    return rows, all_ok


def _mollify_points(seed: int):
    """The 50 sample points of mollify-check, uniform in x and log y."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < 50:
        x = rng.uniform(-0.5, 0.5)
        y = math.exp(rng.uniform(0.0, 1.6))
        if x * x + y * y >= 1.0:
            pts.append(Point(x, y))
    return pts


def cmd_mollify_check(cfg: ExperimentConfig, args):
    z0 = Point(0.0, 2.0)
    F = clipped_distance(z0, 3.0)
    pts = _mollify_points(cfg.seed)
    rows = []
    all_ok = True
    fzs = F(np.array([z.x for z in pts]), np.array([z.y for z in pts])).tolist()
    for eps in cfg.eps_list:
        sup_err = 0.0
        grad_worst = 0.0
        for z, fz in zip(pts, fzs):
            fe, dfx, dfy = transform.smooth_with_gradient(F, eps, z)
            sup_err = max(sup_err, abs(fz - fe))
            grad_worst = max(grad_worst, z.y**2 * 0.25 * (dfx**2 + dfy**2))
        bound = (math.exp(eps) - 0.5) ** 2 + 1e-3
        ok_sup = sup_err <= eps
        ok_grad = grad_worst <= bound
        all_ok &= _status(ok_sup, f"eps={eps}: sup|F - F_eps| = {sup_err:.4f} <= {eps}")
        all_ok &= _status(ok_grad, f"eps={eps}: grad bound {grad_worst:.4f} <= {bound:.4f}")
        rows.append({"eps": eps, "sup_error": sup_err, "grad_sq": grad_worst,
                     "grad_bound": bound, "pass": ok_sup and ok_grad})
    return rows, all_ok


def _read_measure(read, path):
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read measure {path}: {exc}") from exc


def cmd_wasserstein(cfg: ExperimentConfig, args):
    paths = (args.measure1, args.measure2)
    atoms = [_read_measure(measure_atoms, path) for path in paths]
    if None not in atoms:  # the headers' atom counts, before any row is parsed
        _check_support(*atoms)
    value, plan = w1_exact(*(_read_measure(load_measure, path) for path in paths))
    if args.plan_out:
        with _writing(args.plan_out):
            save_plan(plan, args.plan_out)
    print(f"W1 = {value:.12g}")
    return [{"file1": args.measure1, "file2": args.measure2, "W1": value}], True


# ---------------------------------------------------------------------------

# The one table of subcommands; it generates the parser and each --help text.
# name -> (help, CSV columns, extra arguments as (name or flag, add_argument keywords))
COMMANDS = {
    "transform-check": (
        "kernel unit mass, nonnegativity, inversion round-trip, arsinh-moment "
        "bound and route agreement for each bandwidth",
        ("T", "check", "value", "pass"), ()),
    "kernel-mass": (
        "surface integral of the automorphic kernel at three base points",
        ("z_x", "z_y", "mass", "error_bound", "pass"), ()),
    "heegner": (
        "write Heegner measure files heegner_<|D|>.txt for the discriminants D < 0",
        ("D", "class_number", "file", "max_height"), ()),
    "geodesics": (
        "write geodesic measure files geodesic_<D>.txt and lengths for the "
        "discriminants D > 0",
        ("D", "narrow_classes", "length", "atoms", "file"), ()),
    "class-number": (
        "form-enumeration h(D) against the L(1, chi_D) formula for the 62 "
        "fundamental discriminants -200 <= D <= -3 (the config's discriminants "
        "are not used)",
        ("D", "h_enumerated", "h_formula", "abs_diff", "pass"), ()),
    "weyl-compare": (
        "empirical vs exact squared Weyl sums (headline ratio = 1)",
        ("D", "t", "empirical_sq", "exact_sq", "ratio", "pass"), ()),
    "duke": (
        "W1(nu_D, nu_grid) per discriminant with dual bounds, the spectral "
        "upper bound for W1(nu_D, Haar), and max|empirical - exact| / max(exact) "
        "over that bound's squared Weyl sums; the final row holds the fitted "
        "log-log slope",
        ("D", "W1_estimate", "dual_lower_bound", "discretization_bound",
         "berry_esseen_total", "weyl_exact_rel", "T_used", "pass"),
        (("--maass-data", {"help": "path to cuspidal Weyl-sum data "
                                   "(rows 't_f weyl_sq_diff')"}),)),
    "mollify-check": (
        "smoothing-operator sup and gradient bounds at 50 seeded points",
        ("eps", "sup_error", "grad_sq", "grad_bound", "pass"),
        (("--seed", {"type": int, "help": "override the config seed"}),)),
    "wasserstein": (
        "exact W1 between two measure files",
        ("file1", "file2", "W1"),
        (("measure1", {}), ("measure2", {}),
         ("--plan-out", {"help": "write the optimal plan to this path"}))),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigError, so main reports them in one line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (sections [experiment], "
                                         "[haar], [geodesic], [tolerances])")
    common.add_argument("--out", help="write CSV/JSON rows to this path")
    common.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p = _Parser(prog="modsurf", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, columns, extra) in COMMANDS.items():
        description = f"{textwrap.fill(help_text)}\n\nCSV columns:\n  {','.join(columns)}"
        sp = sub.add_parser(name, parents=[common], help=help_text, description=description,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        for arg, kwargs in extra:
            sp.add_argument(arg, **kwargs)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        # an extra argument named like a config field overrides that field
        cfg = replace(cfg, **{f.name: getattr(args, f.name) for f in fields(cfg)
                              if getattr(args, f.name, None) is not None})
        cfg.validate()
        if args.out:  # an unwritable --out fails before any status line, and truncates nothing
            with _writing(args.out), open(args.out, "a"):
                pass
        # looked up by name at call time, so a replaced module attribute is called
        with contextlib.redirect_stdout(sys.stderr):
            rows, ok = globals()["cmd_" + args.command.replace("-", "_")](cfg, args)
        _emit(rows, COMMANDS[args.command][1], args.out, args.json)
    except (ConfigError, AtomLimitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
