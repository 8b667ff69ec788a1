"""Span tracer for the benchmark's traced run.

The tracer wraps public modsurf functions at every module attribute that
holds them, which is the name each caller looks them up under (for example
``modsurf.eisenstein.bessel_k_imag_many`` or ``modsurf.cli.w1_exact``).
Each call records a span: name, start, end, parent span and run id, plus
counts taken from the call's result.  Spans stay in memory until the run
ends; ``write`` stores them as JSON.  Nothing in ``src/`` is edited: the
wrappers are installed for a traced pass and removed after it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
import warnings
from collections import defaultdict

MODULES = ("specfun", "eisenstein", "transport", "hypgeo", "transform",
           "arithmetic", "cli")

# Traced functions, as "<module>.<function>", with the counters read from
# each call's result.  Every function also counts calls and self time.
LAYERS = {
    "specfun.bessel_k_imag_many": {"args": lambda r: r.size},
    "specfun.conical_p": {},
    "specfun.dirichlet_l": {},
    "eisenstein.eisenstein_eval_many": {"points": lambda r: r.size},
    "eisenstein.berry_esseen_rhs": {},
    "eisenstein.weyl_compare": {},
    "transport.w1_exact": {"cells": lambda r: r[1].plan.size},
    "transport.w1_sinkhorn": {},
    "transport.best_dual_lower_bound": {},
    "transport.save_plan": {},
    "hypgeo.surface_distance_matrix": {"entries": lambda r: r.size},
    "hypgeo.surface_distance_to_point": {"points": lambda r: r.size},
    "hypgeo.reduce_batch": {"points": lambda r: r[0].size},
    "transform.kernel_mass_on_surface": {},
    "transform.ball_tiles": {"tiles": lambda r: len(r)},
    "transform.smooth": {},
    "transform.k_of_rho": {"nodes": lambda r: r.size},
    "arithmetic.geodesic_measure": {"atoms": lambda r: len(r)},
    "arithmetic.heegner_measure": {},
    "arithmetic.haar_discretization": {},
    "arithmetic.load_measure": {},
    "arithmetic.save_measure": {},
}

# Warnings escaping these functions are counted per call.  They are
# re-issued unchanged, so the caller still sees every one of them.
COUNT_WARNINGS = {"transport.w1_sinkhorn"}

# CLI subcommand handlers; their spans are named "cli.<subcommand>".
CLI_COMMANDS = ("transform-check", "kernel-mass", "class-number", "weyl-compare",
                "heegner", "geodesics", "duke", "mollify-check", "wasserstein")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # one list per span: [name, run, parent, start, end, counts]
        self.spans: list[list] = []
        self.run = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, self.run, parent, time.perf_counter(), None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block; used for the benchmark's own roots."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, counters: dict, count_warnings: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    span[5]["warnings"] = len(caught)
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span)
            for counter, count in counters.items():
                span[5][counter] = int(count(result))
            return result

        return traced

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        """Replace every module attribute bound to a traced function by its wrapper."""
        mods = [importlib.import_module(f"modsurf.{m}") for m in MODULES]
        mods.append(importlib.import_module("modsurf"))
        targets = [(qual, getattr(importlib.import_module(f"modsurf.{qual.split('.')[0]}"),
                                  qual.split(".")[1]), counters)
                   for qual, counters in LAYERS.items()]
        cli = importlib.import_module("modsurf.cli")
        targets += [(f"cli.{cmd}", getattr(cli, "cmd_" + cmd.replace("-", "_")), {})
                    for cmd in CLI_COMMANDS]
        for qual, fn, counters in targets:
            wrapper = self._wrap(qual, fn, counters, qual in COUNT_WARNINGS)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def totals(self, run) -> dict[str, float]:
        """Per-name calls, self time and counters over the spans of one run.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] == run and span[2] is not None:
                child_time[span[2]] += span[4] - span[3]
        out: dict[str, float] = defaultdict(float)
        for idx, (name, span_run, _parent, start, end, counts) in enumerate(self.spans):
            if span_run != run:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[idx]
            for counter, value in counts.items():
                out[f"{name}.{counter}"] += value
        out["trace.spans"] = float(sum(1 for s in self.spans if s[1] == run))
        return out

    def per_pass(self, setup_run, pass_runs) -> dict[str, float]:
        """Set-up totals plus the median over traced passes, for every name seen."""
        setup = self.totals(setup_run)
        passes = [self.totals(r) for r in pass_runs]
        names = set(setup).union(*passes)
        return {n: setup.get(n, 0.0) + statistics.median(p.get(n, 0.0) for p in passes)
                for n in names}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "run", "parent", "start", "end", "counts"],
                       "spans": self.spans}, fh)
