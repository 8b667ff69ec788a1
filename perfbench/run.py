"""modsurf benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload duke --seed 0 --seconds 30 --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to
this directory.  The workloads are listed in BENCHMARK.json and defined in
``workloads.py``.  A run

1. times ``SETUP_REPEATS`` fresh processes that import ``modsurf.cli`` and
   build the kernel table for T = 1 (what every CLI call pays) and reports
   the median as ``setup_s``;
2. does the same set-up once in this process, then runs passes of the
   workload's operations one after another (a closed loop with one client)
   while the timed total plus one more pass fits in ``--seconds``;
3. checks every operation's output, then prints a report line and, as the
   last line, the result: with ``--trace 0`` the end-to-end metrics
   (medians over passes), with ``--trace 1`` the per-layer metrics.

A traced run alternates untraced and traced passes (at least one of each).
Per-layer figures are the traced set-up plus the median traced pass;
``op.<name>.wall_s`` is the median untraced time of one operation, and
``trace.overhead_s`` the median traced pass minus the median untraced one.
Spans are written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
SETUP_T = 1.0  # the CLI's default bandwidth
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import modsurf.cli; "
              f"from modsurf.transform import TransformParams; TransformParams.default({SETUP_T})")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> float:
    """Median wall time of fresh processes doing the CLI's import and kernel table."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy links, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    """Versions, cores and provenance recorded with every result."""
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        # informational (tracked by ROADMAP aim 2), not a gated metric
        "src_loc": sum(len(p.read_text().splitlines()) for p in sources),
    }


def op_medians(passes) -> dict:
    """Median over passes of each op's seconds, keyed by op name."""
    times = defaultdict(list)
    for ops in passes:
        for op in ops:
            times[op.name].append(op.seconds)
    return {name: statistics.median(ts) for name, ts in times.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "modsurf" / "__init__.py").is_file():
        return fail(f"no modsurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modsurf
    from modsurf.transform import TransformParams

    if Path(modsurf.__file__).resolve().parent != SRC / "modsurf":
        return fail(f"imported modsurf from {modsurf.__file__}, not from {SRC}")

    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment()
    setup_s = None if args.trace else measure_setup()

    work = BUILD / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)  # CLI commands write their measure files to the working directory
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.run = "setup"
        tracer.install()
    TransformParams.default(SETUP_T)
    if tracer:
        tracer.uninstall()

    workload = WORKLOADS[args.workload](args.seed, work)
    plain, traced = [], []
    measured = last = 0.0
    while not plain or (tracer and not traced) or measured + last <= args.seconds:
        k = len(plain) + len(traced) + 1
        if tracer and len(traced) < len(plain):
            tracer.run = len(traced)
            tracer.install()
            with tracer.span(f"pass.{args.workload}"):
                ops = workload.run(k)
            tracer.uninstall()
            traced.append(ops)
        else:
            ops = workload.run(k)
            plain.append(ops)
        last = sum(op.seconds for op in ops)
        measured += last
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_ops = [op for ops in plain + traced for op in ops]
    workload.check(all_ops)
    failed = [op for op in all_ops if op.failure]
    for op in failed:
        print(f"perfbench: {op.name} failed: {op.failure}", file=sys.stderr)
    os.chdir(ROOT)
    shutil.rmtree(work)

    walls = [sum(op.seconds for op in ops) for ops in plain]
    warn_counts = defaultdict(Counter)
    for op in all_ops:
        warn_counts[op.name].update(op.warnings)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env,
        "passes": len(plain), "traced_passes": len(traced),
        "pass_wall_s": walls,
        "op_median_s": op_medians(plain),
        "warnings": {name: dict(c) for name, c in warn_counts.items() if c},
    }

    if tracer:
        layers = tracer.per_pass("setup", range(len(traced)))
        traced_walls = [sum(op.seconds for op in ops) for ops in traced]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        layers.update({f"op.{name}.wall_s": t for name, t in report["op_median_s"].items()})
        BUILD.mkdir(parents=True, exist_ok=True)
        tracer.write(BUILD / f"trace-{args.workload}-seed{args.seed}.json")
        report["layers_all"] = dict(sorted(layers.items()))
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1.0 - len(failed) / len(all_ops),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
