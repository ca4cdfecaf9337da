"""qfl benchmark: one workload per process, a closed loop of learning calls.

    python3 perfbench/run.py --workload qld-d6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs are made from ``--seed``; at ``DEFAULT_SEED``
outputs are also compared with ``perfbench/reference.json``.  Load model: one
process, each call starts when the previous one returns, ``QFL_THREADS=1``
and OpenBLAS at its default thread count.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics:
learning-call throughput and latency, set-up time (median of several fresh
processes, each timed from spawn to the point where the first call would
start), peak RSS, and quality over the seed's first pass of calls.

``--trace 1`` alternates untraced and traced passes over the seed's fixed list
of units and reports per-layer metrics per pass (median over passes) from
spans recorded at the boundaries ``qfl.learner`` and ``qfl.harness`` call
through, plus ``trace.overhead`` = traced / untraced pass seconds - 1.

The second-to-last stdout line is a JSON record with the environment, every
metric including ``failed_frac``, the tail percentile used and the layers that
did not run; the last line is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 7
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs, print 'ready' and exit (set-up probe)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> str:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    paths = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int, calls: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "QFL_THREADS": os.environ.get("QFL_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
        "calls_per_run": calls,
    }


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def tail(seconds: list[float]) -> tuple[int, float]:
    """Highest listed percentile with at least TAIL_BEYOND calls beyond it.

    Falls back to the median when there are too few calls for any of them.
    """
    n = len(seconds)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return p, statistics.quantiles(seconds, n=100, method="inclusive")[p - 1]
    return 50, statistics.median(seconds)


def run_untraced(spec, seed: int, seconds: float) -> tuple[list, dict]:
    import workloads

    setup = statistics.median(probe_setup(spec.name, seed) for _ in range(SETUP_PROBES))
    wl = workloads.make(spec, seed, nullcontext)
    try:
        units = wl.units()
        calls, first_pass = [], []
        t0 = time.perf_counter()
        i = 0
        # Whole first pass, then no unit that would end past the deadline.
        while i < len(units) or (time.perf_counter() - t0) * (i + 1) / i <= seconds:
            calls += units[i % len(units)]()
            i += 1
            if i == len(units):
                first_pass = list(calls)
        wall = time.perf_counter() - t0
    finally:
        wl.close()
    durations = [c.seconds for c in calls]
    p, tail_value = tail(durations)
    # Quality over the first pass only, so it depends on the seed, not on timing.
    losses = [c.exact_loss for c in first_pass if c.exact_loss is not None]
    bounded = [c for c in first_pass if c.bound_measured is not None and c.exact_loss is not None]
    metrics = {
        "samples_per_s": (sum(c.n for c in calls) / wall, "1/s"),
        "learn_s.p50": (statistics.median(durations), "s"),
        "learn_s.tail": (tail_value, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(c.failed for c in calls) / len(calls), "fraction"),
        "exact_loss_mean": (statistics.fmean(losses) if losses else float("nan"), "fraction"),
        "bound_met_frac": (sum(c.exact_loss <= c.bound_measured for c in bounded) / len(bounded)
                           if bounded else float("nan"), "fraction"),
    }
    detail = {"tail_percentile": p, "calls": len(calls), "first_pass_calls": len(first_pass),
              "wall_s": wall}
    return calls, {"metrics": metrics, "detail": detail}


def run_pass(spec, seed: int, source_span) -> list:
    import workloads

    wl = workloads.make(spec, seed, source_span)
    try:
        return [c for unit in wl.units() for c in unit()]
    finally:
        wl.close()


def run_traced(spec, seed: int, seconds: float) -> tuple[list, dict]:
    from spans import LAYER_METRICS, Tracer, layer_values, median_values

    calls, untraced, traced, passes, absent = [], [], [], [], []
    t0 = time.perf_counter()
    # At least one pair of passes, then no pair that would end past the deadline.
    while not passes or (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= seconds:
        t = time.perf_counter()
        calls += run_pass(spec, seed, nullcontext)
        untraced.append(time.perf_counter() - t)
        tracer = Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            with tracer.span("bench.pass"):
                calls += run_pass(spec, seed, lambda: tracer.span("simulator.source"))
            traced.append(time.perf_counter() - t)
        finally:
            tracer.restore()
        passes.append(layer_values(tracer.spans, tracer.self_seconds()))
        absent = tracer.absent
    values = median_values(passes)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    not_run = [name for name, _ in LAYER_METRICS if values[name] == 0]
    detail = {"passes": len(passes), "calls": len(calls), "untraced_pass_s": untraced,
              "traced_pass_s": traced, "absent_names": absent, "layers_not_run": not_run}
    return calls, {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "qfl" / "__init__.py").is_file():
        print(f"no qfl sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ["QFL_THREADS"] = "1"
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}",
              file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_only:
        wl = workloads.make(spec, seed, nullcontext)
        print("ready", flush=True)
        wl.close()
        return 0
    run = run_traced if args.trace else run_untraced
    calls, result = run(spec, seed, args.seconds)
    failed = [c for c in calls if c.failed]
    record = {
        "workload": spec.name,
        "trace": args.trace,
        "environment": environment(seed, len(calls)),
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["detail"],
        "problems": sorted({p for c in failed for p in c.problems})[:20],
    }
    print(json.dumps(record))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": result["metrics"][k][0], "unit": result["metrics"][k][1]}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
