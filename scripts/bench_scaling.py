"""Time qld and junta learning at k=2 across qubit counts, one process per cell.

    python3 scripts/bench_scaling.py --label after --out BENCH_scaling.json
    python3 scripts/bench_scaling.py --label before --src ../parent/src --out BENCH_scaling.json

Each cell is one learner at one d, on the planted sources of the benchmark
(``perfbench/workloads.py``, workload seed 1): ``qld_learn`` over the full
k=2 degree set on a planted parity, and ``junta_learn`` at k=2 on the planted
2-junta with label-flip rate ``JUNTA_ETA``; n = 2e4, delta = 0.05.  A cell
runs in a fresh process and records, in seconds:

- ``source_s``: building the source;
- ``prepare_s``: the median over ``PREPARE_REPEATS`` fresh copies of the
  source of preparing the generator probabilities of every cover batch on
  both states, with the class caches (cover, reductions) already warm, so
  only the state work is timed;
- ``cold_s``: the first learning call on the source (seed 1), which pays the
  class work and every per-source memo;
- ``warm_s``: the median of the calls at seeds 2 and 3 on the same source;
- ``peak_rss_mb``: the cell process's peak resident set.

A cell that does not finish within ``BUDGET_S`` seconds is recorded as
skipped, and so are the larger d of that learner.  ``--src`` names the
``src`` directory whose ``qfl`` is measured (default: this checkout's), so
one script times two checkouts alike.  Each invocation stores its cells
under ``--label`` in the output file, keeping the other labels' runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEARNERS = ("qld", "junta")
N = 20000
DELTA = 0.05
K = 2
WORKLOAD_SEED = 1
COLD_SEED = 1
WARM_SEEDS = (2, 3)
PREPARE_REPEATS = 3
DIMS = range(4, 12)
BUDGET_S = 120.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="name the cells are stored under")
    p.add_argument("--src", default=str(ROOT / "src"), help="src directory of the qfl to time")
    p.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    p.add_argument("--cell", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_cell(learner_name: str, d: int) -> dict:
    """Measure one cell in this process; ``qfl`` must already be importable."""
    from qfl import learner, simulator
    from qfl.pauli import degree_set_upto

    # the sources' planted inputs come from the benchmark's workloads; qfl is
    # imported first, so the workloads module uses the qfl being timed
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    coords = workloads.planted_coords(WORKLOAD_SEED, d)
    start = time.perf_counter()
    if learner_name == "qld":
        source = simulator.make_classical_source(workloads.parity_truth_table(d, coords))
    else:
        f_op = workloads.embed(workloads.planted_two_qubit_sign(WORKLOAD_SEED), coords, d)
        source = simulator.make_noisy_source(f_op, workloads.JUNTA_ETA)
    source_s = time.perf_counter() - start

    degree_set = degree_set_upto(d, K)
    if learner_name == "qld":
        def learn(seed):
            return learner.qld_learn(source, degree_set, N, DELTA, seed)
    else:
        def learn(seed):
            return learner.junta_learn(source, K, N, DELTA, seed)

    start = time.perf_counter()
    report = learn(COLD_SEED)[1]
    cold_s = time.perf_counter() - start
    warm = []
    for seed in WARM_SEEDS:
        start = time.perf_counter()
        learn(seed)
        warm.append(time.perf_counter() - start)

    prepare = []
    for _ in range(PREPARE_REPEATS):
        fresh = source.with_flip_rate(source.flip_rate)
        start = time.perf_counter()
        fresh.prepared_batches(report.cover.subsets)
        prepare.append(time.perf_counter() - start)

    return {
        "learner": learner_name,
        "d": d,
        "source_s": source_s,
        "prepare_s": statistics.median(prepare),
        "cold_s": cold_s,
        "warm_s": statistics.median(warm),
        "m": report.cover.m,
        "exact_loss": report.exact_loss,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _environment() -> dict:
    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    return {"platform": platform.platform(), "cpu_count": os.cpu_count(), "versions": versions}


def _run_grid(args) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=args.src)
    cells = []
    for name in LEARNERS:
        over = False
        for d in DIMS:
            if over:
                cells.append({"learner": name, "d": d, "skipped": "a smaller d was over budget"})
                continue
            cmd = [sys.executable, __file__, "--label", args.label, "--src", args.src,
                   "--cell", f"{name}:{d}"]
            try:
                out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                     timeout=BUDGET_S, check=True)
            except subprocess.TimeoutExpired:
                over = True
                cells.append({"learner": name, "d": d, "skipped": f"over the {BUDGET_S:g}-s budget"})
                continue
            cell = json.loads(out.stdout.strip().splitlines()[-1])
            print(json.dumps(cell), flush=True)
            cells.append(cell)
    return cells


def main(argv=None) -> None:
    args = _parse_args(argv)
    if args.cell is not None:
        name, d = args.cell.split(":")
        print(json.dumps(run_cell(name, int(d))))
        return
    run = {
        "label": args.label,
        "command": " ".join([Path(sys.executable).name, *sys.argv]),
        "environment": _environment(),
        "cells": _run_grid(args),
    }
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {
        "grid": {"learners": list(LEARNERS), "k": K, "n": N, "delta": DELTA,
                 "workload_seed": WORKLOAD_SEED, "cold_seed": COLD_SEED,
                 "warm_seeds": list(WARM_SEEDS), "prepare_repeats": PREPARE_REPEATS,
                 "dims": list(DIMS), "budget_s": BUDGET_S},
        "runs": [],
    }
    record["runs"] = [r for r in record["runs"] if r["label"] != args.label] + [run]
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
