"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads qld-d6 --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json.  With ``--baseline`` it also
makes one traced run per workload at the default seed and writes the medians,
quartiles and per-layer numbers, with the end-to-end metric and workload each
layer metric should move, to the given file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).with_name("run.py")

# Per-layer metric prefix -> (end-to-end metrics it should move, workloads it
# is mostly on, workloads it is little on).  ``bundled`` is not in
# BENCHMARK.json; it is named where a layer weighs most on it.
MOVES = {
    "simulator.measure_batch_groups": ("learn_s.p50, samples_per_s, peak_rss_mb", "junta-d6, qld-d6", "bundled"),
    "simulator.draw_samples": ("samples_per_s", "bundled, qld-d6", "junta-d6"),
    "simulator.group_samples": ("samples_per_s", "bundled, qld-d6", "junta-d6"),
    "simulator.source": ("setup_s on junta-d6; learn_s.p50 on qld-d6", "qld-d6 (loaded per call)", "junta-d6"),
    "compatibility.best_cover": ("learn_s.p50", "qld-d6", "junta-d6"),
    "compatibility.allocate_batches": ("samples_per_s", "bundled, qld-d6", "junta-d6"),
    "compatibility.check_cover": ("samples_per_s", "qld-d6", "junta-d6"),
    "learner.fourier_estimation": ("learn_s.p50", "qld-d6", "junta-d6"),
    "learner.learn": ("samples_per_s", "bundled, qld-d6", "junta-d6"),
    "learner.build_predictor": ("learn_s.p50", "qld-d6", "junta-d6"),
    "learner.select": ("learn_s.p50", "junta-d6", "qld-d6 (absent)"),
    "learner.opt_k": ("learn_s.p50", "junta-d6", "qld-d6 (absent)"),
    "learner.exact_loss": ("learn_s.p50", "qld-d6", "junta-d6"),
    "learner.empirical_loss": ("learn_s.p50", "bundled (n_test > 0)", "qld-d6, junta-d6 (absent)"),
    "operators.rho_norm": ("learn_s.p50", "junta-d6", "qld-d6 (absent)"),
    "operators.sign_operator": ("learn_s.p50", "qld-d6", "junta-d6"),
    "pauli.synthesize": ("learn_s.p50", "junta-d6", "qld-d6"),
    "harness.load_source": ("samples_per_s", "qld-d6, bundled", "junta-d6 (absent)"),
    "harness.run_config": ("samples_per_s", "qld-d6, bundled", "junta-d6 (absent)"),
    "trace.overhead": ("none; end-to-end metrics are measured with tracing off", "all", "all"),
}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int | None, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                           timeout=600).stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed calls: {record['problems']}")
    return record, result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    p.add_argument("--baseline", type=Path, help="also write a baseline file here")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            record, result = run_once(workload, seed, seconds, 0)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"end_to_end": {}}
        for name, values in per_metric.items():
            s = summarize(values)
            ok = "ok" if s["spread"] < bounds[name] / 3 else ("WIDE" if s["spread"] > bounds[name] else "over 1/3")
            print(f"  {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}  {ok}", flush=True)
            entry["end_to_end"][name] = s
        if args.baseline:
            record, result = run_once(workload, None, seconds, 1)
            entry["environment"] = record["environment"]
            entry["traced"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["layers_not_run"] = record["layers_not_run"]
        baseline["workloads"][workload] = entry
    if args.baseline:
        baseline["moves"] = {k: {"moves": v[0], "mostly_on": v[1], "little_on": v[2]}
                             for k, v in MOVES.items()}
        text = json.dumps(baseline, indent=1)
        # One line per list of numbers keeps the file short and its diffs readable.
        text = re.sub(r"\[[-\d.,\se+]+\]", lambda m: json.dumps(json.loads(m.group(0))), text)
        args.baseline.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")


if __name__ == "__main__":
    main()
