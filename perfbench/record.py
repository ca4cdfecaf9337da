"""Write perfbench/reference.json: the outputs the benchmark checks at DEFAULT_SEED.

    python3 perfbench/record.py

For ``qld-d6`` and ``junta-d6`` it records the cover, the plan and, per learner
seed, the outcome sums behind each estimate, ``exact_loss`` and
``chosen_coords``.  For ``bundled`` it records the sha256 of each config's
``results.csv`` as written by ``qfl run``.  Rerun it only when a change is
meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import nullcontext

import workloads


def direct_reference(name: str) -> dict:
    wl = workloads.make(workloads.SPECS[name], workloads.DEFAULT_SEED, nullcontext,
                        check_reference_values=False)
    ref: dict = {"calls": {}}
    try:
        for seed in wl.learner_seeds:
            _, report = wl.learn(seed)
            ref["cover"] = report.cover.to_text()
            ref["plan"] = list(report.plan.sizes)
            ref["calls"][str(seed)] = {
                "sums": workloads.estimate_sums(report),
                "exact_loss": report.exact_loss,
                "chosen_coords": list(report.chosen_coords) if report.chosen_coords is not None else None,
            }
    finally:
        wl.close()
    return ref


def bundled_reference() -> dict:
    out = workloads.SCRATCH_DIR / "record"
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"), QFL_THREADS="1")
    ref = {}
    try:
        for name in workloads.SPECS["bundled"].configs:
            listed = subprocess.run(
                [sys.executable, "-m", "qfl.cli", "run", str(workloads.ROOT / "configs" / name),
                 "--out-dir", str(out)],
                env=env, check=True, capture_output=True, text=True,
            ).stdout.splitlines()
            csv_path = next(p for p in listed if p.endswith("results.csv"))
            ref[name] = hashlib.sha256(open(csv_path, "rb").read()).hexdigest()
    finally:
        shutil.rmtree(workloads.SCRATCH_DIR, ignore_errors=True)
    return ref


def main() -> None:
    reference = {
        "seed": workloads.DEFAULT_SEED,
        "qld-d6": direct_reference("qld-d6"),
        "junta-d6": direct_reference("junta-d6"),
        "bundled": bundled_reference(),
    }
    text = json.dumps(reference, indent=1)
    # One line per integer list keeps the file short and its diffs readable.
    text = re.sub(r"\[[-\d,\s]+\]", lambda m: json.dumps(json.loads(m.group(0))), text)
    workloads.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
