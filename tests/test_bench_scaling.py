"""``scripts/bench_scaling.py`` measures one cell end to end through the
source API it calls directly, in a subprocess as its grid runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("learner", ["qld", "junta"])
def test_one_cell_prints_its_measurements(learner):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = [sys.executable, str(REPO / "scripts" / "bench_scaling.py"), "--label", "t", "--cell", f"{learner}:4"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    cell = json.loads(out.stdout.strip().splitlines()[-1])
    assert (cell["learner"], cell["d"]) == (learner, 4)
    for key in ("source_s", "prepare_s", "cold_s", "warm_s", "peak_rss_mb"):
        assert cell[key] > 0.0, key
    assert cell["m"] >= 1
    assert 0.0 <= cell["exact_loss"] <= 1.0
