"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import run
import workloads
from qfl import harness, learner
from spans import Tracer

DECLARED = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The eight end-to-end metrics: BENCHMARK.json lists the seven that are never
# zero; failed_frac (0 on a correct run) is in the record line and, as counts,
# in the result's attempted/failed.
E2E = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
E2E_ALL = dict(E2E, failed_frac="fraction")
LAYERS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# Self times are differences of perf_counter readings; their sum misses the
# root's duration only by float rounding and the untimed instructions around it.
SELF_SUM_TOL_S = 1e-3

TINY = {
    "qld-d6": replace(workloads.SPECS["qld-d6"], d=3, n=2000, learner_seeds=3),
    "junta-d6": replace(workloads.SPECS["junta-d6"], d=4, n=4000, learner_seeds=2),
    "bundled": replace(workloads.SPECS["bundled"], configs=("bell.cfg", "parity_qld.cfg")),
}
SEED = 7


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(name):
    calls, result = run.run_untraced(TINY[name], SEED, 0.0)
    assert calls and not any(c.failed for c in calls)
    metrics = result["metrics"]
    assert {k: u for k, (_, u) in metrics.items()} == E2E_ALL
    assert all(v > 0 for k, (v, _) in metrics.items() if k != "failed_frac")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_prints_every_layer_metric(name):
    calls, result = run.run_traced(TINY[name], SEED, 0.0)
    assert not any(c.failed for c in calls)
    metrics = result["metrics"]
    assert {k: u for k, (_, u) in metrics.items()} == LAYERS
    not_run = set(result["detail"]["layers_not_run"])
    assert metrics["simulator.measure_batch_groups.calls"][0] > 0
    if name != "bundled":
        assert ("learner.select.s" in not_run) == (name == "qld-d6")
    assert ("harness.run_config.self_s" in not_run) == (name == "junta-d6")


def test_main_prints_result_as_last_line(capsys):
    assert run.main(["--workload", "bundled", "--seed", "3", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 28
    assert {k: m["unit"] for k, m in result["metrics"].items()} == E2E
    assert {k: m["unit"] for k, m in record["all_metrics"].items()} == E2E_ALL
    assert record["environment"]["QFL_THREADS"] == "1"
    assert record["environment"]["calls_per_run"] == 28


def test_failing_direct_call_is_counted_and_run_continues(monkeypatch):
    real = harness.qld_learn
    seen = []

    def flaky(*args, **kwargs):
        seen.append(1)
        if len(seen) == 2:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "qld_learn", flaky)
    calls, result = run.run_untraced(TINY["qld-d6"], SEED, 0.0)
    assert len(calls) >= 3
    assert sum(c.failed for c in calls) == 1
    assert result["metrics"]["failed_frac"][0] == pytest.approx(1 / len(calls))


def test_failing_check_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "check_report", lambda *a: ["injected check failure"])
    calls, result = run.run_untraced(TINY["junta-d6"], SEED, 0.0)
    assert all(c.failed for c in calls)
    assert result["metrics"]["failed_frac"][0] == 1.0


def test_failing_harness_call_is_counted(monkeypatch):
    real = harness.qld_learn

    def broken(source, degree_set, n, *args, **kwargs):
        if n == 4000:
            raise RuntimeError("injected")
        return real(source, degree_set, n, *args, **kwargs)

    monkeypatch.setattr(harness, "qld_learn", broken)
    spec = replace(workloads.SPECS["bundled"], configs=("bell.cfg", "junta_d5.cfg"))
    calls, _ = run.run_untraced(spec, SEED, 0.0)
    assert [c.failed for c in calls] == [True] + [False] * 5


def test_self_times_sum_to_traced_wall():
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            run.run_pass(TINY["junta-d6"], SEED, lambda: tracer.span("simulator.source"))
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    own = tracer.self_seconds()
    assert min(own) > -1e-9
    assert abs(sum(own) - wall) <= SELF_SUM_TOL_S
    names = {sp.name for sp in tracer.spans}
    assert {"learner.junta_learn", "simulator.measure_batch_groups", "learner.opt_k"} <= names
    assert learner.junta_learn.__name__ == "junta_learn" and not hasattr(learner.junta_learn, "__wrapped__")


def test_missing_name_is_absent_not_an_error():
    tracer = Tracer()
    tracer.wrap(learner, "no_such_function")
    assert tracer.absent == ["qfl.learner.no_such_function"]


def test_tail_percentile_keeps_ten_calls_beyond():
    assert run.tail([float(i) for i in range(100)])[0] == 90
    assert run.tail([float(i) for i in range(40)])[0] == 75
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)


def test_planted_junta_is_a_sign_and_not_a_one_junta():
    for seed in range(20):
        f = workloads.planted_two_qubit_sign(seed)
        assert max(workloads._marginal_norms(f)) <= workloads.MARGINAL_NORM_MAX
        coords = workloads.planted_coords(seed, 6)
        g = workloads.embed(f, coords, 6)
        assert abs(g @ g - workloads.np.eye(64)).max() < 1e-9


def test_bundled_default_seed_matches_qfl_run_bytes():
    calls, _ = run.run_untraced(workloads.SPECS["bundled"], workloads.DEFAULT_SEED, 0.0)
    assert len(calls) == 28
    assert not any(c.failed for c in calls), [c.problems for c in calls if c.failed]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qld-d6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
