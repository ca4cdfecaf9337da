"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (visible with ``pytest -s`` or in the captured output).

Criteria 01-07 and 09-11 each run one check of ``qfl verify``
(:mod:`qfl.checks`), which holds their sizes, seeds, thresholds and oracles,
so each is defined once; 08 and 12 have no matching check.  Every expected
value is either a worked-example constant verified against the problem
statement or computed by an independent oracle (dense matrix algebra,
exhaustive enumeration, or unit-resolution grid search).
"""

import time
from pathlib import Path

from qfl import checks
from qfl.cli import main as cli_main
from qfl.compatibility import allocate_batches, best_cover
from qfl.learner import chernoff_band, fourier_estimation, qld_learn
from qfl.pauli import degree_set_classical_upto
from qfl.simulator import RandomStreams, draw_samples, make_noisy_source

from conftest import make_parity_source

REPO = Path(__file__).resolve().parents[1]


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def report_check(num: int, name: str, check, limit: float = float("inf")):
    """Run the criterion's check and report it, passing when the check does
    within ``limit`` seconds."""
    start = time.perf_counter()
    try:
        check()
    except checks.CheckFailure as exc:
        report(num, name, False, str(exc))
    elapsed = time.perf_counter() - start
    report(num, name, elapsed < limit, f"{check.__name__} in {elapsed:.2f}s")


def test_criterion_01_state_discrimination_exactness():
    report_check(1, "two-state example optimum is exactly 1/4", checks.check_bell_example, 1.0)


def test_criterion_02_fourier_correctness():
    report_check(2, "orthonormality, Parseval, round trip at d <= 4",
                 checks.check_fourier_correctness, 30.0)


def test_criterion_03_commutation_oracle_equivalence():
    report_check(3, "symplectic rule equals dense commutator test", checks.check_commutation_oracle)


def test_criterion_04_estimation_concentration():
    report_check(4, "single-coefficient band holds in >= 19/20 seeded runs",
                 checks.check_estimation_concentration)


def test_criterion_05_sequential_batch_equivalence():
    report_check(5, "sequential batch matches enumerated joint law (chi-square)",
                 checks.check_sequential_batch_law)


def test_criterion_06_qld_end_to_end():
    report_check(6, "low-degree learning of a planted parity", checks.check_qld_parity, 300.0)


def test_criterion_07_junta_recovery():
    report_check(7, "junta learner recovers the planted coordinates",
                 checks.check_junta_recovery, 600.0)


def test_criterion_08_label_noise_behavior():
    eta = 0.1
    base = make_parity_source(4, (1, 2))
    source = make_noisy_source(base.labeling_xop, eta)
    degree_set = degree_set_classical_upto(4, 2)
    n, delta = 50_000, 0.05
    # coefficient shrinkage within the concentration band (single cover batch)
    streams = RandomStreams(99)
    cover = best_cover(degree_set, n, delta)
    plan = allocate_batches(n, cover, delta)
    bases, labels = draw_samples(source, n, streams.generator(0))
    table = fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
    shrink_ok = True
    for subset, size in zip(cover.subsets, plan.sizes):
        band = chernoff_band(size, delta, len(subset))
        for s in subset:
            want = (1 - 2 * eta) * base.exact_coefficient(s)
            if abs(table[s] - want) > band:
                shrink_ok = False
    # learned loss window over seeded runs
    window_ok = True
    losses = []
    for seed in range(5):
        _, rep = qld_learn(source, degree_set, n, delta, seed, opt_value=eta)
        losses.append(rep.exact_loss)
        if not (eta - 1e-9 <= rep.exact_loss <= 2 * eta + 5 * rep.beta_measured + 0.02):
            window_ok = False
    report(8, "label noise shrinks coefficients and bounds the loss",
           shrink_ok and window_ok,
           f"shrinkage={shrink_ok} losses={['%.3f' % v for v in losses]}")


def test_criterion_09_batch_allocation_optimality():
    report_check(9, "sample allocation matches unit-resolution grid search",
                 checks.check_batch_allocation)


def test_criterion_10_cover_quality():
    report_check(10, "exhaustive <= greedy <= singleton cover scores", checks.check_cover_search)


def test_criterion_11_norm_inequality_suite():
    report_check(11, "weighted-norm inequality suite on 50 random instances",
                 checks.check_rho_norm_inequalities)


def test_criterion_12_run_determinism(tmp_path):
    config = REPO / "configs" / "bell.cfg"
    code_a = cli_main(["run", str(config), "--out-dir", str(tmp_path / "a"),
                       "--seed-override", "1,2"])
    code_b = cli_main(["run", str(config), "--out-dir", str(tmp_path / "b"),
                       "--seed-override", "1,2"])
    bytes_a = (tmp_path / "a" / "bell_results" / "results.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "bell_results" / "results.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    report(12, "identical config and seeds give byte-identical CSV", ok,
           f"{len(bytes_a)} bytes")
