"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (visible with ``pytest -s`` or in the captured output).

Every expected value is either a worked-example constant verified against the
problem statement or computed here by an independent oracle (dense matrix
algebra, exhaustive enumeration, or unit-resolution grid search).
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
from scipy import stats

from qfl.cli import main as cli_main
from qfl.compatibility import (
    BatchPlan,
    Cover,
    allocate_batches,
    allocation_objective,
    best_cover,
    cover_score,
    pauli_commute,
    singleton_cover,
)
from qfl.learner import (
    build_predictor,
    chernoff_band,
    exact_loss,
    fourier_estimation,
    junta_learn,
    opt_k,
    qld_learn,
)
from qfl.operators import maximally_mixed, rho_inner_product, rho_norm
from qfl.pauli import (
    DegreeSet,
    PauliString,
    degree_set_classical_upto,
    fourier_transform,
    full_degree_set,
    pauli_matrix,
    synthesize,
)
from qfl.simulator import (
    RandomStreams,
    draw_samples,
    estimation_observable,
    make_noisy_source,
    make_realizable_source,
    measure_batch_groups,
)

from conftest import (
    expand_outcomes,
    make_bell_source,
    make_parity_source,
    random_hermitian,
    random_string,
)
from oracles import kron_pauli

P = PauliString.from_digits
REPO = Path(__file__).resolve().parents[1]


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_state_discrimination_exactness():
    start = time.perf_counter()
    source = make_bell_source()
    value, coords = opt_k(source, 2)
    predictor = build_predictor(source.exact_table(full_degree_set(2)), full_degree_set(2))
    loss = exact_loss(predictor, source)
    elapsed = time.perf_counter() - start
    ok = abs(value - 0.25) <= 1e-9 and abs(loss - 0.25) <= 1e-9 and elapsed < 1.0
    report(1, "two-state example optimum is exactly 1/4", ok,
           f"opt={value!r} loss={loss!r} coords={coords} in {elapsed:.3f}s")


def test_criterion_02_fourier_correctness():
    start = time.perf_counter()
    worst_ortho = 0.0
    for d in (1, 2, 3, 4):
        mm = maximally_mixed(d)
        mats = [(s, pauli_matrix(s)) for s in full_degree_set(d)]
        for s, a in mats:
            for t, b in mats:
                got = rho_inner_product(a, b, mm)
                worst_ortho = max(worst_ortho, abs(got - (1.0 if s == t else 0.0)))
    rng = np.random.default_rng(2024)
    worst_round = worst_parseval = 0.0
    for d in (1, 2, 3, 4):
        a = random_hermitian(rng, 1 << d)
        table = fourier_transform(a, full_degree_set(d))
        worst_round = max(worst_round, float(np.abs(synthesize(table) - a).max()))
        norm_sq = rho_norm(a, 2, maximally_mixed(d)) ** 2
        worst_parseval = max(worst_parseval, abs(table.power() - norm_sq))
    elapsed = time.perf_counter() - start
    ok = worst_ortho <= 1e-12 and worst_round <= 1e-8 and worst_parseval <= 1e-8 and elapsed < 30
    report(2, "orthonormality, Parseval, round trip at d <= 4", ok,
           f"ortho={worst_ortho:.2e} round={worst_round:.2e} parseval={worst_parseval:.2e} "
           f"in {elapsed:.1f}s")


def test_criterion_03_commutation_oracle_equivalence():
    disagreements = 0
    strings3 = list(full_degree_set(3))
    dense3 = {s: kron_pauli(s) for s in strings3}
    for s in strings3:
        for t in strings3:
            a, b = dense3[s], dense3[t]
            dense = bool(np.abs(a @ b - b @ a).max() <= 1e-12)
            disagreements += int(dense != pauli_commute(s, t))
    rng = np.random.default_rng(88)
    for _ in range(500):
        s, t = random_string(rng, 8), random_string(rng, 8)
        a, b = kron_pauli(s), kron_pauli(t)
        dense = bool(np.abs(a @ b - b @ a).max() <= 1e-12)
        disagreements += int(dense != pauli_commute(s, t))
    report(3, "symplectic rule equals dense commutator test", disagreements == 0,
           f"{disagreements} disagreements over 4096 + 500 pairs")


def test_criterion_04_estimation_concentration():
    source = make_realizable_source(pauli_matrix(P("3")))
    s = P("3")
    n, delta = 10_000, 0.05
    band = math.sqrt(8.0 / n * math.log(2.0 / delta))
    cover = Cover((DegreeSet.of(1, [s]),))
    truth = source.exact_coefficient(s)
    hits = 0
    for seed in range(20):
        streams = RandomStreams(seed)
        bases, labels = draw_samples(source, n, streams.generator(0))
        table = fourier_estimation(source, bases, labels, cover, BatchPlan((n,)), streams.generator(2))
        hits += int(abs(table[s] - truth) <= band)
    report(4, "single-coefficient band holds in >= 19/20 seeded runs", hits >= 19,
           f"{hits}/20 within {band:.4f}")


def test_criterion_05_sequential_batch_equivalence():
    source = make_bell_source()
    batch = DegreeSet.of(2, [P("30"), P("03")])
    n = 100_000
    # oracle: enumerate the fine-grained product effects on the joint state
    e0 = np.diag([1.0, 0.0]).astype(complex)
    joint = np.kron(source.rho0, e0)
    expected = {}
    for w in itertools.product((1, -1), repeat=2):
        g = np.eye(8, dtype=complex)
        for choice, s in zip(w, batch):
            plus, minus = estimation_observable(s)
            g = g @ (plus if choice == 1 else minus)
        expected[w] = float(np.trace(g @ joint).real)
    uniforms = RandomStreams(515).generator(0).random((n, 2))
    groups = [(source.rho0, -1.0, np.arange(n))]
    outcomes = expand_outcomes(groups, batch, measure_batch_groups(groups, batch, uniforms))
    stat = 0.0
    for w, p in expected.items():
        observed = int(np.sum((outcomes[:, 0] == w[0]) & (outcomes[:, 1] == w[1])))
        stat += (observed - n * p) ** 2 / (n * p)
    threshold = stats.chi2.ppf(1 - 1e-3, df=3)
    report(5, "sequential batch matches enumerated joint law (chi-square)",
           stat <= threshold, f"statistic {stat:.2f} vs threshold {threshold:.2f}")


def test_criterion_06_qld_end_to_end():
    start = time.perf_counter()
    source = make_parity_source(4, (1, 2))
    degree_set = degree_set_classical_upto(4, 2)
    n, delta = 50_000, 0.05
    low_loss = 0
    pathwise = 0
    for seed in range(20):
        _, rep = qld_learn(source, degree_set, n, delta, seed, opt_value=0.0)
        low_loss += int(rep.exact_loss <= 0.05)
        pathwise += int(rep.exact_loss <= 5 * rep.beta_measured + 1e-8)
    elapsed = time.perf_counter() - start
    ok = low_loss >= 18 and pathwise == 20 and elapsed < 300
    report(6, "low-degree learning of a planted parity", ok,
           f"loss<=0.05 in {low_loss}/20, pathwise bound in {pathwise}/20, {elapsed:.1f}s")


def test_criterion_07_junta_recovery():
    start = time.perf_counter()
    source = make_parity_source(5, (1, 3))
    n, delta = 100_000, 0.05
    recovered = 0
    pathwise = 0
    for seed in range(20):
        _, rep = junta_learn(source, 2, n, delta, seed)
        recovered += int(rep.chosen_coords == (1, 3))
        pathwise += int(rep.exact_loss <= rep.opt_value + 5 * math.sqrt(rep.score) + 1e-8)
    elapsed = time.perf_counter() - start
    ok = recovered >= 18 and pathwise == 20 and elapsed < 600
    report(7, "junta learner recovers the planted coordinates", ok,
           f"recovered {recovered}/20, pathwise bound in {pathwise}/20, {elapsed:.1f}s")


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
    cover = Cover(
        (
            DegreeSet.of(3, [P("300"), P("030"), P("003"), P("330")]),
            DegreeSet.of(3, [P("033")]),
            DegreeSet.of(3, [P("303")]),
        )
    )
    n, delta = 1000, 0.05
    plan = allocate_batches(n, cover, delta)
    best_value, best_sizes = math.inf, None
    for x1 in range(1, n - 1):
        for x2 in range(1, n - x1):
            candidate = (x1, x2, n - x1 - x2)
            value = allocation_objective(candidate, cover, delta)
            if value < best_value:
                best_value, best_sizes = value, candidate
    got = allocation_objective(plan.sizes, cover, delta)
    drift = max(abs(a - b) for a, b in zip(plan.sizes, best_sizes))
    ok = got <= best_value + 1e-9 and drift <= 1
    report(9, "sample allocation matches unit-resolution grid search", ok,
           f"plan={plan.sizes} grid={best_sizes} objective {got:.6f} vs {best_value:.6f}")


def test_criterion_10_cover_quality():
    rng = np.random.default_rng(1234)
    ok = True
    for trial in range(20):
        size = int(rng.integers(4, 11))
        strings = {random_string(rng, 4) for _ in range(size)}
        nodes = DegreeSet.of(4, strings)
        n, delta = 400, 0.1
        exhaustive = cover_score(best_cover(nodes, n, delta, "exhaustive"), n, delta)
        greedy = cover_score(best_cover(nodes, n, delta, "greedy"), n, delta)
        singles = cover_score(singleton_cover(nodes), n, delta)
        if not (exhaustive <= greedy + 1e-12 and greedy <= singles + 1e-12):
            ok = False
    report(10, "exhaustive <= greedy <= singleton cover scores", ok, "20 random degree sets")


def test_criterion_11_norm_inequality_suite():
    rng = np.random.default_rng(4321)
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 4))
        nl = 1 << d
        a, b = random_hermitian(rng, nl), random_hermitian(rng, nl)
        raw = rng.normal(size=(nl, nl)) + 1j * rng.normal(size=(nl, nl))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        na, nb = rho_norm(a, 2, rho), rho_norm(b, 2, rho)
        nab = rho_norm(a + b, 2, rho)
        ip = rho_inner_product(a, b, rho)
        checks = [
            abs(nab**2 - (na**2 + nb**2 + 2 * ip.real)) <= 1e-8,
            abs(ip) <= na * nb + 1e-10,
            nab <= na + nb + 1e-10,
            rho_norm(a, 1, rho) <= na + 1e-10,
        ]
        if not all(checks):
            ok = False
    report(11, "weighted-norm inequality suite on 50 random instances", ok)


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
