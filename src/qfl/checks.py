"""Named invariant suites behind ``qfl verify``.

The fast suite checks closed forms against independent oracles (dense
algebra up to d = 4, Kronecker-product commutators up to d = 8, exhaustive
enumeration and grid search) in about 2 s; the full suite adds the
Monte-Carlo statistical checks, in about 4 s in all.  Each check is a
no-argument callable that raises :class:`CheckFailure` with a human-readable
reason.  Acceptance criteria 01-07 and 09-11 each run one of these checks,
so their sizes, seeds and thresholds are defined here once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import compatibility as compat
from . import learner, operators, pauli, simulator
from .pauli import PauliString

CHECK_SEED = 20240911


class CheckFailure(AssertionError):
    pass


def _ensure(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian part of an n x n complex Gaussian matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank n x n density operator ``A A^dagger / tr(A A^dagger)``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_string(rng: np.random.Generator, d: int) -> PauliString:
    """Uniformly random Pauli string on d qubits."""
    return PauliString(tuple(int(v) for v in rng.integers(0, 4, size=d)))


def bell_states() -> tuple[np.ndarray, np.ndarray]:
    """The two-qubit discrimination instance with optimal loss 1/4."""
    plus = np.zeros(4, dtype=complex)
    plus[0] = plus[3] = 2**-0.5
    minus = np.zeros(4, dtype=complex)
    minus[0], minus[3] = -(2**-0.5), 2**-0.5
    rho0 = 0.5 * np.outer(plus, plus.conj())
    rho1 = 0.5 * np.outer(minus, minus.conj())
    for rho in (rho0, rho1):
        rho[1, 1] += 0.25
        rho[2, 2] += 0.25
    return rho0, rho1


def make_bell_source() -> simulator.SampleSource:
    return simulator.make_custom_source(0.5, *bell_states())


def parity_truth_table(d: int, coords: tuple[int, ...]) -> str:
    """0/1 truth table of the parity of ``coords`` (qubit 0 is the most
    significant index bit)."""
    return "".join(
        str(sum((x >> (d - 1 - c)) & 1 for c in coords) & 1) for x in range(1 << d)
    )


def make_parity_source(d: int, coords: tuple[int, ...]) -> simulator.SampleSource:
    return simulator.make_classical_source(parity_truth_table(d, coords))


# ---------------------------------------------------------------------------
# Fast checks.
# ---------------------------------------------------------------------------


def check_fourier_correctness():
    rng = np.random.default_rng(CHECK_SEED)
    for d in (1, 2, 3, 4):
        mm = operators.maximally_mixed(d)
        strings = pauli.full_degree_set(d).strings
        mats = np.stack([pauli.pauli_matrix(s).ravel() for s in strings])
        # tr(P_s^dagger P_t I/2^d) for every pair (s, t) in one product
        gram = mats.conj() @ mats.T / (1 << d)
        defect = np.abs(gram - np.eye(len(strings)))
        i, j = np.unravel_index(np.argmax(defect), defect.shape)
        _ensure(
            defect[i, j] <= 1e-12,
            f"<{strings[i]},{strings[j]}> = {gram[i, j]}, expected {float(i == j)} (d={d})",
        )
        a = random_hermitian(rng, 1 << d)
        table = pauli.fourier_transform(a, pauli.full_degree_set(d))
        err = float(np.abs(pauli.synthesize(table) - a).max())
        _ensure(err <= 1e-8, f"round trip error {err:.3e} at d={d}")
        norm_sq = operators.rho_norm(a, 2, mm) ** 2
        _ensure(
            abs(table.power() - norm_sq) <= 1e-8,
            f"Parseval defect {abs(table.power() - norm_sq):.3e} at d={d}",
        )


def check_commutation_oracle():
    # the oracle builds each matrix as a Kronecker product of single-qubit
    # matrices, apart from the symplectic masks; two Pauli strings commute or
    # anticommute, so their commutator is zero or twice a unitary, and
    # applying it to the all-ones vector tells the two apart
    single = (
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1, -1]),
    )
    pairs = [
        (s, t)
        for d in (1, 2, 3)
        for s in pauli.full_degree_set(d)
        for t in pauli.full_degree_set(d)
    ]
    rng = np.random.default_rng(CHECK_SEED + 2)
    sizes = rng.integers(3, 7, size=200).tolist() + [8] * 500
    pairs += [(random_string(rng, d), random_string(rng, d)) for d in sizes]

    @functools.cache
    def factor(symbols):
        return functools.reduce(operators.tensor, [single[v] for v in symbols])

    def dense(s):
        # a product of cached factors of at most four qubits each
        return functools.reduce(operators.tensor, [factor(s.symbols[i:i + 4]) for i in range(0, s.d, 4)])

    for s, t in pairs:
        a, b = dense(s), dense(t)
        ones = np.ones(len(a))
        commute = np.abs(a @ (b @ ones) - b @ (a @ ones)).max() <= 1e-12
        _ensure(compat.pauli_commute(s, t) == commute, f"commutation mismatch at ({s}, {t})")


def check_eig_reconstruction():
    rng = np.random.default_rng(CHECK_SEED + 3)
    for n in (2, 8, 64, 256):
        h = random_hermitian(rng, n)
        spec = operators.hermitian_eig(h)
        err = float(np.abs(spec.reconstruct() - h).max())
        _ensure(err <= 1e-8, f"reconstruction error {err:.3e} at dim {n}")
        _ensure(
            bool(np.all(np.diff(spec.eigenvalues) <= 1e-12)),
            f"eigenvalues not descending at dim {n}",
        )


def check_sign_involution():
    rng = np.random.default_rng(CHECK_SEED + 4)
    for n in (2, 8, 16):
        g = operators.sign_operator(random_hermitian(rng, n))
        err = float(np.abs(g @ g - np.eye(n)).max())
        _ensure(err <= 1e-8, f"sign square defect {err:.3e} at dim {n}")
    zero = operators.sign_operator(np.zeros((4, 4)))
    _ensure(
        float(np.abs(zero - np.eye(4)).max()) == 0.0,
        "zero matrix did not sign to the identity",
    )


def check_rho_norm_inequalities():
    rng = np.random.default_rng(CHECK_SEED + 5)
    slack = 1e-10
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = 1 << d
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        rho = random_density(rng, n)
        na2 = operators.rho_norm(a, 2, rho)
        nb2 = operators.rho_norm(b, 2, rho)
        nab2 = operators.rho_norm(a + b, 2, rho)
        ip = operators.rho_inner_product(a, b, rho)
        _ensure(
            abs(nab2**2 - (na2**2 + nb2**2 + 2 * ip.real)) <= 1e-8,
            "squared-norm expansion identity failed",
        )
        _ensure(abs(ip) <= na2 * nb2 + slack, "Cauchy-Schwarz failed")
        _ensure(nab2 <= na2 + nb2 + slack, "triangle inequality failed")
        _ensure(
            operators.rho_norm(a, 1, rho) <= na2 + slack,
            "1-norm vs 2-norm monotonicity failed",
        )
        _ensure(
            operators.rho_inner_product(a, a, rho).real >= -slack,
            "self inner product negative",
        )


def check_estimation_observables():
    rng = np.random.default_rng(CHECK_SEED + 6)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        s = random_string(rng, d)
        plus, minus = simulator.estimation_observable(s)
        problems = operators.validate_povm([plus, minus])
        _ensure(not problems, f"estimation pair at {s}: {problems}")
        _ensure(
            float(np.abs(plus @ plus - plus).max()) <= 1e-8,
            f"plus effect at {s} is not a projection",
        )


def check_clique_witness():
    # the product effects of a commuting batch form a sharp resolution of identity
    for d in (2, 3):
        nodes = pauli.degree_set_upto(d, d)
        clique = max(compat.best_cover(nodes, 1000, 0.1).subsets, key=len)
        effects = []
        for w in itertools.product((0, 1), repeat=len(clique)):
            g = np.eye(1 << (d + 1), dtype=complex)
            for choice, s in zip(w, clique):
                g = g @ simulator.estimation_observable(s)[choice]
            effects.append(g)
        problems = operators.validate_povm(effects)
        _ensure(not problems, f"fine-grained effects at d={d}: {problems}")
        for g in effects:
            _ensure(
                float(np.abs(g @ g - g).max()) <= 1e-8,
                "fine-grained effect is not a projection",
            )


def check_cover_search():
    rng = np.random.default_rng(CHECK_SEED + 8)
    for trial in range(20):
        strings = {random_string(rng, 4) for _ in range(int(rng.integers(4, 11)))}
        nodes = pauli.DegreeSet.of(4, strings)
        n, delta = 500, 0.1
        greedy = compat.best_cover(nodes, n, delta, "greedy")
        exhaustive = compat.best_cover(nodes, n, delta, "exhaustive")
        compat.check_cover(greedy, nodes)
        compat.check_cover(exhaustive, nodes)
        s_greedy = compat.cover_score(greedy, n, delta)
        s_exh = compat.cover_score(exhaustive, n, delta)
        s_single = compat.cover_score(compat.singleton_cover(nodes), n, delta)
        _ensure(s_exh <= s_greedy + 1e-12, f"exhaustive beat by greedy on trial {trial}")
        _ensure(s_greedy <= s_single + 1e-12, f"greedy worse than singletons on trial {trial}")


def check_batch_allocation():
    z = lambda digits: PauliString.from_digits(digits)
    cover = compat.Cover(
        (
            pauli.DegreeSet.of(3, [z("300"), z("030"), z("003"), z("330")]),
            pauli.DegreeSet.of(3, [z("033")]),
            pauli.DegreeSet.of(3, [z("303")]),
        )
    )
    n, delta = 1000, 0.05
    plan = compat.allocate_batches(n, cover, delta)
    got = compat.allocation_objective(plan.sizes, cover, delta)
    # unit-resolution grid search over every split with x3 = n - x1 - x2 >= 1
    w = compat.batch_weights(cover, delta)
    x1, x2 = np.meshgrid(np.arange(1, n - 1), np.arange(1, n - 1), indexing="ij")
    x3 = n - x1 - x2
    with np.errstate(divide="ignore"):
        grid = np.where(x3 >= 1, w[0] / x1 + w[1] / x2 + w[2] / x3, np.inf)
    first = np.unravel_index(np.argmin(grid), grid.shape)
    best, best_sizes = grid[first], tuple(int(x[first]) for x in (x1, x2, x3))
    _ensure(got <= best + 1e-9, f"allocation {plan.sizes} not optimal: {got} > {best}")
    drift = max(abs(a - b) for a, b in zip(plan.sizes, best_sizes))
    _ensure(drift <= 1, f"allocation {plan.sizes} drifts {drift} from the grid optimum {best_sizes}")


def check_bell_example():
    source = make_bell_source()
    value, coords = learner.opt_k(source, 2)
    _ensure(abs(value - 0.25) <= 1e-9, f"optimal junta loss {value} != 1/4")
    _ensure(coords == (0, 1), f"unexpected maximizer {coords}")
    table = source.exact_table(pauli.full_degree_set(2))
    predictor = learner.build_predictor(table)
    loss = learner.exact_loss(predictor, source)
    _ensure(abs(loss - 0.25) <= 1e-9, f"optimal predictor loss {loss} != 1/4")


def check_labeling_operator():
    for d in (1, 2):
        f = simulator.labeling_operator(d)
        n = 1 << (d + 1)
        _ensure(float(np.abs(f @ f - np.eye(n)).max()) <= 1e-12, "labeling operator not +-1")
        rng = np.random.default_rng(CHECK_SEED + 9)
        rho = random_density(rng, 1 << d)
        for y, want in ((0, -1.0), (1, 1.0)):
            e = np.zeros((2, 2), dtype=complex)
            e[y, y] = 1.0
            joint = np.kron(rho, e)
            _ensure(
                float(np.abs(f @ joint - want * joint).max()) <= 1e-10,
                f"labeling phase wrong for label {y}",
            )


def check_partial_trace():
    rng = np.random.default_rng(CHECK_SEED + 10)
    rho = random_density(rng, 4)
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    back = operators.partial_trace_label(np.kron(rho, e0))
    _ensure(float(np.abs(back - rho).max()) <= 1e-12, "partial trace did not recover marginal")
    _ensure(
        abs(np.trace(back).real - 1.0) <= 1e-12,
        "partial trace lost normalization",
    )


def check_classical_embedding():
    rng = np.random.default_rng(CHECK_SEED + 11)
    d = 3
    truth = rng.integers(0, 2, size=1 << d)
    op = pauli.classical_embedding(truth)
    signs = np.where(truth == 1, 1.0, -1.0)
    for s in pauli.full_degree_set(d):
        got = pauli.fourier_coefficient(op, s)
        if s.is_classical:
            chi = np.array(
                [(-1) ** bin(x & s.z_mask).count("1") for x in range(1 << d)]
            )
            want = float(np.mean(signs * chi))
        else:
            want = 0.0
        _ensure(abs(got - want) <= 1e-12, f"classical coefficient mismatch at {s}")


def check_junta_support():
    rng = np.random.default_rng(CHECK_SEED + 12)
    b = random_hermitian(rng, 4)
    a = np.kron(np.eye(2), b)  # acts on coordinates {1, 2} of d=3
    for s in pauli.full_degree_set(3):
        if not set(s.support) <= {1, 2}:
            c = pauli.fourier_coefficient(a, s)
            _ensure(abs(c) <= 1e-10, f"coefficient at {s} should vanish, got {c}")


FAST_CHECKS: list[tuple[str, callable]] = [
    ("fourier-correctness", check_fourier_correctness),
    ("commutation-oracle", check_commutation_oracle),
    ("eig-reconstruction", check_eig_reconstruction),
    ("sign-involution", check_sign_involution),
    ("rho-norm-inequalities", check_rho_norm_inequalities),
    ("estimation-observables", check_estimation_observables),
    ("clique-witness", check_clique_witness),
    ("cover-search", check_cover_search),
    ("batch-allocation", check_batch_allocation),
    ("bell-example", check_bell_example),
    ("labeling-operator", check_labeling_operator),
    ("partial-trace", check_partial_trace),
    ("classical-embedding", check_classical_embedding),
    ("junta-support", check_junta_support),
]


# ---------------------------------------------------------------------------
# Full (Monte-Carlo) checks.
# ---------------------------------------------------------------------------


def check_estimation_concentration():
    source = simulator.make_realizable_source(pauli.pauli_matrix(PauliString((3,))))
    s = PauliString((3,))
    n, delta = 10_000, 0.05
    band = learner.chernoff_band(n, delta, 1)
    cover = compat.Cover((pauli.DegreeSet.of(1, [s]),))
    plan = compat.BatchPlan((n,))
    hits = 0
    for seed in range(20):
        streams = simulator.RandomStreams(seed)
        bases, labels = simulator.draw_samples(source, n, streams.generator(simulator.STREAM_DRAW))
        table = learner.fourier_estimation(
            source, bases, labels, cover, plan, streams.generator(simulator.STREAM_MEASURE)
        )
        if abs(table[s] - source.exact_coefficient(s)) <= band:
            hits += 1
    _ensure(hits >= 19, f"concentration band hit only {hits}/20 runs")


def check_sequential_batch_law():
    from scipy import stats

    source = make_bell_source()
    cases = [
        (0, source.rho0, pauli.DegreeSet.of(2, [PauliString((3, 0)), PauliString((0, 3))])),
        (1, source.rho1,
         pauli.DegreeSet.of(2, [PauliString((3, 0)), PauliString((0, 3)), PauliString((3, 3))])),
    ]
    n = 100_000
    for case_index, (label, state, batch) in enumerate(cases):
        e_label = np.zeros((2, 2), dtype=complex)
        e_label[label, label] = 1.0
        joint = np.kron(state, e_label)
        expected = {}
        for w in itertools.product((1, -1), repeat=len(batch)):
            g = np.eye(8, dtype=complex)
            for choice, s in zip(w, batch):
                plus, minus = simulator.estimation_observable(s)
                g = g @ (plus if choice == 1 else minus)
            expected[w] = float(np.trace(g @ joint).real)
        streams = simulator.RandomStreams(2024 + case_index)
        uniforms = streams.generator(0).random((n, len(batch)))
        prepared = simulator.prepare_batches((batch,), (state,))[0]
        samples = (np.zeros(n, dtype=np.int8), np.full(n, label, dtype=np.int8))
        prefixes = simulator.measure_batch_groups(samples, prepared, uniforms)
        outcomes = (2 * label - 1) * prepared.reduction.eigenvalues[prefixes]
        stat = 0.0
        dof = 0
        for w, p in expected.items():
            hit = np.ones(n, dtype=bool)
            for col, choice in enumerate(w):
                hit &= outcomes[:, col] == choice
            observed = int(hit.sum())
            if p < 1e-12:
                _ensure(observed == 0, f"impossible outcome {w} observed {observed} times")
                continue
            stat += (observed - n * p) ** 2 / (n * p)
            dof += 1
        threshold = stats.chi2.ppf(1 - 1e-3, df=max(dof - 1, 1))
        _ensure(
            stat <= threshold,
            f"chi-square statistic {stat:.2f} > {threshold:.2f} (batch of {len(batch)})",
        )


def check_marginal_means():
    source = make_bell_source()
    batch = pauli.DegreeSet.of(2, [PauliString((1, 1)), PauliString((2, 2))])
    n = 200_000
    streams = simulator.RandomStreams(7)
    bases, labels = simulator.draw_samples(source, n, streams.generator(simulator.STREAM_DRAW))
    cover = compat.Cover((batch,))
    plan = compat.BatchPlan((n,))
    table = learner.fourier_estimation(
        source, bases, labels, cover, plan, streams.generator(simulator.STREAM_MEASURE)
    )
    band = 4.0 / math.sqrt(n)
    for s in batch:
        err = abs(table[s] - source.exact_coefficient(s))
        _ensure(err <= band, f"marginal mean at {s} off by {err:.4f} > {band:.4f}")


def check_qld_parity():
    source = make_parity_source(4, (1, 2))
    degree_set = pauli.degree_set_classical_upto(4, 2)
    good = 0
    for seed in range(20):
        _, report = learner.qld_learn(source, degree_set, 50_000, 0.05, seed, opt_value=0.0)
        _ensure(
            report.exact_loss <= 5 * report.beta_measured + 1e-8,
            f"pathwise bound violated at seed {seed}",
        )
        if report.exact_loss <= 0.05:
            good += 1
    _ensure(good >= 18, f"parity learned in only {good}/20 runs")


def check_junta_recovery():
    source = make_parity_source(5, (1, 3))
    good = 0
    for seed in range(20):
        _, report = learner.junta_learn(source, 2, 100_000, 0.05, seed)
        _ensure(
            report.exact_loss <= report.opt_value + 5 * math.sqrt(report.score) + 1e-8,
            f"junta bound violated at seed {seed}",
        )
        if report.chosen_coords == (1, 3):
            good += 1
    _ensure(good >= 18, f"planted junta recovered in only {good}/20 runs")


def check_noisy_shrinkage():
    eta = 0.25
    base = pauli.pauli_matrix(PauliString((3,)))
    source = simulator.make_noisy_source(base, eta)
    s = PauliString((3,))
    _ensure(
        abs(source.exact_coefficient(s) - (1 - 2 * eta)) <= 1e-12,
        "analytic shrinkage factor wrong",
    )
    n = 1_000_000
    streams = simulator.RandomStreams(5)
    bases, labels = simulator.draw_samples(source, n, streams.generator(simulator.STREAM_DRAW))
    cover = compat.Cover((pauli.DegreeSet.of(1, [s]),))
    table = learner.fourier_estimation(
        source, bases, labels, cover, compat.BatchPlan((n,)),
        streams.generator(simulator.STREAM_MEASURE),
    )
    band = learner.chernoff_band(n, 0.01, 1)
    _ensure(
        abs(table[s] - (1 - 2 * eta)) <= band,
        f"Monte-Carlo estimate {table[s]:.4f} outside band around {1 - 2 * eta}",
    )
    predictor = learner.Predictor(base)
    _ensure(
        abs(learner.exact_loss(predictor, source) - eta) <= 1e-12,
        "loss of the true operator should equal the flip rate",
    )


def check_loss_consistency():
    source = make_bell_source()
    table = source.exact_table(pauli.full_degree_set(2))
    predictor = learner.build_predictor(table)
    exact = learner.exact_loss(predictor, source)
    n_test = 100_000
    for seed in range(5):
        streams = simulator.RandomStreams(seed)
        emp = learner.empirical_loss(
            predictor, source, n_test, streams.generator(simulator.STREAM_TEST)
        )
        spread = 4 * math.sqrt(exact * (1 - exact) / n_test + 1e-6)
        _ensure(abs(emp - exact) <= spread, f"empirical loss {emp} vs exact {exact}")


def check_determinism():
    source = make_parity_source(4, (0, 3))
    degree_set = pauli.degree_set_classical_upto(4, 2)
    runs = [
        learner.qld_learn(source, degree_set, 2_000, 0.05, 42, opt_value=0.0)[1]
        for _ in range(2)
    ]
    _ensure(
        runs[0].estimates.to_text() == runs[1].estimates.to_text(),
        "same seed produced different estimates",
    )
    _ensure(
        runs[0].exact_loss == runs[1].exact_loss,
        "same seed produced different losses",
    )


FULL_CHECKS: list[tuple[str, callable]] = FAST_CHECKS + [
    ("estimation-concentration", check_estimation_concentration),
    ("sequential-batch-law", check_sequential_batch_law),
    ("marginal-means", check_marginal_means),
    ("qld-parity", check_qld_parity),
    ("junta-recovery", check_junta_recovery),
    ("noisy-shrinkage", check_noisy_shrinkage),
    ("loss-consistency", check_loss_consistency),
    ("determinism", check_determinism),
]


def run_suite(suite: str, *, log=print) -> int:
    """Run a named suite, logging one line per check; 0 iff everything passed."""
    table = {"fast": FAST_CHECKS, "full": FULL_CHECKS}
    if suite not in table:
        raise ValueError(f"unknown suite {suite!r}; expected fast or full")
    failures: list[tuple[str, str]] = []
    for name, fn in table[suite]:
        try:
            fn()
        except CheckFailure as exc:
            failures.append((name, str(exc)))
            log(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - surfaced as a check failure
            failures.append((name, f"unexpected error: {exc!r}"))
            log(f"FAIL {name}: unexpected error: {exc!r}")
        else:
            log(f"ok   {name}")
    if failures:
        log(f"first failing property: {failures[0][0]}")
        return 1
    return 0
