"""Estimation, predictor construction, learners, losses, and bound formulas."""

import itertools
import math

import numpy as np
import pytest

from qfl import learner
from qfl.compatibility import BatchPlan, Cover, allocate_batches, best_cover
from qfl.learner import (
    Predictor,
    best_coords,
    build_predictor,
    chernoff_band,
    empirical_loss,
    exact_loss,
    fourier_estimation,
    junta_error_bound,
    junta_learn,
    opt_k,
    popt_lower_bound,
    qld_error_bound,
    qld_learn,
    u_function,
)
from qfl.operators import maximally_mixed, rho_norm, sign_operator, validate_povm
from qfl.pauli import (
    DegreeSet,
    FourierTable,
    PauliString,
    degree_set_classical_upto,
    degree_set_upto,
    degree_set_within,
    fourier_coefficient,
    fourier_transform,
    full_degree_set,
    pauli_matrix,
    synthesize,
)
from qfl.simulator import (
    RandomStreams,
    SampleSource,
    draw_samples,
    labeling_operator,
    make_classical_source,
    make_custom_source,
    make_noisy_source,
    make_realizable_source,
    measure_batch_groups,
)

from conftest import (
    joint_state,
    make_bell_source,
    make_parity_source,
    random_hermitian,
)
from oracles import dense_best_coords, dense_subset_norms

P = PauliString.from_digits


class TestBounds:
    def test_chernoff_band_value(self):
        assert abs(chernoff_band(10_000, 0.05, 1) - math.sqrt(8e-4 * math.log(40))) <= 1e-15
        assert chernoff_band(100, 0.05, 10) > chernoff_band(100, 0.05, 1)

    def test_u_function_values(self):
        assert u_function(0.0) == 0.0
        assert u_function(1.0) == 3.75
        for x in np.linspace(0, 1, 101):
            assert u_function(float(x)) <= 4 * x + 1e-12
        with pytest.raises(ValueError):
            u_function(-0.1)

    def test_qld_bound(self):
        assert qld_error_bound(0.0, 0.0, 0.1) == 0.5
        assert qld_error_bound(0.1, 0.05, 0.02) == pytest.approx(0.2 + 0.1 + 0.1)

    def test_junta_bound(self):
        assert junta_error_bound(0.25, 0.04) == pytest.approx(0.25 + 5 * 0.2)

    def test_popt_lower_bound_bell(self, bell_source):
        table = bell_source.exact_table(full_degree_set(2))
        low = popt_lower_bound(table, degree_set_upto(2, 2), eps=0.0)
        value, _ = opt_k(bell_source, 2)
        assert low <= value + 1e-8
        assert abs(low - 0.25) <= 1e-9  # full table: the bound is tight here

    def test_popt_lower_bound_weight_one(self):
        # against the junta optimum at k=1: the bound never exceeds it
        rng = np.random.default_rng(27)
        source = make_realizable_source(sign_operator(random_hermitian(rng, 8)))
        table = source.exact_table(full_degree_set(3))
        low = popt_lower_bound(table, degree_set_upto(3, 1), eps=0.0)
        value, _ = opt_k(source, 1)
        assert low <= value + 1e-8


class TestFourierEstimation:
    def test_single_string_concentrates(self):
        source = make_realizable_source(pauli_matrix(P("3")))
        s = P("3")
        cover = Cover((DegreeSet.of(1, [s]),))
        n = 1000
        band = chernoff_band(n, 0.05, 1)
        for seed in range(5):
            streams = RandomStreams(seed)
            bases, labels = draw_samples(source, n, streams.generator(0))
            table = fourier_estimation(
                source, bases, labels, cover, BatchPlan((n,)), streams.generator(2)
            )
            assert abs(table[s] - 1.0) <= band
            assert abs(table[s]) <= 1.0

    def test_zero_string_estimates_label_bias(self):
        source = make_classical_source("0110")  # balanced labels
        s = P("00")
        cover = Cover((DegreeSet.of(2, [s]),))
        n = 20_000
        streams = RandomStreams(7)
        bases, labels = draw_samples(source, n, streams.generator(0))
        table = fourier_estimation(
            source, bases, labels, cover, BatchPlan((n,)), streams.generator(2)
        )
        # oracle: the mean outcome is the label bias p1 - p0 = 0
        assert abs(table[s]) <= chernoff_band(n, 0.05, 1)

    def test_sample_count_mismatch(self):
        source = make_classical_source("01")
        cover = Cover((DegreeSet.of(1, [P("3")]),))
        streams = RandomStreams(0)
        bases, labels = draw_samples(source, 5, streams.generator(0))
        with pytest.raises(ValueError, match="mismatch"):
            fourier_estimation(source, bases, labels, cover, BatchPlan((6,)), streams.generator(2))

    def test_rejects_empty(self):
        cover = Cover((DegreeSet.of(1, [P("3")]),))
        with pytest.raises(ValueError):
            fourier_estimation(
                make_classical_source("01"), np.zeros(0, np.int8), np.zeros(0, np.int8),
                cover, BatchPlan((0,)), RandomStreams(0).generator(2),
            )

    def test_partitions_across_batches(self):
        source = make_parity_source(2, (0, 1))
        cover = Cover((DegreeSet.of(2, [P("33"), P("30")]), DegreeSet.of(2, [P("11")])))
        plan = BatchPlan((600, 400))
        streams = RandomStreams(9)
        bases, labels = draw_samples(source, 1000, streams.generator(0))
        table = fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
        assert set(table.support()) == {P("33"), P("30"), P("11")}
        band = chernoff_band(400, 0.01, 2)
        assert abs(table[P("33")] - source.exact_coefficient(P("33"))) <= band

    def test_equals_per_sample_measurement(self):
        # differential: grouped estimation against measuring every sample as
        # its own one-row group, on a noisy source where all four
        # (base, label) pairs occur
        rng = np.random.default_rng(31)
        source = make_noisy_source(sign_operator(random_hermitian(rng, 4)), 0.25)
        cover = best_cover(degree_set_upto(2, 2), 240, 0.05)
        plan = allocate_batches(240, cover, 0.05)
        streams = RandomStreams(32)
        bases, labels = draw_samples(source, 240, streams.generator(0))
        assert len(set(zip(bases.tolist(), labels.tolist()))) == 4
        table = fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
        gen = streams.generator(2)
        pos = 0
        for subset, size in zip(cover.subsets, plan.sizes):
            uniforms = gen.random((size, len(subset)))
            rows = [
                measure_batch_groups(
                    [((source.rho0, source.rho1)[bases[i]], 1.0 if labels[i] else -1.0, np.array([0]))],
                    subset,
                    uniforms[i - pos : i - pos + 1],
                )[0]
                for i in range(pos, pos + size)
            ]
            pos += size
            means = np.mean(rows, axis=0)
            for col, s in enumerate(subset):
                assert table[s] == float(means[col])


class TestBuildPredictor:
    def test_exact_single_string(self):
        table = FourierTable(1, {P("3"): 1.0})
        predictor = build_predictor(table, DegreeSet.of(1, [P("3")]))
        assert np.abs(predictor.g_op - pauli_matrix(P("3"))).max() <= 1e-12

    def test_bell_exact_table_reaches_optimum(self, bell_source):
        table = bell_source.exact_table(full_degree_set(2))
        predictor = build_predictor(table, full_degree_set(2))
        assert abs(exact_loss(predictor, bell_source) - 0.25) <= 1e-9

    def test_sign_stable_under_small_diagonal_noise(self):
        # diagonal table: perturbing coefficients by 1e-3 cannot move any
        # eigenvalue across zero, so the predictor operator is unchanged
        exact = FourierTable(2, {P("33"): -1.0})
        rng = np.random.default_rng(20)
        noisy = {
            s: exact.get(s) + 1e-3 * rng.uniform(-1, 1)
            for s in degree_set_classical_upto(2, 2)
        }
        a = build_predictor(exact, degree_set_classical_upto(2, 2))
        b = build_predictor(FourierTable(2, noisy), degree_set_classical_upto(2, 2))
        assert np.abs(a.g_op - b.g_op).max() <= 1e-12

    def test_empty_table_is_degenerate_identity(self):
        predictor = build_predictor(FourierTable(2, {}), degree_set_upto(2, 1))
        assert predictor.degenerate
        assert np.array_equal(predictor.g_op, np.eye(4))

    def test_predictor_povm_valid(self):
        rng = np.random.default_rng(21)
        table = fourier_transform(random_hermitian(rng, 8), full_degree_set(3))
        predictor = build_predictor(table, full_degree_set(3))
        assert validate_povm(predictor.effects) == []
        for eff in predictor.effects:
            assert np.abs(eff @ eff - eff).max() <= 1e-8


class TestExactLoss:
    def test_perfect_and_negated(self):
        f = pauli_matrix(P("3"))
        source = make_realizable_source(f)
        assert exact_loss(f, source) == 0.0
        assert exact_loss(-f, source) == 1.0

    def test_bell_optimal(self, bell_source):
        table = bell_source.exact_table(full_degree_set(2))
        predictor = build_predictor(table, full_degree_set(2))
        assert abs(exact_loss(predictor, bell_source) - 0.25) <= 1e-9

    def test_matches_joint_system_oracle(self, bell_source):
        # oracle: 1/2 - 1/2 tr((G x I) F_Y rho_XY) with dense joint operators
        rng = np.random.default_rng(22)
        g = sign_operator(random_hermitian(rng, 4))
        dense = 0.5 - 0.5 * np.trace(
            np.kron(g, np.eye(2)) @ labeling_operator(2) @ joint_state(bell_source)
        ).real
        assert abs(exact_loss(g, bell_source) - dense) <= 1e-12

    def test_coefficient_decomposition(self, bell_source):
        # loss equals 1/2 - 1/2 sum_s g_s f_s for maximally mixed sources
        rng = np.random.default_rng(23)
        g = sign_operator(random_hermitian(rng, 4))
        total = sum(
            fourier_coefficient(g, s) * bell_source.exact_coefficient(s)
            for s in full_degree_set(2)
        )
        assert abs(exact_loss(g, bell_source) - (0.5 - 0.5 * total)) <= 1e-8

    def test_coefficient_decomposition_d3(self):
        rng = np.random.default_rng(26)
        source = make_realizable_source(sign_operator(random_hermitian(rng, 8)))
        g = sign_operator(random_hermitian(rng, 8))
        total = sum(
            fourier_coefficient(g, s) * source.exact_coefficient(s)
            for s in full_degree_set(3)
        )
        assert abs(exact_loss(g, source) - (0.5 - 0.5 * total)) <= 1e-8

    def test_dimension_mismatch(self, bell_source):
        with pytest.raises(ValueError, match="mismatch"):
            exact_loss(np.eye(2), bell_source)


class TestEmpiricalLoss:
    def test_bell_binomial_band(self, bell_source):
        table = bell_source.exact_table(full_degree_set(2))
        predictor = build_predictor(table, full_degree_set(2))
        n_test = 100_000
        emp = empirical_loss(predictor, bell_source, n_test, RandomStreams(1).generator(3))
        assert abs(emp - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n_test)

    def test_deterministic_classical_predictor_is_exact(self):
        source = make_classical_source("0110")
        predictor = Predictor(source.labeling_xop)
        emp = empirical_loss(predictor, source, 5000, RandomStreams(2).generator(3))
        assert emp == 0.0

    def test_seed_reproducibility(self, bell_source):
        predictor = build_predictor(
            bell_source.exact_table(full_degree_set(2)), full_degree_set(2)
        )
        a = empirical_loss(predictor, bell_source, 1000, RandomStreams(3).generator(3))
        b = empirical_loss(predictor, bell_source, 1000, RandomStreams(3).generator(3))
        assert a == b

    def test_loss_consistency_many_pairs(self):
        # five source/predictor pairs, twenty seeds each
        rng = np.random.default_rng(24)
        pairs = []
        bell = make_bell_source()
        pairs.append((bell, build_predictor(bell.exact_table(full_degree_set(2)), full_degree_set(2))))
        parity = make_parity_source(2, (0, 1))
        pairs.append((parity, Predictor(parity.labeling_xop)))
        noisy = make_noisy_source(pauli_matrix(P("3")), 0.15)
        pairs.append((noisy, Predictor(pauli_matrix(P("3")))))
        for _ in range(2):
            source = make_realizable_source(sign_operator(random_hermitian(rng, 4)))
            pairs.append((source, Predictor(sign_operator(random_hermitian(rng, 4)))))
        n_test = 100_000
        for source, predictor in pairs:
            exact = exact_loss(predictor, source)
            spread = 4 * math.sqrt(exact * (1 - exact) / n_test + 1e-6)
            for seed in range(20):
                emp = empirical_loss(predictor, source, n_test, RandomStreams(seed).generator(3))
                assert abs(emp - exact) <= spread


class TestOptK:
    def test_bell_value_and_coords(self, bell_source):
        value, coords = opt_k(bell_source, 2)
        assert abs(value - 0.25) <= 1e-9
        assert coords == (0, 1)

    def test_planted_junta_is_perfect(self):
        source = make_parity_source(4, (1, 2))
        value, coords = opt_k(source, 2)
        assert abs(value) <= 1e-9
        assert coords == (1, 2)

    def test_k_zero_is_label_bias(self):
        source = make_classical_source("0001")  # p1 = 1/4
        value, coords = opt_k(source, 0)
        assert coords == ()
        assert abs(value - 0.25) <= 1e-12

    def test_requires_maximally_mixed(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        source = make_custom_source(0.25, rho0, rho1)
        assert not source.maximally_mixed
        with pytest.raises(ValueError, match="maximally mixed"):
            opt_k(source, 1)

    def test_exhaustive_d3_k1_oracle(self):
        # brute force over the three singleton subsets via dense spectra
        rng = np.random.default_rng(25)
        source = make_realizable_source(sign_operator(random_hermitian(rng, 8)))
        norms = []
        for j in range(3):
            op = np.zeros((8, 8), dtype=complex)
            for s in degree_set_within(3, (j,)):
                dense = pauli_matrix(s)
                coef = np.trace(dense @ source.labeling_xop).real / 8
                op += coef * dense
            norms.append(np.abs(np.linalg.eigvalsh(op)).sum() / 8)
        want = 0.5 - 0.5 * max(norms)
        value, coords = opt_k(source, 1)
        assert abs(value - want) <= 1e-10
        assert coords == (int(np.argmax(norms)),)


class TestBestCoords:
    """Selection on 2^k x 2^k blocks against the dense 2^d oracle."""

    @staticmethod
    def _tables(d):
        rng = np.random.default_rng(60 + d)
        strings = degree_set_upto(d, min(d, 3))
        random_table = FourierTable(d, {s: float(rng.normal()) for s in strings})
        source = make_noisy_source(sign_operator(random_hermitian(rng, 1 << d)), 0.1)
        _, report = junta_learn(source, min(d, 2), 4000, 0.05, d)
        return [random_table, report.estimates, source.exact_table(strings)]

    @pytest.mark.parametrize("d", range(2, 8))
    def test_block_matches_dense(self, d):
        clear = 0
        for table in self._tables(d):
            for k in range(min(d, 3) + 1):
                norm, coords = best_coords(table, k)
                want_norm, want_coords = dense_best_coords(table, k)
                assert abs(norm - want_norm) <= 1e-10
                # Subsets within 1e-10 of the best tie up to rounding (at k=1 a
                # dominant identity coefficient ties every qubit), and rounding
                # picks among them on either path; a clear winner must agree.
                dense = dense_subset_norms(table, k)
                tied = [c for c, v in dense.items() if v >= want_norm - 1e-10]
                assert coords == want_coords if len(tied) == 1 else coords in tied
                clear += len(tied) == 1
        assert clear >= 5

    def test_symmetric_table_tie_goes_to_first_pair(self):
        d = 4
        coeffs = {PauliString.identity(d): 0.1}
        for j in range(d):
            coeffs[PauliString(tuple(3 if q == j else 0 for q in range(d)))] = 0.3
        for pair in itertools.combinations(range(d), 2):
            for sym, c in ((1, 0.2), (2, -0.25)):
                coeffs[PauliString(tuple(sym if q in pair else 0 for q in range(d)))] = c
        table = FourierTable(d, coeffs)
        # every pair has the same block, so every pair ties exactly
        norms = {rho_norm(synthesize(table.block(pair)), 1, maximally_mixed(2))
                 for pair in itertools.combinations(range(d), 2)}
        assert len(norms) == 1
        assert best_coords(table, 2) == (norms.pop(), (0, 1))

    def test_selection_never_leaves_2_to_the_k(self, monkeypatch):
        shapes = {"rho_norm": [], "synthesize": []}
        real_norm, real_synthesize = learner.rho_norm, learner.synthesize

        def norm(a, q, rho):
            shapes["rho_norm"].append((a.shape, rho.shape))
            return real_norm(a, q, rho)

        def synthesize_(table):
            out = real_synthesize(table)
            shapes["synthesize"].append(out.shape)
            return out

        monkeypatch.setattr(learner, "rho_norm", norm)
        monkeypatch.setattr(learner, "synthesize", synthesize_)
        _, report = junta_learn(make_parity_source(6, (1, 4)), 2, 20_000, 0.05, 1)
        assert report.chosen_coords == report.extra["opt_coords"] == (1, 4)
        pairs = 15
        # selection and opt_k: one 4x4 block per pair; the two predictors stay dense
        assert shapes["rho_norm"] == [((4, 4), (4, 4))] * (2 * pairs)
        assert sorted(shapes["synthesize"]) == [(4, 4)] * (2 * pairs) + [(64, 64)] * 2


class TestQldLearn:
    def test_parity_small_budget(self):
        source = make_parity_source(3, (0, 2))
        degree_set = degree_set_classical_upto(3, 2)
        predictor, report = qld_learn(source, degree_set, 20_000, 0.05, 11, opt_value=0.0)
        assert report.exact_loss <= 0.05
        assert report.exact_loss <= 5 * report.beta_measured + 1e-8
        assert report.bound_measured >= report.exact_loss
        assert validate_povm(predictor.effects) == []

    def test_report_structure(self):
        source = make_parity_source(2, (0, 1))
        degree_set = degree_set_classical_upto(2, 2)
        _, report = qld_learn(source, degree_set, 2000, 0.1, 5, opt_value=0.0, n_test=2000)
        assert report.beta_bound == pytest.approx(math.sqrt(8 * report.score))
        assert report.bound_value == pytest.approx(5 * report.beta_bound)
        assert report.plan.total == report.n == 2000
        assert report.cover.covered.strings == degree_set.strings
        assert 0.0 <= report.empirical_loss <= 1.0
        assert report.optimal_exact_loss == 0.0

    def test_budget_below_subset_count(self):
        source = make_realizable_source(pauli_matrix(P("3")))
        nodes = DegreeSet.of(1, [P("1"), P("2"), P("3")])
        with pytest.raises(ValueError, match="n >= number of cover subsets"):
            qld_learn(source, nodes, 2, 0.1, 0)

    def test_noisy_loss_window(self):
        eta = 0.1
        source = make_noisy_source(make_parity_source(3, (0, 1)).labeling_xop, eta)
        degree_set = degree_set_classical_upto(3, 2)
        _, report = qld_learn(source, degree_set, 30_000, 0.05, 13, opt_value=eta)
        assert eta - 1e-9 <= report.exact_loss <= 2 * eta + 5 * report.beta_measured + 0.02

    def test_determinism(self):
        source = make_parity_source(2, (0, 1))
        degree_set = degree_set_classical_upto(2, 2)
        a = qld_learn(source, degree_set, 1500, 0.05, 7)[1]
        b = qld_learn(source, degree_set, 1500, 0.05, 7)[1]
        assert a.estimates.to_text() == b.estimates.to_text()
        assert a.exact_loss == b.exact_loss

    def test_report_json_schema(self):
        import json

        source = make_parity_source(2, (0, 1))
        _, report = qld_learn(source, degree_set_classical_upto(2, 2), 1000, 0.1, 1,
                              opt_value=0.0, n_test=500)
        blob = json.loads(json.dumps(report.to_json_dict()))
        expected_keys = {
            "estimates_ftab", "cover", "plan", "n", "delta", "epsilon", "score",
            "beta_bound", "seed", "opt_value", "bound_value", "beta_measured",
            "bound_measured", "chosen_coords", "exact_loss", "empirical_loss",
            "optimal_exact_loss", "degenerate",
        }
        assert set(blob) == expected_keys
        assert blob["estimates_ftab"].startswith("d=2")
        assert 0.0 <= blob["exact_loss"] <= 1.0
        assert 0.0 <= blob["empirical_loss"] <= 1.0
        assert blob["seed"] == 1
        assert sum(blob["plan"]) == blob["n"]


class TestJuntaLearn:
    def test_recovers_planted_pair(self):
        source = make_parity_source(4, (0, 3))
        predictor, report = junta_learn(source, 2, 30_000, 0.05, 3)
        assert report.chosen_coords == (0, 3)
        assert report.exact_loss <= 0.05
        assert report.opt_value == pytest.approx(0.0, abs=1e-12)
        assert validate_povm(predictor.effects) == []

    def test_k_equals_d_matches_qld(self):
        source = make_parity_source(2, (0, 1))
        seed = 17
        p_junta, r_junta = junta_learn(source, 2, 4000, 0.05, seed)
        p_qld, r_qld = qld_learn(source, degree_set_upto(2, 2), 4000, 0.05, seed)
        assert r_junta.chosen_coords == (0, 1)
        assert np.abs(p_junta.g_op - p_qld.g_op).max() <= 1e-12
        assert r_junta.exact_loss == r_qld.exact_loss

    def test_no_signal_source(self):
        rho = maximally_mixed(2)
        source = make_custom_source(0.3, rho, rho)
        _, report = junta_learn(source, 1, 20_000, 0.05, 5)
        # any subset is as good as any other; the loss is the label bias
        assert abs(report.exact_loss - 0.3) <= 0.02

    def test_output_is_a_junta(self):
        source = make_parity_source(4, (1, 2))
        predictor, report = junta_learn(source, 2, 20_000, 0.05, 9)
        chosen = set(report.chosen_coords)
        for s in full_degree_set(4):
            if not set(s.support) <= chosen:
                assert abs(fourier_coefficient(predictor.g_op, s)) <= 1e-8

    def test_pathwise_bound(self):
        source = make_parity_source(4, (0, 2))
        _, report = junta_learn(source, 2, 20_000, 0.05, 21)
        assert report.exact_loss <= report.opt_value + 5 * math.sqrt(report.score) + 1e-8

    def test_k_range(self):
        source = make_parity_source(2, (0, 1))
        with pytest.raises(ValueError, match="1 <= k <= d"):
            junta_learn(source, 3, 100, 0.05, 0)

    def test_exact_table_built_once_per_call(self, monkeypatch):
        source = make_parity_source(3, (0, 2))
        calls = []
        real = SampleSource.exact_coefficient
        monkeypatch.setattr(
            SampleSource, "exact_coefficient", lambda self, s: calls.append(s) or real(self, s)
        )
        _, report = junta_learn(source, 2, 2000, 0.05, 4)
        assert report.opt_value == pytest.approx(0.0, abs=1e-12)
        assert sorted(calls) == sorted(degree_set_upto(3, 2))
