"""Estimation, predictor construction, learners, losses, and bound formulas."""

import collections
import dataclasses
import importlib
import itertools
import math
import pkgutil
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qfl
from qfl import learner, simulator
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
    qld_error_bound,
    qld_learn,
)
from qfl.operators import maximally_mixed, sign_operator, validate_povm
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
    synthesize_stack,
)
from qfl.simulator import (
    RandomStreams,
    draw_samples,
    labeling_operator,
    make_classical_source,
    make_custom_source,
    make_noisy_source,
    make_realizable_source,
)

from conftest import (
    CLASS_CACHES,
    clear_class_caches,
    joint_state,
    make_bell_source,
    make_parity_source,
    measure_groups,
    random_density,
    random_hermitian,
)
from oracles import (
    block,
    dense_best_coords,
    dense_subset_norms,
    popt_lower_bound,
    subset_best_coords,
    subset_norms,
    table_fourier_estimation,
    u_function,
)

P = PauliString.from_digits


def report_fields(report) -> dict:
    """A report's fields by name, with the estimates as their degree set and
    the bytes of their values."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    out["estimates"] = (report.estimates.degree_set, report.estimates.values.tobytes())
    return out


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
        assert set(table.degree_set) == {P("33"), P("30"), P("11")}
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
            rows = []
            for i in range(pos, pos + size):
                group = [((source.rho0, source.rho1)[bases[i]], 1.0 if labels[i] else -1.0, np.array([0]))]
                rows.append(measure_groups(group, subset, uniforms[i - pos : i - pos + 1])[1][0])
            pos += size
            means = np.mean(rows, axis=0)
            for col, s in enumerate(subset):
                assert table[s] == float(means[col])


    def test_matches_table_engine(self):
        # differential: estimates from the histogram of final prefixes
        # against the means of the table engine's outcome matrix, bit for bit,
        # on mixed states under label flips and on diagonal states
        rng = np.random.default_rng(53)
        for d in range(1, 6):
            noisy = make_custom_source(0.4, random_density(rng, 1 << d), random_density(rng, 1 << d))
            truth = rng.integers(0, 2, size=1 << d).tolist()
            for source in (noisy.with_flip_rate(0.2), make_classical_source(truth)):
                for k in sorted({1, min(2, d)}):
                    cover, plan = learner._plan(degree_set_upto(d, k), 1500, 0.05, "greedy")
                    for seed in (1, 2):
                        streams = RandomStreams(seed)
                        bases, labels = draw_samples(source, 1500, streams.generator(0))
                        got = fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
                        want = table_fourier_estimation(
                            source, bases, labels, cover, plan, streams.generator(2)
                        )
                        assert got.items() == want.items()
                        assert got.to_text() == want.to_text()

    def test_warm_call_hashes_no_string(self, monkeypatch):
        # the cover places each batch's means by positions it builds once
        source = make_parity_source(4, (1, 2))
        cover, plan = learner._plan(degree_set_upto(4, 2), 2000, 0.05, "greedy")
        streams = RandomStreams(3)
        bases, labels = draw_samples(source, 2000, streams.generator(0))
        want = fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
        hashed = []
        real = PauliString.__hash__
        monkeypatch.setattr(PauliString, "__hash__", lambda self: hashed.append(self) or real(self))
        got = fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
        assert hashed == []
        assert got.to_text() == want.to_text()

    def test_estimation_allocates_no_outcome_matrix(self, monkeypatch):
        # at d=6, k=2, n=2e4 each batch's work past its uniforms holds a few
        # vectors per sample, whatever the batch's string count m, and the
        # call holds one batch's uniforms at a time; an int8 (size, m) matrix
        # would add m >= 16 bytes a sample on the largest batches
        rng = np.random.default_rng(52)
        source = make_noisy_source(sign_operator(random_hermitian(rng, 64)), 0.1)
        n = 20_000
        cover, plan = learner._plan(degree_set_upto(6, 2), n, 0.05, "greedy")
        streams = RandomStreams(5)
        bases, labels = draw_samples(source, n, streams.generator(0))
        # builds the source's tables, which outlive the call
        fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
        calls = []
        peaks = []
        real = learner._batch_means

        def traced(prepared, bases, labels, uniforms):
            peaks.append(tracemalloc.get_traced_memory()[1])
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(prepared, bases, labels, uniforms)
            peak = tracemalloc.get_traced_memory()[1]
            peaks.append(peak)
            calls.append((uniforms.shape, peak - before))
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(learner, "_batch_means", traced)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fourier_estimation(source, bases, labels, cover, plan, streams.generator(2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(calls) == cover.m and max(m for (_, m), _ in calls) >= 16
        for (size, m), extra in calls:
            assert extra <= 48 * size + 4096, (size, m, extra)
        largest = max(8 * size * m + 48 * size for (size, m), _ in calls)
        assert max(peaks) - start <= largest + 8192


class TestBuildPredictor:
    def test_exact_single_string(self):
        table = FourierTable.of(1, {P("3"): 1.0})
        predictor = build_predictor(table)
        assert np.abs(predictor.g_op - pauli_matrix(P("3"))).max() <= 1e-12

    def test_bell_exact_table_reaches_optimum(self, bell_source):
        table = bell_source.exact_table(full_degree_set(2))
        predictor = build_predictor(table)
        assert abs(exact_loss(predictor, bell_source) - 0.25) <= 1e-9

    def test_sign_stable_under_small_diagonal_noise(self):
        # diagonal table: perturbing coefficients by 1e-3 cannot move any
        # eigenvalue across zero, so the predictor operator is unchanged
        exact = FourierTable.of(2, {P("33"): -1.0})
        rng = np.random.default_rng(20)
        noisy = {
            s: exact.get(s) + 1e-3 * rng.uniform(-1, 1)
            for s in degree_set_classical_upto(2, 2)
        }
        a = build_predictor(exact)
        b = build_predictor(FourierTable.of(2, noisy))
        assert np.abs(a.g_op - b.g_op).max() <= 1e-12

    def test_empty_table_is_degenerate_identity(self):
        predictor = build_predictor(FourierTable.of(2, {}))
        assert predictor.degenerate
        assert np.array_equal(predictor.g_op, np.eye(4))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_zero_coefficients_change_no_bit(self, d):
        # +-0.0 entries among random ones, on every kind of string, and the
        # exact table of a parity (one nonzero coefficient, zeros of both
        # signs on the other strings): the same synthesis and g_op bytes as
        # the table without them and as the synthesis that adds them, every
        # string of a synthesize_stack row
        rng = np.random.default_rng(30 + d)
        strings = degree_set_upto(d, min(d, 2))
        values = rng.normal(size=len(strings))
        values[rng.random(len(strings)) < 0.6] = 0.0
        values[rng.random(len(strings)) < 0.2] = -0.0
        parity = make_classical_source([bin(j & 3).count("1") % 2 for j in range(1 << d)])
        for table in (FourierTable.of(d, dict(zip(strings, values.tolist()))), parity.exact_table(strings)):
            assert any(c == 0.0 for _, c in table.items())
            nonzero = FourierTable.of(d, {s: c for s, c in table.items() if c != 0.0})
            full = np.zeros(4**d)
            full[[full_degree_set(d).index[s] for s in table.degree_set]] = table.values
            added = synthesize_stack(full[None], d)[0]
            assert synthesize(table).tobytes() == synthesize(nonzero).tobytes() == added.tobytes()
            got = build_predictor(table)
            assert not got.degenerate
            assert got.g_op.tobytes() == build_predictor(nonzero).g_op.tobytes()
            assert got.g_op.tobytes() == sign_operator(added).tobytes()

    def test_all_zero_table_is_degenerate_identity(self):
        strings = degree_set_upto(2, 1)
        table = FourierTable.of(2, {s: (-0.0 if i % 2 else 0.0) for i, s in enumerate(strings)})
        predictor = build_predictor(table)
        assert predictor.degenerate
        assert np.array_equal(predictor.g_op, np.eye(4))

    def test_predictor_povm_valid(self):
        rng = np.random.default_rng(21)
        table = fourier_transform(random_hermitian(rng, 8), full_degree_set(3))
        predictor = build_predictor(table)
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
        predictor = build_predictor(table)
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

    def test_bit_for_bit_the_trace_against_the_signed_mixture(self):
        # the loss reads labeling_xop = 2^d D and divides by 2^d, an exact
        # rescale: it equals 1/2 - 1/2 tr(G D) on the mixture D itself, bit
        # for bit, on noisy signs, noisy parities and random custom sources
        rng = np.random.default_rng(27)
        sources = []
        for d in range(2, 7):
            sources.append(make_noisy_source(sign_operator(random_hermitian(rng, 1 << d)), 0.1))
            sources.append(make_parity_source(d, (0, d - 1)).with_flip_rate(0.2))
            rhos = (random_density(rng, 1 << d), random_density(rng, 1 << d))
            sources.append(make_custom_source(float(rng.random()), *rhos))
        for source in sources:
            mixture = (1.0 - 2.0 * source.flip_rate) * (source.p1 * source.rho1 - source.p0 * source.rho0)
            for _ in range(3):
                g = sign_operator(random_hermitian(rng, 1 << source.d))
                want = 0.5 - 0.5 * float(np.einsum("ij,ji->", g, mixture).real)
                assert exact_loss(g, source) == min(max(want, 0.0), 1.0)


class TestEmpiricalLoss:
    def test_bell_binomial_band(self, bell_source):
        table = bell_source.exact_table(full_degree_set(2))
        predictor = build_predictor(table)
        n_test = 100_000
        emp = empirical_loss(predictor, bell_source, n_test, RandomStreams(1).generator(3))
        assert abs(emp - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n_test)

    def test_deterministic_classical_predictor_is_exact(self):
        source = make_classical_source("0110")
        predictor = Predictor(source.labeling_xop)
        emp = empirical_loss(predictor, source, 5000, RandomStreams(2).generator(3))
        assert emp == 0.0

    def test_seed_reproducibility(self, bell_source):
        predictor = build_predictor(bell_source.exact_table(full_degree_set(2)))
        a = empirical_loss(predictor, bell_source, 1000, RandomStreams(3).generator(3))
        b = empirical_loss(predictor, bell_source, 1000, RandomStreams(3).generator(3))
        assert a == b

    def test_loss_consistency_many_pairs(self):
        # five source/predictor pairs, twenty seeds each
        rng = np.random.default_rng(24)
        pairs = []
        bell = make_bell_source()
        pairs.append((bell, build_predictor(bell.exact_table(full_degree_set(2)))))
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
        random_table = FourierTable.of(d, {s: float(rng.normal()) for s in strings})
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

    @pytest.mark.parametrize("d", range(2, 8))
    def test_stack_matches_per_subset_oracle(self, d):
        # bit for bit: the stacked blocks and norms are the per-subset ones
        for table in self._tables(d):
            for k in range(min(d, 3) + 1):
                assert best_coords(table, k) == subset_best_coords(table, k)
        sparse = FourierTable.of(d, dict(list(self._tables(d)[0].items())[::3]))
        assert best_coords(sparse, 2) == subset_best_coords(sparse, 2)

    def test_stack_is_chunked(self, monkeypatch):
        table = self._tables(5)[0]
        calls = []
        real = learner.rho_norm
        monkeypatch.setattr(learner, "rho_norm", lambda a, q, rho: calls.append(a.shape) or real(a, q, rho))
        want = best_coords(table, 2)
        monkeypatch.setattr(learner, "TRACE_BLOCK", 3 * 16)
        assert best_coords(table, 2) == want
        assert calls == [(10, 4, 4)] + [(3, 4, 4)] * 3 + [(1, 4, 4)]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_gather_index_matches_block_oracle(self, d):
        rng = np.random.default_rng(70 + d)
        # every k up to 3 at d <= 6, and k = 3 beyond
        for k in range(1, min(d, 3) + 1) if d <= 6 else (3,):
            strings = degree_set_upto(d, k)
            table = FourierTable.of(d, {s: float(rng.normal()) for s in strings})
            subsets, gather = learner._subset_blocks(d, k)
            assert subsets == list(itertools.combinations(range(d), k))
            coeffs = np.array([table[s] for s in strings])
            for coords, row in zip(subsets, gather):
                want = [block(table, coords).get(s) for s in full_degree_set(k)]
                assert coeffs[row].tolist() == want

    def test_cold_subset_blocks_construct_no_string(self, monkeypatch):
        # the degree set is shared by every caller and built before
        strings = degree_set_upto(10, 3)
        built = []
        init = PauliString.__post_init__
        monkeypatch.setattr(PauliString, "__post_init__", lambda self: built.append(init(self)))
        subsets, gather = learner._subset_blocks(10, 3)
        assert built == []
        assert gather.shape == (len(subsets), 64) == (120, 64)
        assert gather.max() < len(strings)

    def test_symmetric_table_tie_goes_to_first_pair(self):
        d = 4
        coeffs = {PauliString.identity(d): 0.1}
        for j in range(d):
            coeffs[PauliString(tuple(3 if q == j else 0 for q in range(d)))] = 0.3
        for pair in itertools.combinations(range(d), 2):
            for sym, c in ((1, 0.2), (2, -0.25)):
                coeffs[PauliString(tuple(sym if q in pair else 0 for q in range(d)))] = c
        table = FourierTable.of(d, coeffs)
        # every pair has the same block, so every pair ties exactly
        norms = set(subset_norms(table, 2))
        assert len(norms) == 1
        assert best_coords(table, 2) == (norms.pop(), (0, 1))

    def test_rounding_ties_go_to_first_qubit(self):
        # identity-dominated k=1 table: every qubit's block has mean
        # |eigenvalue| f_identity, equal up to rounding
        rng = np.random.default_rng(0)
        coeffs = {s: float(rng.normal(scale=0.1)) for s in degree_set_upto(3, 1)}
        coeffs[PauliString.identity(3)] = 0.9
        table = FourierTable.of(3, coeffs)
        norms = subset_norms(table, 1)
        assert max(norms) > norms[0]  # a strict comparison would not pick qubit 0
        norm, coords = best_coords(table, 1)
        assert coords == (0,)
        assert norm == norms[0] == pytest.approx(0.9, abs=1e-14)

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
        assert report.chosen_coords == report.opt_coords == (1, 4)
        # selection and opt_k: one stack of the 15 pairs' 4x4 blocks each;
        # only the two predictors are dense
        assert shapes["rho_norm"] == [((15, 4, 4), (4, 4))] * 2
        assert sorted(shapes["synthesize"]) == [(64, 64)] * 2


class TestMeasuredBeta:
    @pytest.mark.parametrize("d", range(3, 7))
    def test_equals_a_loop_over_the_strings(self, d):
        # the error vector's squares, summed left to right in the degree
        # set's order, are bit for bit the per-string loop over the tables
        rng = np.random.default_rng(40 + d)
        junta = np.kron(sign_operator(random_hermitian(rng, 4)), np.eye(1 << (d - 2)))
        sources = (make_noisy_source(junta, 0.1), make_parity_source(d, (0, d - 1)))
        for source in sources:
            for degree_set in (degree_set_upto(d, 2), degree_set_classical_upto(d, 2)):
                for seed in (1, 2):
                    _, report = qld_learn(source, degree_set, 3000, 0.05, seed)
                    truth = source.exact_table(degree_set)
                    sq = 0.0
                    for s in degree_set:
                        err = report.estimates.get(s) - truth[s]
                        sq += err * err
                    assert report.beta_measured == math.sqrt(sq)


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

    def test_optimal_predictor_built_once_per_source(self, monkeypatch):
        source = make_parity_source(3, (0, 2))
        degree_set = degree_set_upto(3, 2)
        built = []
        real = learner.build_predictor
        monkeypatch.setattr(learner, "build_predictor", lambda t: built.append(t) or real(t))
        reports = [qld_learn(source, degree_set, 2000, 0.05, seed)[1] for seed in (1, 2)]
        # one learned predictor per seed, and the optimum once
        assert len(built) == 3
        assert reports[0].optimal_exact_loss == reports[1].optimal_exact_loss == 0.0
        fresh = make_parity_source(3, (0, 2))
        assert qld_learn(fresh, degree_set, 2000, 0.05, 2)[1].optimal_exact_loss == 0.0
        assert len(built) == 5

    def test_report_fields(self):
        source = make_parity_source(2, (0, 1))
        _, report = qld_learn(source, degree_set_classical_upto(2, 2), 1000, 0.1, 1,
                              opt_value=0.0, n_test=500)
        assert set(report_fields(report)) == {
            "estimates", "cover", "plan", "n", "delta", "epsilon", "score",
            "beta_bound", "seed", "opt_value", "bound_value", "beta_measured",
            "bound_measured", "chosen_coords", "exact_loss", "empirical_loss",
            "optimal_exact_loss", "degenerate", "opt_coords",
        }
        assert report.estimates.to_text().startswith("d=2")
        assert 0.0 <= report.exact_loss <= 1.0
        assert 0.0 <= report.empirical_loss <= 1.0
        assert report.seed == 1
        assert report.plan.total == report.n
        assert report.chosen_coords is None and report.opt_coords is None


def planted_pair_sign(rng, d, coords):
    """The sign of a random 4x4 Hermitian acting on the two qubits
    ``coords``, and the identity on the others."""
    f = np.kron(sign_operator(random_hermitian(rng, 4)), np.eye(1 << (d - 2)))
    order = [*coords, *(q for q in range(d) if q not in coords)]
    inv = np.argsort(order).tolist()
    return f.reshape([2] * (2 * d)).transpose(inv + [d + q for q in inv]).reshape(1 << d, 1 << d)


class TestJuntaLearn:
    def test_recovers_planted_pair(self):
        source = make_parity_source(4, (0, 3))
        predictor, report = junta_learn(source, 2, 30_000, 0.05, 3)
        assert report.chosen_coords == (0, 3)
        assert report.exact_loss <= 0.05
        assert report.opt_value == pytest.approx(0.0, abs=1e-12)
        assert validate_povm(predictor.effects) == []

    def test_k_equals_d_matches_qld(self):
        seed = 17
        # one source each, so neither reads the other's memoized optimum
        p_junta, r_junta = junta_learn(make_parity_source(2, (0, 1)), 2, 4000, 0.05, seed)
        p_qld, r_qld = qld_learn(make_parity_source(2, (0, 1)), degree_set_upto(2, 2), 4000, 0.05, seed)
        assert r_junta.chosen_coords == (0, 1)
        assert np.abs(p_junta.g_op - p_qld.g_op).max() <= 1e-12
        # both learners share one estimation and one closing step
        assert r_junta.estimates.to_text() == r_qld.estimates.to_text()
        assert r_junta.cover.to_text() == r_qld.cover.to_text()
        assert r_junta.plan == r_qld.plan
        for name in ("score", "beta_bound", "beta_measured", "exact_loss",
                     "optimal_exact_loss", "degenerate"):
            assert getattr(r_junta, name) == getattr(r_qld, name), name

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

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_measured_bound_holds_on_every_planted_run(self, d):
        # planted pair (1, d - 1), operator seed 70 + d, learner seeds 1, 2, 3;
        # the bound passes 1 at n = 2e4 and tells something only at 2e5
        coords = (1, d - 1)
        f = planted_pair_sign(np.random.default_rng(70 + d), d, coords)
        for eta, source in ((0.0, make_realizable_source(f)), (0.1, make_noisy_source(f, 0.1))):
            for n, seed in itertools.product((20_000, 200_000), (1, 2, 3)):
                _, report = junta_learn(source, 2, n, 0.05, seed)
                assert report.opt_coords == coords
                assert report.opt_value == pytest.approx(eta, abs=1e-12)
                assert report.exact_loss <= report.bound_measured
                assert n < 200_000 or report.bound_measured < 1.0

    def test_k_range(self):
        source = make_parity_source(2, (0, 1))
        with pytest.raises(ValueError, match="1 <= k <= d"):
            junta_learn(source, 3, 100, 0.05, 0)

    def test_exact_table_built_once_per_call(self, monkeypatch):
        import qfl.pauli as pauli_module

        source = make_parity_source(3, (0, 2))
        calls = []
        real = pauli_module.spectral_traces
        monkeypatch.setattr(
            pauli_module, "spectral_traces", lambda m, x, z, k: calls.append(len(x)) or real(m, x, z, k)
        )
        _, report = junta_learn(source, 2, 2000, 0.05, 4)
        assert report.opt_value == pytest.approx(0.0, abs=1e-12)
        assert calls == [len(degree_set_upto(3, 2))]


class TestSeedInvariantMemo:
    """What a learn call derives without the seed is paid once.  Work that
    depends only on the measurement class (the degree set, the checked cover
    and plan, each batch's checked reduction) is cached per class and shared
    by every source; work on the source's states (outcome tables, exact
    tables, the optimum and ``opt_k``) is memoized per source."""

    def test_class_caches_list_every_module_cache(self):
        # every cache a qfl module holds is cleared around each test, so no
        # build count depends on which tests ran before
        caches = set()
        for info in pkgutil.iter_modules(qfl.__path__):
            module = importlib.import_module(f"qfl.{info.name}")
            caches.update(v for v in vars(module).values() if callable(v) and hasattr(v, "cache_clear"))
        assert caches == set(CLASS_CACHES)

    @staticmethod
    def noisy_source():
        rng = np.random.default_rng(51)
        return make_noisy_source(sign_operator(random_hermitian(rng, 8)), 0.1)

    @staticmethod
    def learn(name, source, seed, n=3000):
        if name == "qld":
            return qld_learn(source, degree_set_upto(3, 2), n, 0.05, seed, n_test=500)
        return junta_learn(source, 2, n, 0.05, seed, n_test=500)

    @pytest.mark.parametrize("name", ["qld", "junta"])
    def test_warm_memo_matches_fresh_source(self, name):
        warm = self.noisy_source()
        self.learn(name, warm, 0)
        for seed in (1, 2, 3):
            p_warm, r_warm = self.learn(name, warm, seed)
            p_fresh, r_fresh = self.learn(name, self.noisy_source(), seed)
            assert report_fields(r_warm) == report_fields(r_fresh)
            assert np.array_equal(p_warm.g_op, p_fresh.g_op)

    @pytest.mark.parametrize("name", ["qld", "junta"])
    def test_cold_class_caches_match_warm(self, name):
        # differential: every run with the class caches cleared first against
        # the same runs on warm caches, each on a fresh source
        self.learn(name, self.noisy_source(), 0)
        for seed in (1, 2, 3):
            p_warm, r_warm = self.learn(name, self.noisy_source(), seed)
            clear_class_caches()
            p_cold, r_cold = self.learn(name, self.noisy_source(), seed)
            assert report_fields(r_warm) == report_fields(r_cold)
            assert np.array_equal(p_warm.g_op, p_cold.g_op)

    @staticmethod
    def count_calls(monkeypatch, counts, module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("name", ["qld", "junta"])
    def test_seed_invariant_steps_run_once_per_source(self, monkeypatch, name):
        counts = collections.Counter()
        for fn in ("best_cover", "check_cover", "allocate_batches", "best_coords"):
            self.count_calls(monkeypatch, counts, learner, fn)
        self.count_calls(monkeypatch, counts, simulator, "spectral_traces")
        self.count_calls(monkeypatch, counts, simulator, "_reduce_batch")
        self.count_calls(monkeypatch, counts, simulator, "_product_masks")
        source = self.noisy_source()
        reports = [self.learn(name, source, seed)[1] for seed in (1, 2, 3)]
        m = reports[0].cover.m
        # the class work once; one Pauli spectrum of each base per source,
        # for the laws of all batches; junta selects once per seed and scores
        # opt_k once per source
        junta = name == "junta"
        plan_once = dict(best_cover=1, check_cover=1, allocate_batches=1, _reduce_batch=m, _product_masks=m)
        assert counts == collections.Counter(**plan_once, best_coords=(3 + 1) * junta, spectral_traces=2)
        # a source with another flip rate, and a reloaded source, share the
        # class: no search, check, allocation or reduction, but their own spectra
        self.learn(name, source.with_flip_rate(0.2), 1)
        self.learn(name, self.noisy_source(), 1)
        assert {fn: counts[fn] for fn in plan_once} == plan_once
        assert counts["spectral_traces"] == 3 * 2
        assert counts["best_coords"] == (3 + 1 + 2 + 2) * junta
        # another budget is another class: another plan, the same batches
        report = self.learn(name, source, 1, n=4000)[1]
        assert (counts["best_cover"], counts["check_cover"], counts["allocate_batches"]) == (2, 2, 2)
        assert report.plan != reports[0].plan
        assert report.cover == reports[0].cover
        assert counts["_reduce_batch"] == counts["_product_masks"] == m
        assert counts["spectral_traces"] == 3 * 2

    def test_errors_are_not_memoized(self, monkeypatch):
        source = make_realizable_source(pauli_matrix(P("3")))
        nodes = DegreeSet.of(1, [P("1"), P("2"), P("3")])
        for _ in range(2):
            with pytest.raises(ValueError, match="n >= number of cover subsets"):
                qld_learn(source, nodes, 2, 0.1, 0)
        # a cover that fails its check raises on every call, then a good one runs
        bad = Cover((DegreeSet.of(1, [P("1"), P("2")]), DegreeSet.of(1, [P("3")])))
        monkeypatch.setattr(learner, "best_cover", lambda *args, **kwargs: bad)
        for _ in range(2):
            with pytest.raises(ValueError, match="not mutually commuting"):
                qld_learn(source, nodes, 10, 0.1, 0)
        monkeypatch.undo()
        assert qld_learn(source, nodes, 10, 0.1, 0)[1].cover.m == 3
        # and so does a batch that cannot be measured jointly, on any source
        for batch_source in (source, make_realizable_source(pauli_matrix(P("1")))):
            for _ in range(2):
                with pytest.raises(ValueError, match="commute"):
                    batch_source.prepared_batches((bad.subsets[0],))
        assert simulator._checked_reduction.cache_info().currsize == 3

    def test_class_cache_errors_are_not_cached(self, monkeypatch):
        # n < m raises on every call, also on a fresh source of the same class
        counts = collections.Counter()
        self.count_calls(monkeypatch, counts, learner, "best_cover")
        nodes = degree_set_upto(3, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="n >= number of cover subsets"):
                qld_learn(self.noisy_source(), nodes, 5, 0.05, 0)
        assert counts["best_cover"] == 2
        assert learner._plan.cache_info().currsize == 0
        # a non-commuting batch raises through the cached reduction each time
        clash = DegreeSet.of(2, [P("10"), P("30")])
        for _ in range(2):
            with pytest.raises(ValueError, match="commute"):
                simulator._checked_reduction(clash)
        assert simulator._checked_reduction.cache_info().currsize == 0

    def test_failed_eigenvalue_table_is_not_cached(self, monkeypatch):
        batch = DegreeSet.of(2, [P("11"), P("22"), P("33")])
        source = make_bell_source()

        def broken(x, z, k):
            raise MemoryError("no room for the eigenvalue table's product masks")

        monkeypatch.setattr(simulator, "_product_masks", broken)
        for _ in range(2):
            with pytest.raises(MemoryError):
                source.prepared_batches((batch,))
        assert simulator._checked_reduction.cache_info().currsize == 0
        assert source._memo == {}
        monkeypatch.undo()
        reduction = simulator._checked_reduction(batch)
        assert source.prepared_batches((batch,))[0].reduction is reduction
        # XX and YY generate; ZZ = -(XX)(YY)
        assert reduction.eigenvalues.tolist() == [[1, 1, -1], [-1, 1, 1], [1, -1, 1], [-1, -1, -1]]

    def test_concurrent_class_cache_misses_agree(self):
        # the class caches take no lock: racing threads may build a value
        # twice, which is harmless only because every build gives equal values
        def values(i):
            plan = learner._plan(degree_set_upto(4, 2), 500 + 100 * (i % 3), 0.05, "greedy")
            reductions = [simulator._checked_reduction(b) for b in plan[0].subsets]
            return plan, [
                (r.generator_columns, [m.tolist() for m in r.masks], r.eigenvalues.tolist())
                for r in reductions
            ]

        expected = [values(i) for i in range(3)]
        wrong = []

        def work(t):
            for i in range(40):
                if (t + i) % 9 == 0:
                    clear_class_caches()  # force concurrent misses
                if values(i) != expected[i % 3]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        for cache in (learner._plan, simulator._checked_reduction):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize

    def test_cached_class_values_are_read_only(self):
        source = self.noisy_source()
        _, report = self.learn("junta", source, 1)
        degree_set = degree_set_upto(3, 2)
        assert degree_set is degree_set_upto(3, 2)
        cover, plan = learner._plan(degree_set, 3000, 0.05, "greedy")
        assert (cover, plan) == (report.cover, report.plan)
        assert isinstance(degree_set.strings, tuple) and isinstance(plan.sizes, tuple)
        for frozen in (degree_set, cover, plan):
            with pytest.raises(AttributeError):
                frozen.d = 0
        for batch in cover.subsets:
            reduction = simulator._checked_reduction(batch)
            assert isinstance(reduction.generator_columns, tuple)
            for a in (reduction.eigenvalues, *reduction.masks):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            # the per-source tables share the cached reduction
            assert source.prepared_batches((batch,))[0].reduction is reduction
