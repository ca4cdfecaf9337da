"""Sample sources, the labeling operator, and the measurement engine."""

import functools
import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfl import learner
from qfl.compatibility import best_cover
from qfl.operators import maximally_mixed, partial_trace_label, validate_povm
from qfl.pauli import (
    DegreeSet,
    FourierTable,
    PauliString,
    classical_embedding,
    degree_set_classical_upto,
    degree_set_upto,
    fourier_coefficient,
    pauli_matrix,
)
from qfl.simulator import (
    SIGN_OPERATOR_TOL,
    RandomStreams,
    _checked_reduction,
    _reduce_batch,
    draw_samples,
    estimation_observable,
    labeling_operator,
    load_source,
    make_classical_source,
    make_custom_source,
    make_noisy_source,
    make_realizable_source,
    matrix_from_text,
    matrix_to_text,
    measure_batch_groups,
    prepare_batches,
    save_matrix,
)

from conftest import (
    joint_state,
    make_bell_source,
    make_parity_source,
    measure_groups,
    random_density,
)
from oracles import (
    collapse_measure_batch_groups,
    dense_realizable_source,
    eigh_realizable_states,
    joint_law,
    measure,
    object_eigenvalues,
    object_product_masks,
    object_reduce_batch,
    sample_groups,
    table_measure_batch_groups,
    table_prepare_batch,
)

P = PauliString.from_digits


def joint_probabilities(sample_state, label, batch):
    """Dense oracle: enumerate the fine-grained product effects for a batch."""
    e = np.zeros((2, 2), dtype=complex)
    e[label, label] = 1.0
    joint = np.kron(sample_state, e)
    probs = {}
    for w in itertools.product((1, -1), repeat=len(batch)):
        g = np.eye(joint.shape[0], dtype=complex)
        for choice, s in zip(w, batch):
            plus, minus = estimation_observable(s)
            g = g @ (plus if choice == 1 else minus)
        probs[w] = float(np.trace(g @ joint).real)
    return probs


def prepare_batch(batch, states):
    """The prepared batch of one batch on the states."""
    return prepare_batches((batch,), states)[0]


def measured(groups, batch, uniforms):
    """The +-1 outcome matrix of the groups' samples."""
    return measure_groups(groups, batch, uniforms)[1]


def measure_one(state, label, batch, rng):
    """Outcomes of one sample measured as its own one-row group."""
    uniforms = rng.random(len(batch))[None, :]
    sign = 1.0 if label == 1 else -1.0
    return measured([(state, sign, np.array([0]))], batch, uniforms)[0]


class TestLabelingOperator:
    def test_d1_matrix(self):
        assert np.array_equal(labeling_operator(1), np.diag([-1.0 + 0j, 1, -1, 1]))

    def test_squares_to_identity(self):
        f = labeling_operator(2)
        assert np.abs(f @ f - np.eye(8)).max() == 0.0

    def test_phase_action_on_labeled_states(self):
        rng = np.random.default_rng(0)
        f = labeling_operator(2)
        rho = random_density(rng, 4)
        for y in (0, 1):
            e = np.zeros((2, 2), dtype=complex)
            e[y, y] = 1.0
            block = np.kron(rho, e)
            want = -((-1) ** y) * block
            assert np.abs(f @ block - want).max() <= 1e-12


class TestRealizableSource:
    def test_sigma_z(self):
        source = make_realizable_source(pauli_matrix(P("3")))
        # +1 eigenspace of Z is |0>, which carries label 1
        assert np.abs(source.rho1 - np.diag([1.0, 0.0])).max() <= 1e-12
        assert abs(source.p1 - 0.5) <= 1e-12
        assert abs(source.exact_coefficient(P("3")) - 1.0) <= 1e-12
        assert source.maximally_mixed and not source.degenerate

    def test_parity_embedding_coefficients(self):
        source = make_realizable_source(classical_embedding([0, 1, 1, 0]))
        # direct oracle: the labeling operator is the embedding itself
        for s in (P("33"), P("30"), P("03"), P("11")):
            want = fourier_coefficient(classical_embedding([0, 1, 1, 0]), s)
            assert abs(source.exact_coefficient(s) - want) <= 1e-12
        assert abs(source.exact_coefficient(P("33")) + 1.0) <= 1e-12

    def test_identity_is_degenerate(self):
        source = make_realizable_source(np.eye(4))
        assert source.degenerate
        assert source.p0 == 0.0

    def test_rejects_non_sign_operator(self):
        with pytest.raises(ValueError, match=r"\+-1 operator"):
            make_realizable_source(np.diag([2.0, -1.0]))

    def test_marginal_maximally_mixed(self):
        rng = np.random.default_rng(1)
        from qfl.operators import sign_operator

        from conftest import random_hermitian

        source = make_realizable_source(sign_operator(random_hermitian(rng, 8)))
        mix = source.p0 * source.rho0 + source.p1 * source.rho1
        assert np.abs(mix - maximally_mixed(3)).max() <= 1e-8


class TestNoisySource:
    def test_zero_noise_identical(self):
        base = make_realizable_source(pauli_matrix(P("3")))
        noisy = make_noisy_source(pauli_matrix(P("3")), 0.0)
        assert noisy.flip_rate == 0.0
        assert np.array_equal(base.labeling_xop, noisy.labeling_xop)

    def test_quarter_noise_shrinks_coefficient(self):
        source = make_noisy_source(pauli_matrix(P("3")), 0.25)
        assert abs(source.exact_coefficient(P("3")) - 0.5) <= 1e-12

    def test_true_operator_loss_equals_flip_rate(self):
        # oracle: evaluate 1/2 - 1/2 tr((G x I) F_Y rho_XY) on the dense joint state
        from qfl.learner import exact_loss

        g = pauli_matrix(P("3"))
        source = make_noisy_source(g, 0.1)
        dense = 0.5 - 0.5 * np.trace(
            np.kron(g, np.eye(2)) @ labeling_operator(1) @ joint_state(source)
        ).real
        assert abs(exact_loss(g, source) - dense) <= 1e-12
        assert abs(exact_loss(g, source) - 0.1) <= 1e-12

    def test_eta_range(self):
        with pytest.raises(ValueError, match="eta"):
            make_noisy_source(pauli_matrix(P("3")), 0.5)

    def test_flip_rate_override_keeps_realizability(self, bell_source):
        # a realizable source under label flips has optimum eta; a custom one
        # does not (bell at eta = 0.1 has optimum 0.3), and stays unrealizable
        assert make_noisy_source(pauli_matrix(P("3")), 0.1).realizable
        assert make_classical_source("0110").with_flip_rate(0.1).realizable
        noisy_bell = bell_source.with_flip_rate(0.1)
        assert not bell_source.realizable and not noisy_bell.realizable
        optimum = learner.build_predictor(noisy_bell.exact_table(degree_set_upto(2, 2)))
        assert learner.exact_loss(optimum, noisy_bell) == pytest.approx(0.3, abs=1e-12)


class TestClassicalAndCustom:
    def test_classical_states_are_basis_mixtures(self):
        source = make_classical_source("0110")
        assert np.abs(source.rho0 - np.diag(np.diag(source.rho0))).max() <= 1e-12
        assert np.abs(source.rho1 - np.diag([0.0, 0.5, 0.5, 0.0])).max() <= 1e-12

    def test_bell_custom_source(self, bell_source):
        assert bell_source.maximally_mixed
        assert abs(bell_source.exact_coefficient(P("22")) - 0.5) <= 1e-12
        assert abs(bell_source.exact_coefficient(P("11")) + 0.5) <= 1e-12
        marginal = partial_trace_label(joint_state(bell_source))
        assert np.abs(marginal - maximally_mixed(2)).max() <= 1e-12

    def test_indistinguishable_states_carry_no_signal(self):
        rho = maximally_mixed(2)
        source = make_custom_source(0.3, rho, rho)
        for s in (P("11"), P("30"), P("23")):
            assert abs(source.exact_coefficient(s)) <= 1e-12
        assert abs(source.exact_coefficient(P("00")) - (source.p1 - source.p0)) <= 1e-12

    def test_all_zero_labels(self):
        source = make_custom_source(1.0, maximally_mixed(1), maximally_mixed(1))
        assert source.degenerate

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            make_custom_source(0.5, np.diag([1.5, -0.5]), maximally_mixed(1))

    def test_dimension_rules(self):
        # the same dimension rules, with the same words, as a realizable source
        with pytest.raises(ValueError, match="d must be >= 1"):
            make_custom_source(0.5, [[1]], [[1]])
        with pytest.raises(ValueError, match="power of two"):
            make_custom_source(0.5, np.eye(3) / 3, np.eye(3) / 3)


class TestDrawing:
    def test_reproducible(self):
        source = make_noisy_source(pauli_matrix(P("3")), 0.3)
        streams = RandomStreams(99)
        bases1, labels1 = draw_samples(source, 50, streams.generator(6))
        bases2, labels2 = draw_samples(source, 50, streams.generator(6))
        assert np.array_equal(bases1, bases2)
        assert np.array_equal(labels1, labels2)
        assert bases1.dtype == labels1.dtype == np.int8
        # n base uniforms first, then n flip uniforms
        u = streams.generator(6).random(100)
        assert np.array_equal(bases1, u[:50] >= source.p0)
        assert np.array_equal(labels1 != bases1, u[50:] < 0.3)

    def test_label_frequency(self):
        source = make_classical_source("0001")  # p1 = 1/4
        streams = RandomStreams(3)
        _, labels = draw_samples(source, 100_000, streams.generator(0))
        sigma = np.sqrt(0.25 * 0.75 / 100_000)
        assert abs(labels.mean() - 0.25) <= 3 * sigma

    def test_degenerate_labels(self):
        source = make_custom_source(1.0, maximally_mixed(1), maximally_mixed(1))
        streams = RandomStreams(4)
        bases, labels = draw_samples(source, 20, streams.generator(0))
        assert set(bases) == set(labels) == {0}

    def test_noisy_flip_statistics(self):
        source = make_noisy_source(pauli_matrix(P("3")), 0.2)
        streams = RandomStreams(8)
        bases, labels = draw_samples(source, 100_000, streams.generator(0))
        # the base records the pre-flip label
        rate = np.mean(bases != labels)
        assert abs(rate - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / 100_000)


class TestEstimationObservable:
    def test_zero_string_projects_label_parity(self):
        plus, minus = estimation_observable(P("0"))
        f = labeling_operator(1)
        assert np.abs(plus - (np.eye(4) + f) / 2).max() <= 1e-12
        assert np.abs(minus - (np.eye(4) - f) / 2).max() <= 1e-12

    def test_effects_are_projective_povm(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            s = PauliString(tuple(int(v) for v in rng.integers(0, 4, size=d)))
            plus, minus = estimation_observable(s)
            assert validate_povm([plus, minus]) == []
            assert np.abs(plus @ plus - plus).max() <= 1e-8

    def test_mean_recovers_coefficient(self, bell_source):
        plus, minus = estimation_observable(P("22"))
        mean = np.trace((plus - minus) @ joint_state(bell_source)).real
        assert abs(mean - 0.5) <= 1e-12


class TestMeasure:
    def test_deterministic_outcome(self):
        state = np.diag([1.0, 0.0]).astype(complex)
        povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        streams = RandomStreams(1)
        rng = streams.generator(0)
        for _ in range(10):
            outcome, post = measure(state, povm, rng)
            assert outcome == 0
            assert np.abs(post - state).max() <= 1e-12

    def test_unbiased_coin(self):
        povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        rng = RandomStreams(2).generator(0)
        outcomes = [measure(maximally_mixed(1), povm, rng)[0] for _ in range(100_000)]
        assert abs(np.mean(outcomes) - 0.5) <= 3 * np.sqrt(0.25 / 100_000)

    def test_post_state_in_effect_range(self):
        rng = np.random.default_rng(11)
        state = random_density(rng, 4)
        from qfl.operators import sign_operator

        from conftest import random_hermitian

        g = sign_operator(random_hermitian(rng, 4))
        povm = [(np.eye(4) + g) / 2, (np.eye(4) - g) / 2]
        outcome, post = measure(state, povm, RandomStreams(3).generator(0))
        eff = povm[outcome]
        assert np.abs(eff @ post @ eff - post).max() <= 1e-8

    def test_negative_probability_is_error(self):
        broken = [-np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)]
        with pytest.raises(ValueError, match="probability"):
            measure(maximally_mixed(1), broken, RandomStreams(4).generator(0))


class TestMeasureBatch:
    def test_single_string_matches_measure(self):
        source = make_bell_source()
        batch = DegreeSet.of(2, [P("30")])
        plus, minus = estimation_observable(P("30"))
        joint = np.kron(source.rho0, np.diag([1.0, 0.0]).astype(complex))
        # identical uniform stream drives identical outcomes
        for seed in range(5):
            w = measure_one(source.rho0, 0, batch, RandomStreams(seed).generator(0))[0]
            outcome, _ = measure(joint, [plus, minus], RandomStreams(seed).generator(0))
            assert (w == 1) == (outcome == 0)

    def test_rejects_non_commuting_batch(self):
        with pytest.raises(ValueError, match="commute"):
            measure_one(
                maximally_mixed(1), 0, DegreeSet.of(1, [P("1"), P("2")]), RandomStreams(0).generator(0)
            )

    def test_joint_law_matches_enumeration(self):
        source = make_bell_source()
        batch = DegreeSet.of(2, [P("03"), P("30")])
        expected = joint_probabilities(source.rho1, 1, batch)
        n = 40_000
        uniforms = RandomStreams(12).generator(0).random((n, 2))
        outcomes = measured([(source.rho1, 1.0, np.arange(n))], batch, uniforms)
        for w, p in expected.items():
            freq = np.mean((outcomes[:, 0] == w[0]) & (outcomes[:, 1] == w[1]))
            assert abs(freq - p) <= 4 * np.sqrt(max(p * (1 - p), 1e-4) / n)

    def test_three_string_joint_law(self):
        rng = np.random.default_rng(13)
        state = random_density(rng, 4)
        batch = DegreeSet.of(2, [P("30"), P("03"), P("33")])
        expected = joint_probabilities(state, 0, batch)
        n = 60_000
        uniforms = RandomStreams(14).generator(0).random((n, 3))
        outcomes = measured([(state, -1.0, np.arange(n))], batch, uniforms)
        for w, p in expected.items():
            freq = np.mean(
                (outcomes[:, 0] == w[0]) & (outcomes[:, 1] == w[1]) & (outcomes[:, 2] == w[2])
            )
            assert abs(freq - p) <= 4 * np.sqrt(max(p * (1 - p), 1e-4) / n)

    def test_grouped_equals_per_sample(self):
        source = make_noisy_source(pauli_matrix(P("30")), 0.3)
        prepared = source.prepared_batches((DegreeSet.of(2, [P("30"), P("03")]),))[0]
        n = 500
        bases, labels = draw_samples(source, n, RandomStreams(15).generator(1))
        assert len(set(zip(bases.tolist(), labels.tolist()))) == 4
        uniforms = RandomStreams(15).generator(0).random((n, 2))
        whole = measure_batch_groups((bases, labels), prepared, uniforms)
        singles = np.empty_like(whole)
        for i in range(n):
            one = slice(i, i + 1)
            singles[i] = measure_batch_groups((bases[one], labels[one]), prepared, uniforms[one])[0]
        assert np.array_equal(whole, singles)

    def test_transcript_determinism(self):
        source = make_parity_source(3, (0, 2))
        batch = DegreeSet.of(3, [P("300"), P("003"), P("303")])
        a = measure_one(source.rho1, 1, batch, RandomStreams(16).generator(2))
        b = measure_one(source.rho1, 1, batch, RandomStreams(16).generator(2))
        assert np.array_equal(a, b)


def k2_cliques(d):
    """Every subset of the greedy k=2 cover on d qubits."""
    return best_cover(degree_set_upto(d, min(2, d)), 1000, 0.05).subsets


def four_groups(rng, d, n):
    """Two random states and a random split of n rows into the four
    ``(state, label_sign)`` pairs, all nonempty."""
    rho0, rho1 = random_density(rng, 1 << d), random_density(rng, 1 << d)
    parts = np.array_split(rng.permutation(n), 4)
    return [(rho0, -1.0, parts[0]), (rho0, 1.0, parts[1]), (rho1, -1.0, parts[2]), (rho1, 1.0, parts[3])]


class TestJointLawSampler:
    def test_matches_collapse_oracle(self):
        rng = np.random.default_rng(40)
        for d in range(2, 6):
            for batch in k2_cliques(d):
                for diagonal in (False, True):
                    groups = four_groups(rng, d, 120)
                    if diagonal:
                        groups = [(np.diag(np.diag(state)), c, idx) for state, c, idx in groups]
                    uniforms = rng.random((120, len(batch)))
                    assert np.array_equal(
                        measured(groups, batch, uniforms),
                        collapse_measure_batch_groups(groups, batch, uniforms),
                    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(0, 10_000))
    def test_law_is_a_distribution(self, d, seed):
        rng = np.random.default_rng(seed)
        cliques = k2_cliques(d)
        batch = cliques[int(rng.integers(len(cliques)))]
        generators = [batch.strings[c] for c in _reduce_batch(batch)[0]]
        state = random_density(rng, 1 << d)
        law = joint_law(state, generators)
        assert law.shape == (1 << len(generators),)
        assert law.min() >= -1e-12
        assert abs(law.sum() - 1.0) <= 1e-12
        # each entry is the trace against the product of eigenprojections
        for b in range(len(law)):
            proj = np.eye(1 << d, dtype=complex)
            for g, s in enumerate(generators):
                proj = proj @ (np.eye(1 << d) + (-1) ** (b >> g & 1) * pauli_matrix(s)) / 2
            assert abs(law[b] - np.trace(proj @ state).real) <= 1e-12

    @pytest.mark.parametrize("batch", ["all-z", "largest-clique"])
    def test_prefix_histogram_follows_the_law_at_rank_8(self, batch):
        # the rank-8 all-Z batch, or the largest subset of the k=2 greedy
        # cover, which mixes X and Y (37 strings each); state seed 8,
        # sample seed 88, both labels
        d, n, chunk = 8, 1_000_000, 100_000
        if batch == "all-z":
            batch = degree_set_classical_upto(d, 2)
        else:
            batch = max(k2_cliques(d), key=len)
        reduction = _checked_reduction(batch)
        assert reduction.rank == d
        state = random_state(np.random.default_rng(8), 1 << d, 2)
        expected = n * joint_law(state, [batch.strings[c] for c in reduction.generator_columns])
        prepared = prepare_batch(batch, (state,))
        rng = RandomStreams(88).generator(0)
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        observed = np.zeros(len(expected), dtype=np.int64)
        # a sample's prefix depends on its own row only, so chunks keep the
        # uniforms small
        for lo in range(0, n, chunk):
            samples = (np.zeros(chunk, dtype=np.int8), labels[lo:lo + chunk])
            prefixes = measure_batch_groups(samples, prepared, rng.random((chunk, len(batch))))
            observed += np.bincount(prefixes, minlength=len(expected))
        assert observed.sum() == n
        # cells expected under 5 times are pooled into one
        small = expected < 5
        cells_e = np.append(expected[~small], expected[small].sum())
        cells_o = np.append(observed[~small], observed[small].sum())
        if not small.any():
            cells_e, cells_o = cells_e[:-1], cells_o[:-1]
        stat = float(((cells_o - cells_e) ** 2 / cells_e).sum())
        assert stat <= stats.chi2.ppf(1 - 1e-3, df=len(cells_e) - 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 4), st.integers(0, 10_000))
    def test_outcomes_ignore_group_split_and_order(self, d, seed):
        rng = np.random.default_rng(seed)
        cliques = k2_cliques(d)
        batch = cliques[int(rng.integers(len(cliques)))]
        n = 60
        groups = four_groups(rng, d, n)
        uniforms = rng.random((n, len(batch)))
        whole = measure_groups(groups, batch, uniforms)[0]
        # split every group in two, copy its state, and shuffle the pieces,
        # which renumbers the bases
        pieces = []
        for state, sign, idx in groups:
            cut = int(rng.integers(1, len(idx)))
            pieces += [(state.copy(), sign, idx[:cut]), (state, sign, idx[cut:])]
        order = rng.permutation(len(pieces))
        split = measure_groups([pieces[i] for i in order], batch, uniforms)[0]
        assert np.array_equal(whole, split)

    def test_reduction_matches_dense_products(self):
        # every string, generators included, is its sign E[0, l] times the
        # product of the generators in its combo
        for d in range(1, 5):
            for batch in k2_cliques(d) + (degree_set_upto(d, 0),):
                generator_columns, combos = _reduce_batch(batch)
                generators = [batch.strings[c] for c in generator_columns]
                assert len(generators) <= d
                signs = _checked_reduction(batch).eigenvalues[0]
                for g, col in enumerate(generator_columns):
                    assert combos[col] == 1 << g and signs[col] == 1
                for s, combo, sign in zip(batch, combos, signs.tolist()):
                    product = np.eye(1 << d, dtype=complex)
                    for i, gen in enumerate(generators):
                        if combo >> i & 1:
                            product = pauli_matrix(gen) @ product
                    assert np.array_equal(pauli_matrix(s), sign * product)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reduction_matches_object_reduction(self, k):
        # the reduction on the batch's masks against the one on its string
        # objects, byte for byte, on every batch of the greedy covers
        for d in range(k, 9):
            for batch in best_cover(degree_set_upto(d, k), 10**6, 0.05).subsets:
                generators, columns = object_reduce_batch(batch)
                reduction = _checked_reduction(batch)
                assert list(reduction.generator_columns) == [i for i, c in enumerate(columns) if c[0] >= 0]
                for got, want in zip(reduction.masks, object_product_masks(generators)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert reduction.eigenvalues.tobytes() == object_eigenvalues(columns, len(generators)).tobytes()

    def test_identity_and_product_are_determined(self):
        # 00 is the identity; ZZ = -(XX)(YY) is dependent on the generators XX, YY
        batch = DegreeSet.of(2, [P("00"), P("11"), P("22"), P("33")])
        assert _reduce_batch(batch) == ([1, 2], [0, 1, 2, 3])
        assert _checked_reduction(batch).eigenvalues[0].tolist() == [1, 1, 1, -1]
        rng = np.random.default_rng(41)
        state = random_density(rng, 4)
        n = 2000
        uniforms = rng.random((n, 4))
        groups = [(state, 1.0, np.arange(n // 2)), (state, -1.0, np.arange(n // 2, n))]
        outcomes = measured(groups, batch, uniforms)
        c = np.where(np.arange(n) < n // 2, 1, -1)
        assert np.array_equal(outcomes[:, 0], c)
        assert np.array_equal(outcomes[:, 3], -c * outcomes[:, 1] * outcomes[:, 2])
        # the generators are still random
        assert 0 < np.mean(outcomes[:, 1] == 1) < 1
        assert np.array_equal(outcomes, collapse_measure_batch_groups(groups, batch, uniforms))

    def test_zero_mass_prefix_raises(self):
        prepared = prepare_batch(DegreeSet.of(1, [P("3")]), (np.zeros((2, 2)),))
        samples = (np.zeros(3, dtype=np.int8), np.ones(3, dtype=np.int8))
        with pytest.raises(ValueError, match="zero probability"):
            measure_batch_groups(samples, prepared, np.zeros((3, 1)))

    def test_probability_below_floor_raises(self):
        # a "state" with a negative eigenvalue gives a negative branch probability
        prepared = prepare_batch(DegreeSet.of(1, [P("3")]), (np.diag([1.5, -0.5]).astype(complex),))
        samples = (np.zeros(2, dtype=np.int8), np.zeros(2, dtype=np.int8))
        with pytest.raises(ValueError, match="below"):
            measure_batch_groups(samples, prepared, np.zeros((2, 1)))

    def test_table_path_errors_only_for_samples_that_reach_them(self):
        # state 1 has no mass at all, so every entry of its rows is NaN
        batch = DegreeSet.of(2, [P("30"), P("03"), P("33")])
        good = random_density(np.random.default_rng(43), 4)
        prepared = prepare_batch(batch, (good, np.zeros((4, 4))))
        assert not np.isnan(prepared.probs[:2, 1: 1 << prepared.reduction.rank]).any()
        assert np.isnan(prepared.probs[2:]).all()
        uniforms = np.random.default_rng(44).random((6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        fine = [(good, -1.0, np.arange(3)), (good, 1.0, np.arange(3, 6))]
        on_good = measure_batch_groups((np.zeros(6, dtype=np.int8), labels), prepared, uniforms)
        assert np.array_equal(on_good, measure_groups(fine, batch, uniforms)[0])
        with pytest.raises(ValueError, match="zero probability"):
            measure_batch_groups((np.array([0, 0, 0, 1, 1, 1]), labels), prepared, uniforms)
        # a basis state leaves prefixes without mass, which no sample
        # reaches; the table engine agrees, and raises on the empty state too
        pure = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        assert np.isnan(prepare_batch(batch, (pure,)).probs[:, 2:4]).any()
        on_pure = [(pure, c, idx) for _, c, idx in fine]
        assert np.array_equal(measured(on_pure, batch, uniforms),
                              table_measure_batch_groups(on_pure, batch, uniforms))
        with pytest.raises(ValueError, match="zero probability"):
            table_measure_batch_groups(on_pure[:1] + [(np.zeros((4, 4)), 1.0, np.arange(3, 6))],
                                       batch, uniforms)
        # a negative eigenvalue: outcome +1 has probability 1.5 under label
        # sign +1 and -0.5 under -1; only the samples of sign -1 raise
        broken = prepare_batch(DegreeSet.of(1, [P("3")]), (np.diag([1.5, -0.5]).astype(complex),))
        assert broken.probs[:, 1].tolist() == [-0.5, 1.5]
        bases = np.zeros(4, dtype=np.int8)
        ones = measure_batch_groups((bases, np.ones(4, dtype=np.int8)), broken, np.full((4, 1), 0.999))
        assert (broken.reduction.eigenvalues[ones] == 1).all()
        with pytest.raises(ValueError, match="below"):
            measure_batch_groups((bases, np.array([1, 1, 1, 0], dtype=np.int8)),
                                 broken, np.full((4, 1), 0.999))

    def test_samples_must_cover_every_row(self):
        # each row of uniforms is one sample, with one base and one label,
        # so no row can be left out or measured twice
        prepared = make_bell_source().prepared_batches((DegreeSet.of(2, [P("30")]),))[0]
        zeros = np.zeros(3, dtype=np.int8)
        for samples in ((zeros, zeros[:2]), (zeros[:2], zeros), (zeros[:2], zeros[:2])):
            with pytest.raises(ValueError, match="same length"):
                measure_batch_groups(samples, prepared, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="same length"):
            measure_batch_groups((zeros, zeros), prepared, np.zeros((4, 1)))

    @pytest.mark.parametrize("sign", [0.5, 0.0, -2.0, 3, float("nan")])
    def test_label_sign_must_be_unit(self, sign):
        # label sign 2 label - 1 is +-1 exactly when the label is 0 or 1
        prepared = make_bell_source().prepared_batches((DegreeSet.of(2, [P("30")]),))[0]
        labels = np.full(2, (1 + sign) / 2)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            measure_batch_groups((np.zeros(2, dtype=np.int8), labels), prepared, np.zeros((2, 1)))

    def test_bases_must_name_prepared_states(self):
        # a source's batch is prepared on two states; take would wrap base -1
        prepared = make_bell_source().prepared_batches((DegreeSet.of(2, [P("30")]),))[0]
        for base in (-1, 2, 127):
            bases = np.array([0, base, 1], dtype=np.int8)
            with pytest.raises(ValueError, match="bases must lie in"):
                measure_batch_groups((bases, np.zeros(3, dtype=np.int8)), prepared, np.zeros((3, 1)))


def random_state(rng, n, rank):
    """Density operator ``A A^dagger / tr`` of the given rank."""
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def string_of(d, x, z):
    """The string with symplectic masks ``(x|z)``."""
    bits = [(x >> (d - 1 - j) & 1, z >> (d - 1 - j) & 1) for j in range(d)]
    return PauliString(tuple({(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[b] for b in bits))


def random_batch(rng, d, r, products):
    """A commuting batch of rank r: r random independent commuting strings,
    ``products`` strings that multiply random subsets of them (the identity
    for the empty subset) and, with probability 1/2 or when there is no other
    string, the identity."""
    gens = []
    pivots = {}  # pivot bit -> vector, for the GF(2) rank
    while len(gens) < r:
        x, z = (int(v) for v in rng.integers(0, 1 << d, size=2))
        # strings commute when their symplectic product is even
        if any((bin(x & gz).count("1") + bin(z & gx).count("1")) % 2 for gx, gz in gens):
            continue
        v = (x << d) | z
        while v and (v.bit_length() - 1) in pivots:
            v ^= pivots[v.bit_length() - 1]
        if v:
            pivots[v.bit_length() - 1] = v
            gens.append((x, z))
    strings = [string_of(d, x, z) for x, z in gens]
    for _ in range(products):
        x = z = 0
        for g, (gx, gz) in enumerate(gens):
            if rng.random() < 0.5:
                x, z = x ^ gx, z ^ gz
        strings.append(string_of(d, x, z))
    if not strings or rng.random() < 0.5:
        strings.append(PauliString.identity(d))
    return DegreeSet.of(d, strings)


def random_groups(rng, d, n):
    """One to four groups on one or two random states of random rank, some
    pairs of groups sharing a state under both label signs, over a random
    partition of n rows."""
    states = [random_state(rng, 1 << d, int(rng.integers(1, (1 << d) + 1))) for _ in range(2)]
    pairs = [(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0)]
    count = int(rng.integers(1, 5))
    chosen = [pairs[i] for i in rng.choice(4, size=count, replace=False)]
    cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1, replace=False))
    parts = np.split(rng.permutation(n), cuts)
    return [(states[i], c, idx) for (i, c), idx in zip(chosen, parts)]


def stabilizer_state(rng, batch):
    """A pure joint eigenvector of the d generators of a rank-d batch: the
    batch's outcomes are determined on it, so every outcome prefix but one
    has no mass.  Its entries are 0 or of modulus 2^-d."""
    d = batch.d
    proj = np.eye(1 << d, dtype=complex)
    for s in (batch.strings[c] for c in _checked_reduction(batch).generator_columns):
        proj = proj @ (np.eye(1 << d) + rng.choice((-1, 1)) * pauli_matrix(s)) / 2
    return proj


def dyadic_diagonal_state(rng, d):
    """The uniform mixture of 2^j random basis states, as a classical parity
    source's states are: every trace sum of it is exact."""
    j = int(rng.integers(0, d + 1))
    diag = np.zeros(1 << d)
    diag[rng.choice(1 << d, size=1 << j, replace=False)] = 2.0**-j
    return np.diag(diag).astype(complex)


def assert_matches_trace_oracle(batches, states, exact):
    """``prepare_batches`` of all batches at once against the per-product
    trace oracle, batch by batch: the rows of each state marked exact bit
    for bit, every other row within 1e-14 with NaN at the same entries.  The
    spectrum sums the traces in another order than one gather per product,
    so only exact sums give the same bits."""
    prepared = prepare_batches(batches, states)
    assert [p.reduction for p in prepared] == [_checked_reduction(b) for b in batches]
    for batch, got in zip(batches, prepared):
        want = table_prepare_batch(batch, states).probs
        assert got.probs.shape == want.shape
        for i, bits in enumerate(exact):
            rows = slice(2 * i, 2 * i + 2)
            if bits:
                assert got.probs[rows].tobytes() == want[rows].tobytes()
            else:
                assert np.array_equal(np.isnan(got.probs[rows]), np.isnan(want[rows]))
                assert np.nan_to_num(np.abs(got.probs[rows] - want[rows])).max() <= 1e-14


class TestPrepareBatches:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_trace_oracle(self, d):
        # every rank 0..d twice, in one call, on dense mixed and pure states,
        # a pure state with zero-mass prefixes, and diagonal states
        rng = np.random.default_rng(120 + d)
        batches = list(dict.fromkeys(
            random_batch(rng, d, r, int(rng.integers(0, 6))) for r in [*range(d + 1)] * 2
        ))
        full_rank = next(b for b in batches if _checked_reduction(b).rank == d)
        basis = np.zeros((1 << d, 1 << d), dtype=complex)
        basis[-1, -1] = 1.0
        states = [
            random_state(rng, 1 << d, 1 << d),
            random_state(rng, 1 << d, 1),
            stabilizer_state(rng, full_rank),
            dyadic_diagonal_state(rng, d),
            basis,
            np.diag(rng.dirichlet(np.ones(1 << d))).astype(complex),
        ]
        assert_matches_trace_oracle(batches, states, exact=[False, False, False, True, True, False])
        # past one qubit, the stabilizer state leaves prefixes without mass
        inner = prepare_batches([full_rank], states)[0].probs[4:6, 1: 1 << d]
        assert d == 1 or np.isnan(inner).any()

    def test_parity_source_is_bit_for_bit(self):
        source = make_parity_source(5, (0, 3))
        batches = learner._plan(degree_set_upto(5, 2), 2000, 0.05, "greedy")[0].subsets
        assert_matches_trace_oracle(batches, (source.rho0, source.rho1), exact=[True, True])

    def test_batches_prepared_together_or_alone_agree(self):
        # a source prepares what its memo lacks in one call; every batch gets
        # the same table as alone, and a memoized batch is not built again
        rng = np.random.default_rng(130)
        source = make_custom_source(0.3, random_density(rng, 16), random_density(rng, 16))
        batches = [random_batch(rng, 4, r, 3) for r in (2, 4, 2, 0)]
        first = source.prepared_batches((batches[1],))[0]
        together = source.prepared_batches(batches + batches[:1])
        assert together[1] is first and together[4] is together[0]
        for batch, got in zip(batches, together):
            alone = prepare_batch(batch, (source.rho0, source.rho1))
            assert got.probs.tobytes() == alone.probs.tobytes()
        assert prepare_batches([], (source.rho0,)) == []
        with pytest.raises(ValueError, match="commute"):
            source.prepared_batches([batches[2], DegreeSet.of(4, [P("1000"), P("3000")])])
        assert len(source._memo) == 4


class TestEigenvalueWalk:
    def test_matches_table_engine(self):
        # differential: the generator walk with its eigenvalue table against
        # the per-column table engine it replaced, outcome for outcome
        rng = np.random.default_rng(70)
        negative = identity = flipped = 0
        for d in range(1, 6):
            for r in range(d + 1):
                for _ in range(4):
                    batch = random_batch(rng, d, r, int(rng.integers(0, 6)))
                    reduction = _checked_reduction(batch)
                    assert reduction.rank == r
                    # E[0, l] is string l's sign
                    negative += int((reduction.eigenvalues[0] < 0).sum())
                    identity += PauliString.identity(d) in batch
                    n = 80
                    groups = random_groups(rng, d, n)
                    flipped += len({id(state) for state, _, _ in groups}) < len(groups)
                    uniforms = rng.random((n, len(batch)))
                    prefixes, outcomes = measure_groups(groups, batch, uniforms)
                    assert prefixes.dtype == np.int64
                    assert prefixes.min() >= 0 and prefixes.max() < 1 << r
                    want = table_measure_batch_groups(groups, batch, uniforms)
                    assert outcomes.dtype == want.dtype == np.int8
                    assert np.array_equal(outcomes, want)
                    states = list({id(state): state for state, _, _ in groups}.values())
                    assert_matches_trace_oracle([batch], states, exact=[False] * len(states))
        # the cases cover strings of sign -1, the identity and label flips
        assert negative > 0 and identity > 0 and flipped > 0

    def test_eigenvalue_table_matches_dense_projections(self):
        # E[p, l] is the eigenvalue of string l on the joint eigenspace where
        # generator g has eigenvalue (-1)^(bit g of p)
        rng = np.random.default_rng(71)
        for d in range(1, 5):
            for r in range(d + 1):
                batch = random_batch(rng, d, r, 4)
                reduction = _checked_reduction(batch)
                table = reduction.eigenvalues
                assert table.shape == (1 << r, len(batch)) and table.dtype == np.int8
                for p in range(1 << r):
                    proj = np.eye(1 << d, dtype=complex)
                    for g, col in enumerate(reduction.generator_columns):
                        s = batch.strings[col]
                        proj = proj @ (np.eye(1 << d) + (-1) ** (p >> g & 1) * pauli_matrix(s)) / 2
                    for col, s in enumerate(batch):
                        assert np.abs(pauli_matrix(s) @ proj - table[p, col] * proj).max() <= 1e-12


class TestRealizableDiagonal:
    def test_diagonal_states_match_spectral_path(self):
        # bit for bit against eigh, on truth tables of d = 1..8 including
        # constant ones (a degenerate source) and nearly constant ones
        rng = np.random.default_rng(74)
        for d in range(1, 9):
            tables = [[0] * (1 << d), [1] * (1 << d)]
            tables += [(rng.random(1 << d) < q).astype(int).tolist() for q in (0.02, 0.5, 0.5, 0.98)]
            for table in tables:
                f_op = classical_embedding(table)
                source = make_realizable_source(f_op)
                rho0, rho1 = eigh_realizable_states(f_op)
                assert source.rho0.tobytes() == rho0.tobytes()
                assert source.rho1.tobytes() == rho1.tobytes()
                assert source.degenerate == (len(set(table)) == 1)
                assert source.p0 == 1.0 - sum(table) / len(table)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_diagonal_path_matches_dense_construction(self, d):
        # byte for byte against the construction on the dense matrix: truth
        # tables (constant ones included), diagonals within the tolerances
        # of +-1 (entries off by up to 4e-9 and imaginary parts of 2e-11),
        # and a diagonal whose off-diagonal entries are all -0.0
        rng = np.random.default_rng(170 + d)
        n = 1 << d
        signs = [np.full(n, -1.0), np.ones(n)]
        signs += [np.where(rng.random(n) < q, 1.0, -1.0) for q in (0.02, 0.5, 0.98)]
        cases = [classical_embedding((s > 0).astype(int)) for s in signs]
        for s in signs[1:4]:
            near = s * (1.0 + rng.uniform(-4e-9, 4e-9, size=n)) + 2e-11j * rng.uniform(-1, 1, size=n)
            cases.append(np.diag(near))
        negative_zeros = np.full((n, n), complex(-0.0, -0.0))
        np.fill_diagonal(negative_zeros, signs[2])
        cases.append(negative_zeros)
        for f_op in cases:
            got, want = make_realizable_source(f_op), dense_realizable_source(f_op)
            assert got.rho0.tobytes() == want.rho0.tobytes()
            assert got.rho1.tobytes() == want.rho1.tobytes()
            for name in ("realizable", "d", "p0", "maximally_mixed", "degenerate"):
                assert getattr(got, name) == getattr(want, name), name
        classical = make_classical_source((signs[2] > 0).astype(int))
        want = dense_realizable_source(classical_embedding((signs[2] > 0).astype(int)))
        assert classical.realizable
        assert (classical.rho0.tobytes(), classical.rho1.tobytes()) == (want.rho0.tobytes(), want.rho1.tobytes())

    def test_classical_source_skips_the_dense_embedding(self):
        # bit for bit the source of the dense classical embedding, on truth
        # tables of d = 1..8, constant (degenerate) ones included
        rng = np.random.default_rng(75)
        for d in range(1, 9):
            tables = [[0] * (1 << d), [1] * (1 << d)]
            tables += [(rng.random(1 << d) < q).astype(int).tolist() for q in (0.02, 0.5, 0.98)]
            for table in tables:
                got = make_classical_source(table)
                want = make_realizable_source(classical_embedding(table))
                assert got.realizable
                assert got.rho0.tobytes() == want.rho0.tobytes()
                assert got.rho1.tobytes() == want.rho1.tobytes()
                for name in ("d", "p0", "maximally_mixed", "degenerate"):
                    assert getattr(got, name) == getattr(want, name), name
                assert got.degenerate == (len(set(table)) == 1)

    def test_checks_still_run(self):
        with pytest.raises(ValueError, match=r"\+-1 operator"):
            make_realizable_source(np.diag([1.0, -1.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match=r"\+-1 operator"):
            make_realizable_source(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="Hermitian"):
            make_realizable_source(np.diag([1.0, 1j]))
        with pytest.raises(ValueError, match=r"\+-1 operator"):
            make_realizable_source(0.9 * pauli_matrix(P("1")))

    def test_diagonal_checks_match_dense_ones(self):
        # each error a diagonal F can raise, with the dense construction's
        # message and, where the oracle words it alike, its value
        bad = [
            ("Hermitian", np.diag([1.0, -1.0 + 1e-9j])),
            (r"max \|F\^2 - I\| = 1\.000e-06", np.diag([1.0, -1.0, 1.0, 1.0 + 5e-7])),
            ("non-finite", np.diag([1.0, np.nan])),
            ("power of two", np.diag([1.0, -1.0, 1.0])),
            ("d must be >= 1", np.array([[1.0]])),
            ("d must be >= 1", np.array([[-1.0]])),
        ]
        for match, f_op in bad:
            with pytest.raises(ValueError, match=match):
                make_realizable_source(f_op)
            if match != "power of two":
                with pytest.raises(ValueError):
                    dense_realizable_source(f_op)
        # a non-diagonal Hermitian reaches the dense checks, also when its
        # first row is diagonal
        f_op = np.kron(np.eye(2), pauli_matrix(P("1")))
        f_op[0, 1] = f_op[1, 0] = 0.0
        with pytest.raises(ValueError, match=r"\+-1 operator"):
            make_realizable_source(f_op)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_diagonal_at_the_tolerance_keeps_its_eigenspace_dimension(self, d):
        # the (2^d + tr F)/2 check cannot fire on a diagonal F: the entrywise
        # F^2 check keeps each entry within SIGN_OPERATOR_TOL / 2 of +-1, so
        # (2^d + tr F)/2 is within 2^d * SIGN_OPERATOR_TOL / 4 of n_+; at the
        # edge of that tolerance n_+ is still the count of +1 entries
        n = 1 << d
        signs = np.where(np.random.default_rng(180 + d).random(n) < 0.5, 1.0, -1.0)
        for shift in (4.9e-9, -4.9e-9):
            f = signs * (1.0 + shift)
            assert np.abs(f * f - 1.0).max() <= SIGN_OPERATOR_TOL
            source = make_realizable_source(np.diag(f))
            assert source.p0 == 1.0 - np.count_nonzero(signs > 0) / n
            assert source.rho0.tobytes() == dense_realizable_source(np.diag(f)).rho0.tobytes()


class TestRealizableStates:
    def test_states_match_eigh_projections(self):
        # differential against the normalized eigenvector projections, for
        # d = 1..8: random non-diagonal +-1 operators of several balances,
        # their noisy sources, and the degenerate F = +-I
        rng = np.random.default_rng(76)
        for d in range(1, 9):
            n = 1 << d
            cases = [(np.eye(n), n), (-np.eye(n), 0)]
            for n_plus in sorted({1, int(rng.integers(0, n + 1)), n // 2, n - 1}):
                q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                signs = np.where(np.arange(n) < n_plus, 1.0, -1.0)
                f_op = (q * signs) @ q.conj().T
                cases.append(((f_op + f_op.conj().T) / 2, n_plus))
            for f_op, n_plus in cases:
                rho0, rho1 = eigh_realizable_states(f_op)
                for source in (make_realizable_source(f_op), make_noisy_source(f_op, 0.1)):
                    assert np.abs(source.rho0 - rho0).max() <= 1e-14
                    assert np.abs(source.rho1 - rho1).max() <= 1e-14
                    assert source.p0 == 1.0 - n_plus / n
                    assert source.degenerate == (n_plus in (0, n))
                    assert source.maximally_mixed

    def test_eigenspace_dimension_is_checked(self):
        # a shifted reflection passes the entrywise F^2 check, since its
        # entries are small, but its trace puts n_+ off an integer
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        f_op = functools.reduce(np.kron, [h] * 8)
        shifted = f_op + 7e-8 * np.eye(256)
        assert np.abs(shifted @ shifted - np.eye(256)).max() <= 1e-8
        make_realizable_source(f_op)
        with pytest.raises(ValueError, match="eigenspace dimension"):
            make_realizable_source(shifted)


class TestSourceMemo:
    def test_prepared_batch_matches_per_state_law(self):
        # differential: a source's prepared batch on its sample arrays
        # against the batch prepared on the groups' states
        rng = np.random.default_rng(42)
        for d in range(1, 5):
            source = make_custom_source(0.4, random_density(rng, 1 << d), random_density(rng, 1 << d))
            bases, labels = draw_samples(source, 200, RandomStreams(d).generator(0))
            by_state = sample_groups((source.rho0, source.rho1), bases, labels)
            for batch in k2_cliques(d):
                uniforms = rng.random((200, len(batch)))
                prepared = source.prepared_batches((batch,))[0]
                assert prepared is source.prepared_batches((batch,))[0]
                assert prepared.reduction.rank == len(_reduce_batch(batch)[0])
                assert np.array_equal(
                    measure_batch_groups((bases, labels), prepared, uniforms),
                    measure_groups(by_state, batch, uniforms)[0],
                )

    def test_with_flip_rate_starts_empty(self):
        source = make_parity_source(2, (0, 1))
        batch = DegreeSet.of(2, [P("33")])
        source.prepared_batches((batch,))
        source.exact_table(degree_set_upto(2, 1))
        assert len(source._memo) == 2
        assert source.with_flip_rate(0.1)._memo == {}
        assert source.with_flip_rate(0.0)._memo == {}

    def test_concurrent_builds_run_once_per_key(self):
        source = make_parity_source(2, (0, 1))
        built = []
        lock = threading.Lock()

        def build(key):
            time.sleep(1e-3)  # a build slow enough for other threads to arrive
            with lock:
                built.append(key)
            return key

        wrong = []

        def work():
            for i in range(200):
                if source.memoized(("stress", i % 20), lambda: build(i % 20)) != i % 20:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert sorted(built) == list(range(20))


class TestSourceFiles:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(18)
        m = random_density(rng, 4)
        assert np.array_equal(matrix_from_text(matrix_to_text(m)), m)

    def test_custom_source_file(self, tmp_path, bell_source):
        save_matrix(tmp_path / "r0.mat", bell_source.rho0)
        save_matrix(tmp_path / "r1.mat", bell_source.rho1)
        (tmp_path / "bell.src").write_text(
            "kind = custom\nd = 2\np0 = 0.5\nrho0 = r0.mat\nrho1 = r1.mat\n"
        )
        source = load_source(tmp_path / "bell.src")
        assert not source.realizable
        assert abs(source.exact_coefficient(P("22")) - 0.5) <= 1e-12

    def test_classical_source_file(self, tmp_path):
        (tmp_path / "f.src").write_text("kind = classical\nd = 2\ntruth_table = 0110\n")
        source = load_source(tmp_path / "f.src")
        assert source.realizable
        assert abs(source.exact_coefficient(P("33")) + 1.0) <= 1e-12

    def test_realizable_and_noisy_source_files(self, tmp_path):
        table = FourierTable.of(1, {P("3"): 1.0})
        table.save(tmp_path / "z.ftab")
        (tmp_path / "r.src").write_text("kind = realizable\nd = 1\nftab = z.ftab\n")
        (tmp_path / "n.src").write_text("kind = noisy\nd = 1\nftab = z.ftab\neta = 0.25\n")
        realizable = load_source(tmp_path / "r.src")
        noisy = load_source(tmp_path / "n.src")
        assert abs(realizable.exact_coefficient(P("3")) - 1.0) <= 1e-12
        assert abs(noisy.exact_coefficient(P("3")) - 0.5) <= 1e-12

    def test_unknown_kind(self, tmp_path):
        (tmp_path / "bad.src").write_text("kind = wat\nd = 1\n")
        with pytest.raises(ValueError, match="kind"):
            load_source(tmp_path / "bad.src")

    def test_dimension_mismatch(self, tmp_path):
        (tmp_path / "bad.src").write_text("kind = classical\nd = 3\ntruth_table = 0110\n")
        with pytest.raises(ValueError, match="length"):
            load_source(tmp_path / "bad.src")
