"""Commutation structure, cover search, scoring, and batch allocation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfl.compatibility import (
    BatchPlan,
    Cover,
    allocate_batches,
    allocation_objective,
    _adjacency_masks,
    batch_weights,
    best_cover,
    check_cover,
    commutation_matrix,
    cover_score,
    singleton_cover,
)
from qfl.pauli import (
    DegreeSet,
    PauliString,
    degree_set_classical_upto,
    degree_set_upto,
    full_degree_set,
    pauli_matrix,
)

from conftest import random_string
from oracles import heap_allocate_batches, object_best_cover, pairwise_commutation, pauli_commute


def dense_commute(s: PauliString, t: PauliString) -> bool:
    a, b = pauli_matrix(s), pauli_matrix(t)
    return bool(np.abs(a @ b - b @ a).max() <= 1e-12)


P = PauliString.from_digits


class TestCommutation:
    def test_xy_anticommute(self):
        assert pauli_commute(P("1"), P("2")) is False
        assert dense_commute(P("1"), P("2")) is False

    def test_two_anticommuting_positions_commute(self):
        assert pauli_commute(P("11"), P("22")) is True
        assert dense_commute(P("11"), P("22")) is True

    def test_identity_commutes_with_everything(self):
        for s in full_degree_set(2):
            assert pauli_commute(P("00"), s)

    def test_exhaustive_d2(self):
        for s in full_degree_set(2):
            for t in full_degree_set(2):
                assert pauli_commute(s, t) == dense_commute(s, t)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pauli_commute(P("1"), P("11"))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_matches_dense_random(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        s, t = random_string(rng, d), random_string(rng, d)
        assert pauli_commute(s, t) == dense_commute(s, t)
        assert pauli_commute(s, t) == pauli_commute(t, s)


class TestGraph:
    def test_single_node(self):
        adjacency = commutation_matrix(DegreeSet.of(1, [P("0")]))
        assert adjacency.shape == (1, 1)
        assert adjacency[0, 0]

    def test_single_qubit_paulis_all_anticommute(self):
        adjacency = commutation_matrix(DegreeSet.of(1, [P("1"), P("2"), P("3")]))
        off = adjacency[~np.eye(3, dtype=bool)]
        assert not off.any()

    def test_diagonal_strings_fully_commute(self):
        assert commutation_matrix(DegreeSet.of(2, [P("30"), P("03"), P("33")])).all()

    def test_matches_pairwise_commute(self):
        for d, k in [(d, min(2, d)) for d in range(1, 8)] + [(5, 3)]:
            nodes = degree_set_upto(d, k)
            adjacency = commutation_matrix(nodes)
            assert np.array_equal(adjacency, pairwise_commutation(nodes.strings))

    @pytest.mark.parametrize("d", [8, 9, 16, 17, 33, 60])
    def test_masks_wider_than_the_qubit_cap(self, d):
        # the matrix reads copies of the masks in the narrowest unsigned type
        # that holds d bits; a cover search is not capped in d
        rng = np.random.default_rng(90 + d)
        nodes = DegreeSet.of(d, {random_string(rng, d) for _ in range(40)})
        assert np.array_equal(commutation_matrix(nodes), pairwise_commutation(nodes.strings))

    def test_masks_match_matrix(self):
        # 190 strings: rows span several 64-bit words
        nodes = degree_set_upto(7, 2)
        adjacency = commutation_matrix(nodes)
        masks = _adjacency_masks(nodes)
        for i, mask in enumerate(masks):
            assert [bool(mask >> j & 1) for j in range(len(nodes))] == adjacency[i].tolist()
            assert mask >> len(nodes) == 0


class TestGreedyCover:
    def test_fully_compatible_single_subset(self):
        nodes = degree_set_classical_upto(3, 3)
        cover = best_cover(nodes, 100, 0.1)
        assert cover.m == 1
        check_cover(cover, nodes)

    def test_pairwise_incompatible_singletons(self):
        nodes = DegreeSet.of(1, [P("1"), P("2"), P("3")])
        for strategy in ("greedy", "exhaustive"):
            cover = best_cover(nodes, 100, 0.1, strategy)
            assert cover.m == 3
            check_cover(cover, nodes)

    def test_cover_rejects_duplicates(self):
        with pytest.raises(ValueError, match="more than one"):
            Cover((DegreeSet.of(1, [P("3")]), DegreeSet.of(1, [P("3")])))

    def test_positions_place_each_subset_in_covered(self):
        cover = best_cover(degree_set_upto(4, 2), 1000, 0.1)
        assert cover.positions is cover.positions
        assert len(cover.positions) == cover.m
        for subset, positions in zip(cover.subsets, cover.positions):
            assert [cover.covered.strings[i] for i in positions] == list(subset)
            assert not positions.flags.writeable
        flat = np.concatenate(cover.positions).tolist()
        assert sorted(flat) == list(range(len(cover.covered)))

    def test_singleton_cover_valid(self):
        nodes = DegreeSet.of(2, [P("11"), P("22"), P("12")])
        cover = singleton_cover(nodes)
        check_cover(cover, nodes)
        assert cover.m == len(nodes)


class TestCoverScore:
    def test_single_singleton_formula(self):
        cover = Cover((DegreeSet.of(1, [P("3")]),))
        n, delta = 250, 0.2
        assert abs(cover_score(cover, n, delta) - math.log(2 / delta) / n) <= 1e-15

    def test_two_singletons_value(self):
        cover = Cover((DegreeSet.of(1, [P("1")]), DegreeSet.of(1, [P("3")])))
        got = cover_score(cover, 100, 0.1)
        want = (2 * math.sqrt(math.log(20) / 100)) ** 2
        assert abs(got - want) <= 1e-12
        # consistency with the summed squared-error bound at the even split
        summed = sum(8 * b / 50 for b in batch_weights(cover, 0.1))
        assert abs(8 * got - summed) <= 1e-12

    def test_doubling_n_halves_score(self):
        cover = Cover((DegreeSet.of(2, [P("30"), P("03")]), DegreeSet.of(2, [P("11")])))
        assert abs(cover_score(cover, 400, 0.05) - cover_score(cover, 200, 0.05) / 2) <= 1e-15

    def test_delta_range(self):
        cover = Cover((DegreeSet.of(1, [P("3")]),))
        with pytest.raises(ValueError, match="delta"):
            cover_score(cover, 10, 1.5)


class TestBestCover:
    def test_fully_compatible_both_strategies(self):
        nodes = degree_set_classical_upto(2, 2)
        for strategy in ("greedy", "exhaustive"):
            cover = best_cover(nodes, 100, 0.1, strategy)
            assert cover.m == 1

    def test_exhaustive_never_worse(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            nodes = DegreeSet.of(3, {random_string(rng, 3) for _ in range(6)})
            greedy = best_cover(nodes, 300, 0.1, "greedy")
            exhaustive = best_cover(nodes, 300, 0.1, "exhaustive")
            assert cover_score(exhaustive, 300, 0.1) <= cover_score(greedy, 300, 0.1) + 1e-12

    def test_no_edges_unique_partition(self):
        nodes = DegreeSet.of(1, [P("1"), P("2"), P("3")])
        cover = best_cover(nodes, 30, 0.1, "exhaustive")
        assert cover.m == 3

    def test_exhaustive_size_cap(self):
        nodes = degree_set_classical_upto(4, 2)  # 11 strings
        assert len(nodes) == 11
        big = DegreeSet.of(4, list(full_degree_set(4))[:13])
        with pytest.raises(ValueError, match="capped"):
            best_cover(big, 100, 0.1, "exhaustive")

    def test_builds_one_cover(self, monkeypatch):
        built = []
        check = Cover.__post_init__
        monkeypatch.setattr(Cover, "__post_init__", lambda self: built.append(check(self)))
        for strategy in ("greedy", "exhaustive"):
            built.clear()
            best_cover(DegreeSet.of(2, [P("11"), P("22"), P("33"), P("30"), P("12")]), 100, 0.1, strategy)
            assert len(built) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        nodes = DegreeSet.of(4, {random_string(rng, 4) for _ in range(9)})
        a = best_cover(nodes, 500, 0.05)
        b = best_cover(nodes, 500, 0.05)
        assert a.to_text() == b.to_text()


def random_degree_set(rng, d, size):
    return DegreeSet.of(d, {random_string(rng, d) for _ in range(size)})


class TestCoverOracle:
    """The index-block search returns the cover of the object-based search,
    which canonicalizes a ``Cover`` per candidate (``oracles.object_best_cover``)."""

    PARAMS = ((100, 0.1), (20_000, 0.05), (600, 0.3))

    def assert_same(self, nodes, strategy="greedy"):
        for n, delta in self.PARAMS:
            got = best_cover(nodes, n, delta, strategy)
            assert got.to_text() == object_best_cover(nodes, n, delta, strategy).to_text()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bounded_degree_sets(self, d):
        # k = 3 as well up to d = 5, where the object search stays fast
        for k in range(min(3 if d <= 5 else 2, d) + 1):
            self.assert_same(degree_set_upto(d, k))
            self.assert_same(degree_set_classical_upto(d, k))

    def test_random_sets(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            self.assert_same(random_degree_set(rng, d, int(rng.integers(1, 60))))

    def test_random_sets_beyond_64_strings(self):
        rng = np.random.default_rng(41)
        sizes = []
        for _ in range(6):
            nodes = random_degree_set(rng, 5, int(rng.integers(70, 200)))
            sizes.append(len(nodes))
            self.assert_same(nodes)
        assert min(sizes) > 64

    def test_exhaustive_random_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            self.assert_same(random_degree_set(rng, d, int(rng.integers(1, 11))), "exhaustive")


def sized_cover(sizes):
    """A cover with the given subset sizes, filled with distinct 8-qubit strings
    (allocation depends only on the sizes)."""
    strings = iter(itertools.product(range(4), repeat=8))
    next(strings)
    return Cover(tuple(
        DegreeSet.of(8, [PauliString(next(strings)) for _ in range(size)]) for size in sizes
    ))


class TestAllocation:
    def test_symmetric_split(self):
        cover = Cover((DegreeSet.of(2, [P("30")]), DegreeSet.of(2, [P("03")])))
        assert allocate_batches(10, cover, 0.1).sizes == (5, 5)

    def test_single_subset_gets_all(self):
        cover = Cover((DegreeSet.of(1, [P("3")]),))
        assert allocate_batches(17, cover, 0.1).sizes == (17,)

    def test_too_few_samples(self):
        cover = Cover((DegreeSet.of(1, [P("1")]), DegreeSet.of(1, [P("3")])))
        with pytest.raises(ValueError, match="at least one sample"):
            allocate_batches(1, cover, 0.1)

    def test_equal_weights_near_even(self):
        cover = Cover(tuple(DegreeSet.of(1, [P(digit)]) for digit in "123"))
        sizes = allocate_batches(100, cover, 0.05).sizes
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_matches_grid_search(self):
        # unit-resolution brute force over the 3-way split
        cover = Cover(
            (
                DegreeSet.of(3, [P("300"), P("030"), P("003"), P("330")]),
                DegreeSet.of(3, [P("033")]),
                DegreeSet.of(3, [P("303")]),
            )
        )
        n, delta = 200, 0.05
        plan = allocate_batches(n, cover, delta)
        got = allocation_objective(plan.sizes, cover, delta)
        best = math.inf
        argbest = None
        for x1 in range(1, n - 1):
            for x2 in range(1, n - x1):
                candidate = (x1, x2, n - x1 - x2)
                value = allocation_objective(candidate, cover, delta)
                if value < best:
                    best, argbest = value, candidate
        assert got <= best + 1e-9
        assert max(abs(a - b) for a, b in zip(plan.sizes, argbest)) <= 1

    def test_real_optimum_proportionality(self):
        # allocations track n * sqrt(w_j) / sum sqrt(w_k) up to rounding
        cover = Cover(
            (
                DegreeSet.of(3, [P("300"), P("030"), P("003"), P("330")]),
                DegreeSet.of(3, [P("033")]),
                DegreeSet.of(3, [P("303")]),
            )
        )
        n, delta = 5000, 0.05
        w = batch_weights(cover, delta)
        ideal = n * np.sqrt(w) / np.sqrt(w).sum()
        sizes = np.array(allocate_batches(n, cover, delta).sizes)
        assert np.abs(sizes - ideal).max() <= 1.0

    def test_plan_total(self):
        assert BatchPlan((3, 4)).total == 7

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=40),
        st.booleans(),
        st.floats(0.001, 0.9),
        st.integers(0, 60_000),
    )
    def test_square_root_start_matches_heap_from_ones(self, sizes, one_big, delta, extra):
        if one_big:
            # one large clique among singletons, the case most prone to overshoot
            sizes = [sizes[0] * 20] + [1] * (len(sizes) - 1)
        cover = sized_cover(sizes)
        n = cover.m + (extra if extra % 3 else extra % 50)
        for budget in (cover.m, n):
            assert allocate_batches(budget, cover, delta) == heap_allocate_batches(budget, cover, delta)


class TestCliqueWitness:
    def test_product_effects_resolve_identity(self):
        # constructive witness that a commuting subset is jointly measurable:
        # the products of its estimation effects are orthogonal projections
        # summing to the identity on the extended system
        from qfl.operators import validate_povm
        from qfl.simulator import estimation_observable

        rng = np.random.default_rng(30)
        for d in (2, 3):
            nodes = DegreeSet.of(d, {random_string(rng, d) for _ in range(6)})
            cover = best_cover(nodes, 100, 0.1, "greedy")
            clique = max(cover.subsets, key=len)
            effects = []
            for w in itertools.product((0, 1), repeat=len(clique)):
                g = np.eye(1 << (d + 1), dtype=complex)
                for choice, s in zip(w, clique):
                    g = g @ estimation_observable(s)[choice]
                effects.append(g)
            assert validate_povm(effects) == []
            for a, b in itertools.combinations(effects, 2):
                assert np.abs(a @ b).max() <= 1e-8
            for g in effects:
                assert np.abs(g @ g - g).max() <= 1e-8


class TestCoverSerialization:
    def test_text_round_trip(self):
        cover = Cover(
            (DegreeSet.of(2, [P("30"), P("03")]), DegreeSet.of(2, [P("11")]))
        )
        back = Cover.from_text(cover.to_text())
        assert back.to_text() == cover.to_text()
        assert back.sizes() == cover.sizes()
