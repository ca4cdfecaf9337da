"""Pauli strings, the operator expansion, degree sets, and classical embedding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfl.operators import maximally_mixed, rho_norm
from qfl.pauli import (
    DegreeSet,
    FourierTable,
    PauliString,
    apply_pauli,
    classical_embedding,
    degree_set_classical_upto,
    degree_set_upto,
    degree_set_within,
    fourier_coefficient,
    fourier_transform,
    full_degree_set,
    pauli_expectation,
    pauli_matrix,
    synthesize,
)

from conftest import random_hermitian, random_string
from oracles import pauli_apply_left, pauli_apply_right

SIGMA = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(s: PauliString) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for sym in s.symbols:
        out = np.kron(out, SIGMA[sym])
    return out


symbols_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple)


class TestPauliString:
    def test_mask_encoding(self):
        s = PauliString((1, 2, 3, 0))
        assert s.x_mask == 0b1100
        assert s.z_mask == 0b0110
        assert s.y_count == 1

    def test_support_and_weight(self):
        s = PauliString((0, 3, 0, 1))
        assert s.support == (1, 3)
        assert s.weight == 2
        assert not s.is_classical
        assert PauliString((0, 3, 0, 3)).is_classical

    def test_digit_round_trip(self):
        s = PauliString.from_digits("0312")
        assert str(s) == "0312"

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            PauliString((4,))
        with pytest.raises(ValueError):
            PauliString(())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symbols_strategy)
    def test_mask_round_trip(self, symbols):
        s = PauliString(symbols)
        d = len(symbols)
        rebuilt = []
        for j in range(d):
            bit = 1 << (d - 1 - j)
            x, z = bool(s.x_mask & bit), bool(s.z_mask & bit)
            rebuilt.append({(False, False): 0, (True, False): 1, (True, True): 2, (False, True): 3}[(x, z)])
        assert tuple(rebuilt) == symbols


class TestPauliMatrix:
    def test_single_qubit_table(self):
        for sym, want in SIGMA.items():
            assert np.array_equal(pauli_matrix(PauliString((sym,))), want)

    def test_z_is_diag(self):
        assert np.array_equal(pauli_matrix(PauliString((3,))), np.diag([1.0 + 0j, -1.0]))

    def test_identity_string(self):
        assert np.array_equal(pauli_matrix(PauliString((0, 0))), np.eye(4))

    def test_xy_matches_kron(self):
        # hand-built Kronecker oracle
        want = np.kron(SIGMA[1], SIGMA[2])
        assert np.abs(pauli_matrix(PauliString((1, 2))) - want).max() == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(symbols_strategy)
    def test_matches_kron_oracle(self, symbols):
        s = PauliString(symbols)
        assert np.abs(pauli_matrix(s) - kron_oracle(s)).max() <= 1e-14

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(symbols_strategy)
    def test_hermitian_involution(self, symbols):
        m = pauli_matrix(PauliString(symbols))
        assert np.abs(m - m.conj().T).max() == 0.0
        assert np.abs(m @ m - np.eye(m.shape[0])).max() <= 1e-14


class TestApplyPauli:
    def test_identity_action(self):
        v = np.array([0.3, -0.1, 0.2, 0.9], dtype=complex)
        assert np.array_equal(apply_pauli(PauliString((0, 0)), v), v)

    def test_bit_flip(self):
        assert np.array_equal(apply_pauli(PauliString((1,)), [1, 0]), np.array([0, 1], dtype=complex))

    def test_matches_dense_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            s = random_string(rng, d)
            v = rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d)
            assert np.abs(apply_pauli(s, v) - pauli_matrix(s) @ v).max() <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            apply_pauli(PauliString((1, 0)), [1, 0])

    def test_left_right_application(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            s = random_string(rng, d)
            m = rng.normal(size=(1 << d, 1 << d)) + 1j * rng.normal(size=(1 << d, 1 << d))
            dense = pauli_matrix(s)
            assert np.abs(pauli_apply_left(s, m) - dense @ m).max() <= 1e-12
            assert np.abs(pauli_apply_right(s, m) - m @ dense).max() <= 1e-12
            assert abs(pauli_expectation(s, m) - np.trace(dense @ m)) <= 1e-12

    def test_stacked_application(self):
        rng = np.random.default_rng(13)
        s = random_string(rng, 3)
        stack = rng.normal(size=(5, 8, 8)) + 1j * rng.normal(size=(5, 8, 8))
        dense = pauli_matrix(s)
        left = pauli_apply_left(s, stack)
        for g in range(5):
            assert np.abs(left[g] - dense @ stack[g]).max() <= 1e-12
        traces = pauli_expectation(s, stack)
        for g in range(5):
            assert abs(traces[g] - np.trace(dense @ stack[g])) <= 1e-12


class TestFourier:
    def test_orthonormal_coefficients(self):
        a = np.kron(SIGMA[3], SIGMA[0])
        for s in full_degree_set(2):
            want = 1.0 if s.symbols == (3, 0) else 0.0
            assert abs(fourier_coefficient(a, s) - want) <= 1e-14

    def test_identity_coefficient(self):
        assert fourier_coefficient(np.eye(8), PauliString((0, 0, 0))) == 1.0
        assert fourier_coefficient(np.eye(8), PauliString((3, 0, 0))) == 0.0

    def test_parseval(self):
        # oracle: direct trace of A^2 against the maximally mixed state
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, 8)
        table = fourier_transform(a, full_degree_set(3))
        want = rho_norm(a, 2, maximally_mixed(3)) ** 2
        assert abs(table.power() - want) <= 1e-8

    def test_imaginary_residue_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="residue"):
            fourier_coefficient(bad, PauliString((2,)))

    def test_permutation_path_matches_dense_trace(self):
        # the O(2^d) extraction agrees with a full matrix product
        rng = np.random.default_rng(19)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            a = random_hermitian(rng, 1 << d)
            s = random_string(rng, d)
            dense = np.trace(a @ kron_oracle(s)).real / (1 << d)
            assert abs(fourier_coefficient(a, s) - dense) <= 1e-12

    def test_round_trip_yy_exact(self):
        a = np.kron(SIGMA[2], SIGMA[2])
        back = synthesize(fourier_transform(a, full_degree_set(2)))
        assert np.abs(back - a).max() == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(15)
        a = random_hermitian(rng, 16)
        back = synthesize(fourier_transform(a, full_degree_set(4)))
        assert np.abs(back - a).max() <= 1e-8

    def test_synthesize_discrimination_table(self):
        table = FourierTable(2, {PauliString((2, 2)): 0.5, PauliString((1, 1)): -0.5})
        want = np.zeros((4, 4), dtype=complex)
        want[3, 0] = want[0, 3] = -1.0
        assert np.abs(synthesize(table) - want).max() <= 1e-14

    def test_junta_support_vanishes(self):
        # operator acting only on coordinates {1, 2} of three qubits
        rng = np.random.default_rng(16)
        a = np.kron(np.eye(2), random_hermitian(rng, 4))
        for s in full_degree_set(3):
            if not set(s.support) <= {1, 2}:
                assert abs(fourier_coefficient(a, s)) <= 1e-10


class TestDegreeSets:
    def test_sizes(self):
        assert len(degree_set_upto(2, 0)) == 1
        assert len(degree_set_upto(2, 1)) == 7
        assert len(degree_set_upto(4, 2)) == 1 + 4 * 3 + 6 * 9
        assert len(degree_set_classical_upto(3, 3)) == 8
        assert len(full_degree_set(3)) == 64

    def test_bad_k(self):
        with pytest.raises(ValueError):
            degree_set_upto(2, 3)

    def test_order_is_lexicographic(self):
        ds = degree_set_upto(2, 2)
        names = [str(s) for s in ds]
        assert names == sorted(names)

    def test_within(self):
        ds = degree_set_within(3, (1,))
        assert {str(s) for s in ds} == {"000", "010", "020", "030"}

    def test_dedup(self):
        ds = DegreeSet.of(1, [PauliString((3,)), PauliString((3,))])
        assert len(ds) == 1


class TestRestriction:
    def _table(self):
        rng = np.random.default_rng(17)
        return fourier_transform(random_hermitian(rng, 8), full_degree_set(3))

    def test_empty_coords(self):
        kept = self._table().restricted_to_coords(())
        assert [str(s) for s, _ in kept.items()] == ["000"]

    def test_all_coords(self):
        table = self._table()
        assert table.restricted_to_coords(range(3)).items() == table.items()

    def test_single_coordinate(self):
        kept = self._table().restricted_to_coords((1,))
        for s, _ in kept.items():
            assert set(s.support) <= {1}
        assert len(kept) == 4

    @pytest.mark.parametrize("coords", [(1,), (0, 2), (2, 0), (0, 1, 2)])
    def test_block_is_the_restriction_on_its_coordinates(self, coords):
        table = self._table()
        block = table.block(coords)
        assert block.d == len(coords)
        # move the block's coordinates first; the restriction is then block (x) I
        order = list(coords) + [q for q in range(3) if q not in coords]
        dense = synthesize(table.restricted_to_coords(coords)).reshape([2] * 6)
        moved = dense.transpose(order + [3 + q for q in order]).reshape(8, 8)
        want = np.kron(synthesize(block), np.eye(1 << (3 - len(coords))))
        assert np.abs(moved - want).max() <= 1e-12

    @pytest.mark.parametrize("coords", [(), (1, 1), (3,), (-1,)])
    def test_block_rejects_bad_coords(self, coords):
        with pytest.raises(ValueError, match="coordinates"):
            self._table().block(coords)


class TestClassicalEmbedding:
    def test_constant_zero(self):
        op = classical_embedding([0, 0])
        assert np.array_equal(op, -np.eye(2))
        assert fourier_coefficient(op, PauliString((0,))) == -1.0

    def test_first_bit_function(self):
        # f(x) = x_0 on one qubit: diag(-1, +1), single coefficient -1 at Z
        op = classical_embedding([0, 1])
        assert np.array_equal(op, np.diag([-1.0 + 0j, 1.0]))
        assert fourier_coefficient(op, PauliString((3,))) == -1.0
        assert fourier_coefficient(op, PauliString((0,))) == 0.0

    def test_parity_two_bits(self):
        op = classical_embedding([0, 1, 1, 0])
        table = fourier_transform(op, full_degree_set(2))
        nonzero = {str(s): c for s, c in table.items() if abs(c) > 1e-14}
        assert nonzero == {"33": -1.0}

    def test_matches_boolean_fourier_oracle(self):
        # oracle: direct 2^d summation of the +-1 label against parity characters
        rng = np.random.default_rng(18)
        d = 3
        truth = rng.integers(0, 2, size=1 << d)
        signs = np.where(truth == 1, 1.0, -1.0)
        op = classical_embedding(truth)
        for s in full_degree_set(d):
            got = fourier_coefficient(op, s)
            if s.is_classical:
                chi = np.array([(-1) ** bin(x & s.z_mask).count("1") for x in range(1 << d)])
                assert abs(got - float(np.mean(signs * chi))) <= 1e-12
            else:
                assert abs(got) <= 1e-12

    def test_malformed_table(self):
        with pytest.raises(ValueError):
            classical_embedding([0, 1, 1])
        with pytest.raises(ValueError):
            classical_embedding([0, 2])


class TestTableSerialization:
    def test_text_round_trip(self, tmp_path):
        table = FourierTable(
            2, {PauliString((2, 2)): 0.5, PauliString((1, 1)): -0.5, PauliString((0, 0)): 1e-17}
        )
        path = tmp_path / "coeffs.ftab"
        table.save(path)
        back = FourierTable.load(path)
        assert back.d == 2
        assert back.items() == table.items()

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            FourierTable.from_text('"33" 1.0\n')

    def test_iteration_sorted(self):
        table = FourierTable(1, {PauliString((3,)): 1.0, PauliString((1,)): 2.0})
        assert [str(s) for s, _ in table.items()] == ["1", "3"]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FourierTable(1, {PauliString((3,)): float("nan")})
