"""Pauli strings, the operator expansion, degree sets, and classical embedding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfl.operators import maximally_mixed, rho_norm
from qfl.pauli import (
    DegreeSet,
    FourierTable,
    PauliString,
    classical_embedding,
    degree_set_classical_upto,
    degree_set_upto,
    degree_set_within,
    fourier_coefficient,
    fourier_transform,
    full_degree_set,
    pauli_masks,
    pauli_matrix,
    spectral_traces,
    synthesize,
    synthesize_stack,
    walsh_hadamard,
)

from conftest import random_hermitian, random_string
from oracles import (
    SINGLE_QUBIT as SIGMA,
    block,
    brute_degree_set,
    kron_pauli,
    ladder_parity,
    pauli_apply_left,
    pauli_apply_right,
    pauli_expectation,
    pauli_traces,
    string_coefficients,
    string_accumulate,
    string_matrix,
    string_synthesize,
)


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

    def test_equal_strings_hash_alike(self):
        a, b = PauliString((0, 2, 3)), PauliString.from_digits("023")
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(((0, 2, 3),))
        assert {a: 1.0}[b] == 1.0
        assert len({a, b, PauliString((0, 2, 1))}) == 2
        # the hash is a field taken at construction, not compared or printed
        assert "_hash" not in repr(a)
        assert PauliString((0, 2, 1)) < a

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_text_is_built_once_from_the_symbols(self, d):
        for s in full_degree_set(d).strings:
            text = str(s)
            assert text == "".join(map(str, s.symbols))
            assert PauliString.from_digits(text) == s
            assert str(s) is text
        # the text is a field taken at construction, not compared or printed
        assert "_text" not in repr(s)

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
        assert np.abs(pauli_matrix(s) - kron_pauli(s)).max() <= 1e-14

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(symbols_strategy)
    def test_hermitian_involution(self, symbols):
        m = pauli_matrix(PauliString(symbols))
        assert np.abs(m - m.conj().T).max() == 0.0
        assert np.abs(m @ m - np.eye(m.shape[0])).max() <= 1e-14


class TestParity:
    """``np.bitwise_count(v) & 1``, the parity every kernel takes of its
    nonnegative masks, against the shift-xor ladder it replaced."""

    def test_every_16_bit_mask(self):
        v = np.arange(1 << 16, dtype=np.int64)
        assert np.array_equal(np.bitwise_count(v) & 1, ladder_parity(v))

    def test_random_24_bit_masks(self):
        v = np.random.default_rng(81).integers(0, 1 << 24, size=1 << 16, dtype=np.int64)
        assert np.array_equal(np.bitwise_count(v) & 1, ladder_parity(v))


class TestKernel:
    """The mask kernel against the per-string code it replaced."""

    @staticmethod
    def _strings(rng, d):
        count = min(4**d, 200)
        return sorted({random_string(rng, d) for _ in range(count)} | {PauliString.identity(d)})

    def test_masks(self):
        strings = [PauliString.from_digits(w) for w in ("0123", "2222", "2220", "3300")]
        x, z, k = pauli_masks(strings)
        assert x.dtype == z.dtype == k.dtype == np.int64
        assert x.tolist() == [s.x_mask for s in strings]
        assert z.tolist() == [s.z_mask for s in strings]
        assert k.tolist() == [1, 0, 3, 0]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_synthesize_matches_per_string_sum(self, d):
        rng = np.random.default_rng(70 + d)
        table = FourierTable.of(d, {s: float(rng.normal()) for s in self._strings(rng, d)})
        got, want = synthesize(table), string_synthesize(table)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too

    def test_synthesize_is_blocked(self, monkeypatch):
        import qfl.pauli as pauli_module

        rng = np.random.default_rng(78)
        table = FourierTable.of(4, {s: float(rng.normal()) for s in self._strings(rng, 4)})
        monkeypatch.setattr(pauli_module, "TRACE_BLOCK", 40)
        assert synthesize(table).tobytes() == string_synthesize(table).tobytes()

    @pytest.mark.parametrize("d", range(1, 5))
    def test_synthesize_stack_matches_synthesize(self, d, monkeypatch):
        import qfl.pauli as pauli_module

        rng = np.random.default_rng(90 + d)
        strings = full_degree_set(d).strings
        coeffs = rng.normal(size=(5, len(strings)))
        # rows with zeros where a table leaves strings out, and a zero row
        coeffs[1, rng.random(len(strings)) < 0.5] = 0.0
        coeffs[2] = 0.0
        tables = [FourierTable.of(d, {s: v for s, v in zip(strings, row) if v != 0.0}) for row in coeffs]
        want = np.stack([synthesize(t) for t in tables])
        assert synthesize_stack(coeffs, d).tobytes() == want.tobytes()
        monkeypatch.setattr(pauli_module, "TRACE_BLOCK", 40)
        assert synthesize_stack(coeffs, d).tobytes() == want.tobytes()

    def test_dense_synthesis_cap_raises_before_allocating(self):
        # a 13-qubit operator is 1 GiB and its 4^13 strings far more; the
        # cap is checked before either is built
        table = FourierTable.of(13, {PauliString.identity(13): 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped"):
                synthesize(table)
            with pytest.raises(ValueError, match="capped"):
                synthesize_stack(np.ones((1, 1)), 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", range(1, 8))
    def test_accumulate_matches_per_string_loop(self, d, monkeypatch):
        # bit for bit, signed zeros too: strings sharing a few x masks, the
        # identity and repeated strings, in random order, alone and stacked
        import qfl.pauli as pauli_module

        rng = np.random.default_rng(60 + d)
        count = 3 * (d + 2)
        x = rng.choice(rng.integers(0, 1 << d, size=3), size=count)
        z = rng.integers(0, 1 << d, size=count)
        k = rng.integers(0, 4, size=count)
        x[0] = z[0] = k[0] = 0
        x[1], z[1], k[1] = x[2], z[2], k[2]
        order = rng.permutation(count)
        x, z, k = x[order], z[order], k[order]
        for c in (rng.normal(size=count), rng.normal(size=(2, 3, count))):
            c[..., 0] = 0.0
            want = string_accumulate(c, x, z, k, 1 << d).tobytes()
            for block in (1 << 18, 40):
                monkeypatch.setattr(pauli_module, "TRACE_BLOCK", block)
                assert pauli_module._accumulate(c, d, (x, z, k)).tobytes() == want

    @pytest.mark.parametrize("d", range(1, 9))
    def test_fourier_transform_matches_per_string_traces(self, d):
        # bit for bit where every trace sum is exact (+-1 diagonal and dyadic
        # operators); on a random operator the sums run in another order, so
        # the two agree to rounding of the coefficient scale
        rng = np.random.default_rng(80 + d)
        n = 1 << d
        strings = self._strings(rng, d)
        ints = rng.integers(-8, 9, size=(2, n, n))
        dyadic = ints[0] + 1j * ints[1]
        for a in (np.diag(rng.choice([-1.0, 1.0], size=n)), (dyadic + dyadic.conj().T) / 4):
            assert dict(fourier_transform(a, strings).items()) == string_coefficients(a, strings)
        a = random_hermitian(rng, n)
        got = fourier_transform(a, strings)
        want = string_coefficients(a, strings)
        scale = max(abs(v) for v in want.values())
        assert max(abs(got[s] - want[s]) for s in strings) <= 1e-14 * scale

    @pytest.mark.parametrize("d", range(1, 9))
    def test_pauli_matrix_matches_per_string_matrix(self, d):
        rng = np.random.default_rng(90 + d)
        for s in self._strings(rng, d)[:40]:
            assert np.array_equal(pauli_matrix(s), string_matrix(s))

    def test_pauli_matrix_is_kron_product(self):
        for d in range(1, 4):
            for s in full_degree_set(d):
                assert np.array_equal(pauli_matrix(s), kron_pauli(s))
        rng = np.random.default_rng(98)
        for _ in range(60):
            s = random_string(rng, int(rng.integers(4, 7)))
            assert np.array_equal(pauli_matrix(s), kron_pauli(s))

    @pytest.mark.parametrize("block", [1 << 18, 24])
    def test_traces_match_kron_trace(self, block, monkeypatch):
        # the spectrum in blocks of the given size, and the per-string oracle
        import qfl.pauli as pauli_module

        monkeypatch.setattr(pauli_module, "TRACE_BLOCK", block)
        rng = np.random.default_rng(99)
        for d in range(1, 6):
            m = rng.normal(size=(1 << d, 1 << d)) + 1j * rng.normal(size=(1 << d, 1 << d))
            strings = self._strings(rng, d)
            want = np.array([np.trace(kron_pauli(s) @ m) for s in strings])
            for traces in (spectral_traces, pauli_traces):
                assert np.abs(traces(m, *pauli_masks(strings)) - want).max() <= 1e-12

    @pytest.mark.parametrize("d", range(1, 8))
    def test_spectral_traces_match_gathers(self, d):
        # every string up to d = 5, sampled strings beyond, on dense and
        # diagonal Hermitian operators
        rng = np.random.default_rng(40 + d)
        n = 1 << d
        if d <= 5:
            masks = pauli_masks(full_degree_set(d))
        else:
            masks = pauli_masks({random_string(rng, d) for _ in range(300)})
        for m in (random_hermitian(rng, n), np.diag(rng.normal(size=n)).astype(complex)):
            got = spectral_traces(m, *masks)
            assert got.dtype == np.complex128 and got.shape == masks[0].shape
            assert np.abs(got - pauli_traces(m, *masks)).max() <= 1e-12

    @pytest.mark.parametrize("block", [1, 24, 100])
    def test_spectral_traces_blocks_give_the_same_bits(self, block, monkeypatch):
        import qfl.pauli as pauli_module

        rng = np.random.default_rng(49)
        m = random_hermitian(rng, 32)
        # strings in random order, several per spectrum row
        x, z, k = (rng.integers(0, hi, size=200) for hi in (32, 32, 4))
        want = spectral_traces(m, x, z, k).tobytes()
        monkeypatch.setattr(pauli_module, "TRACE_BLOCK", block)
        assert spectral_traces(m, x, z, k).tobytes() == want
        assert spectral_traces(m, x[:0], z[:0], k[:0]).shape == (0,)

    @pytest.mark.parametrize("block", [1 << 18, 24])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_diagonal_spectrum_is_row_zero(self, d, block, monkeypatch):
        # a diagonal operator transforms row x = 0 alone and writes exact
        # zeros elsewhere: equal (np.array_equal, which lets only the sign of
        # a zero differ) to the full transform the dense path runs, and to the
        # per-string oracle where every trace sum is exact (+-1 and dyadic
        # diagonals); a random diagonal sums in another order there
        import qfl.pauli as pauli_module

        monkeypatch.setattr(pauli_module, "TRACE_BLOCK", block)
        rng = np.random.default_rng(140 + d)
        n = 1 << d
        if d <= 4:
            strings = full_degree_set(d)
        else:
            strings = {random_string(rng, d) for _ in range(300)} | set(degree_set_classical_upto(d, 2))
        x, z, k = pauli_masks(strings)
        dyadic = rng.integers(-8, 9, size=(2, n)) / 4
        negative_zeros = np.full((n, n), complex(-0.0, -0.0))
        np.fill_diagonal(negative_zeros, dyadic[0])
        exact = [
            np.diag(rng.choice([-1.0, 1.0], size=n)).astype(complex),
            np.diag(dyadic[0]).astype(complex),
            np.diag(dyadic[0] + 1j * dyadic[1]),
            negative_zeros,
        ]
        rounded = [np.diag(rng.normal(size=n)), np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))]
        for m in exact + rounded:
            got = spectral_traces(m, x, z, k)
            assert got.dtype == np.complex128 and got.shape == x.shape
            assert np.array_equal(got[x != 0], np.zeros(np.count_nonzero(x)))
            with monkeypatch.context() as dense:
                dense.setattr(pauli_module, "_is_diagonal", lambda m: False)
                assert np.array_equal(got, spectral_traces(m, x, z, k))
            want = pauli_traces(m, x, z, k)
            if any(m is e for e in exact):
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-12 * n

    def test_walsh_hadamard(self):
        rng = np.random.default_rng(48)
        a = rng.normal(size=(3, 2, 16))
        signs = 1.0 - 2.0 * np.array(
            [[bin(j & b).count("1") % 2 for j in range(16)] for b in range(16)]
        )
        want = a @ signs.T
        assert walsh_hadamard(a) is a
        assert np.abs(a - want).max() <= 1e-12
        with pytest.raises(ValueError, match="C-contiguous"):
            walsh_hadamard(np.zeros((16, 4)).T)

    def test_residue_names_first_bad_string(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 3] = 1.0  # tr(bad sigma) is imaginary for XY and YX only
        strings = [PauliString.from_digits(w) for w in ("00", "11", "12", "21")]
        with pytest.raises(ValueError, match="coefficient at 12 has imaginary residue"):
            fourier_transform(bad, strings)


class TestApplyPauli:
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
            dense = np.trace(a @ kron_pauli(s)).real / (1 << d)
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
        table = FourierTable.of(2, {PauliString((2, 2)): 0.5, PauliString((1, 1)): -0.5})
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

    @pytest.mark.parametrize("coords", [(), (2,), (0, 3), (1, 2, 4), (4, 1, 9, -1)])
    def test_supported_in_marks_the_strings_within(self, coords):
        ds = degree_set_upto(5, 3)
        within = degree_set_within(5, [c for c in coords if 0 <= c < 5])
        assert ds.supported_in(coords).tolist() == [s in within for s in ds]

    def test_dedup(self):
        ds = DegreeSet.of(1, [PauliString((3,)), PauliString((3,))])
        assert len(ds) == 1

    def test_equal_sets_hash_alike(self):
        strings = [PauliString.from_digits(t) for t in ("03", "30", "33")]
        a, b = DegreeSet.of(2, strings), DegreeSet.of(2, reversed(strings))
        assert a is not b and a == b
        # the generated dataclass hash, taken once at construction
        assert hash(a) == hash(b) == hash((2, a.strings))
        assert "_hash" not in repr(a)
        assert a != DegreeSet.of(2, strings[:2])
        assert a != DegreeSet(2, ())
        assert DegreeSet(1, ()) != DegreeSet(2, ())

    def test_degree_set_as_dict_key(self):
        keyed = {degree_set_upto(3, 1): "k1", degree_set_classical_upto(3, 1): "z1"}
        rebuilt = DegreeSet.of(3, list(degree_set_upto(3, 1))[::-1])
        assert rebuilt is not degree_set_upto(3, 1)
        assert keyed[rebuilt] == "k1"
        assert keyed[DegreeSet.of(3, degree_set_classical_upto(3, 1))] == "z1"
        assert len({degree_set_upto(2, 1), DegreeSet.of(2, degree_set_upto(2, 1)), degree_set_upto(2, 2)}) == 2

    def test_degree_set_upto_is_built_once_per_class(self):
        assert degree_set_upto(4, 2) is degree_set_upto(4, 2)
        assert degree_set_upto(4, 2) is not degree_set_upto(4, 1)
        assert degree_set_upto(4, 2) == DegreeSet.of(4, degree_set_upto(4, 2))
        # a rejected class is rejected every time
        for _ in range(2):
            with pytest.raises(ValueError):
                degree_set_upto(2, 3)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_builders_match_brute_force(self, d):
        for k in range(d + 1):
            assert degree_set_upto(d, k) == brute_degree_set(d, k)
            assert degree_set_classical_upto(d, k) == brute_degree_set(d, k, (3,))
        # scattered coordinates, in any order
        rng = np.random.default_rng(40 + d)
        for size in range(d + 1):
            coords = rng.choice(d, size=size, replace=False).tolist()
            assert degree_set_within(d, coords) == brute_degree_set(d, d, coords=coords)
        assert full_degree_set(d) == brute_degree_set(d, d)

    def test_cold_degree_set_builds_each_string_once(self, monkeypatch):
        built = []
        init = PauliString.__post_init__
        monkeypatch.setattr(PauliString, "__post_init__", lambda self: built.append(init(self)))
        assert len(degree_set_upto(10, 3)) == len(built) == 3676


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

    @pytest.mark.parametrize("coords", [(), (1,), (0, 2), (2, 0, 2), (1, 5, -1)])
    def test_restriction_keeps_strings_supported_inside(self, coords):
        table = self._table()
        want = [(s, c) for s, c in table.items() if set(s.support) <= set(coords)]
        assert table.restricted_to_coords(coords).items() == want

    def test_single_coordinate(self):
        kept = self._table().restricted_to_coords((1,))
        for s, _ in kept.items():
            assert set(s.support) <= {1}
        assert len(kept) == 4

    @pytest.mark.parametrize("coords", [(1,), (0, 2), (2, 0), (0, 1, 2)])
    def test_block_is_the_restriction_on_its_coordinates(self, coords):
        table = self._table()
        kept = block(table, coords)
        assert kept.d == len(coords)
        # move the block's coordinates first; the restriction is then block (x) I
        order = list(coords) + [q for q in range(3) if q not in coords]
        dense = synthesize(table.restricted_to_coords(coords)).reshape([2] * 6)
        moved = dense.transpose(order + [3 + q for q in order]).reshape(8, 8)
        want = np.kron(synthesize(kept), np.eye(1 << (3 - len(coords))))
        assert np.abs(moved - want).max() <= 1e-12

    @pytest.mark.parametrize("coords", [(), (1, 1), (3,), (-1,)])
    def test_block_rejects_bad_coords(self, coords):
        with pytest.raises(ValueError, match="coordinates"):
            block(self._table(), coords)


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
        table = FourierTable.of(
            2, {PauliString((2, 2)): 0.5, PauliString((1, 1)): -0.5, PauliString((0, 0)): 1e-17}
        )
        path = tmp_path / "coeffs.ftab"
        table.save(path)
        back = FourierTable.load(path)
        assert back.d == 2
        assert back.items() == table.items()

    def test_repeated_string_raises(self):
        # as a repeated config key does; the last value is not taken
        with pytest.raises(ValueError, match="'3' twice"):
            FourierTable.from_text('d=1\n"3" 0.5\n"3" 1.0\n')

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            FourierTable.from_text('"33" 1.0\n')

    def test_iteration_sorted(self):
        table = FourierTable.of(1, {PauliString((3,)): 1.0, PauliString((1,)): 2.0})
        assert [str(s) for s, _ in table.items()] == ["1", "3"]

    def test_symbol_key_gives_the_string_order(self):
        # items() sorts on the symbols; the strings' own ordering gives the
        # same list, on random tables in random insertion order
        rng = np.random.default_rng(80)
        for d in range(1, 7):
            for _ in range(5):
                strings = {random_string(rng, d) for _ in range(int(rng.integers(1, 60)))}
                order = rng.permutation(len(strings))
                entries = list(strings)
                coefficients = {entries[i]: float(rng.normal()) for i in order}
                table = FourierTable.of(d, coefficients)
                assert table.items() == sorted(coefficients.items())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FourierTable.of(1, {PauliString((3,)): float("nan")})
        values = np.array([0.5, np.inf])
        with pytest.raises(ValueError, match=r"coefficient at 3 is not finite: inf"):
            FourierTable(DegreeSet.of(1, [PauliString((1,)), PauliString((3,))]), values)


class TestTableFormat:
    """A table is a sorted degree set and a read-only float64 vector."""

    @staticmethod
    def _coefficients(rng, d):
        strings = sorted({random_string(rng, d) for _ in range(40)})
        return {s: float(rng.normal()) for s in strings}

    def test_insertion_order_changes_nothing(self):
        rng = np.random.default_rng(81)
        for d in range(1, 6):
            coefficients = self._coefficients(rng, d)
            ordered = FourierTable.of(d, coefficients)
            entries = list(coefficients.items())
            shuffled = FourierTable.of(d, dict(entries[i] for i in rng.permutation(len(entries))))
            assert shuffled.items() == ordered.items()
            assert shuffled.to_text() == ordered.to_text()
            back = FourierTable.from_text(shuffled.to_text())
            assert back.items() == ordered.items()
            assert back.to_text() == ordered.to_text()
            assert back.degree_set == ordered.degree_set == DegreeSet.of(d, coefficients)

    def test_get_of_an_absent_string_is_the_default(self):
        table = FourierTable.of(2, {PauliString((3, 0)): 0.5})
        assert table.get(PauliString((0, 3))) == 0.0
        assert table.get(PauliString((0, 3)), -1.5) == -1.5
        assert table.get(PauliString((3, 0)), -1.5) == 0.5
        with pytest.raises(KeyError):
            table[PauliString((0, 3))]

    def test_values_come_out_as_python_floats(self):
        # text formats print repr, and numpy 2 prints a numpy float as np.float64(...)
        rng = np.random.default_rng(82)
        a = random_hermitian(rng, 8)
        for table in (FourierTable.of(3, self._coefficients(rng, 3)), fourier_transform(a, full_degree_set(3))):
            assert all(type(c) is float for _, c in table.items())
            assert all(type(table.get(s)) is float and type(table[s]) is float for s in table.degree_set)
            assert table.values.dtype == np.float64 and not table.values.flags.writeable

    def test_vector_is_a_copy(self):
        x, z = PauliString((1,)), PauliString((3,))
        values = np.array([0.25, -0.5])
        table = FourierTable(DegreeSet.of(1, [x, z]), values)
        values[0] = 9.0
        assert table.items() == [(x, 0.25), (z, -0.5)]
        with pytest.raises(ValueError, match="one value per string"):
            FourierTable(DegreeSet.of(1, [x]), values)

    def test_views_are_built_once_and_read_only(self):
        strings = degree_set_upto(4, 2)
        assert strings.masks is strings.masks and strings.index is strings.index
        x, z, k = strings.masks
        assert x.tolist() == [s.x_mask for s in strings] and z.tolist() == [s.z_mask for s in strings]
        assert k.tolist() == [s.y_count % 4 for s in strings]
        assert not any(a.flags.writeable for a in strings.masks)
        assert [strings.index[s] for s in strings] == list(range(len(strings)))
        with pytest.raises(TypeError):
            strings.index[PauliString.identity(4)] = 1
