"""Operator substrate: spectra, the sign functional, weighted norms, traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfl import operators
from qfl.operators import (
    _is_diagonal,
    hermitian_eig,
    maximally_mixed,
    partial_trace_label,
    rho_inner_product,
    rho_norm,
    sign_operator,
    tensor,
    validate_density,
    validate_povm,
)
from qfl.pauli import PauliString, full_degree_set, pauli_matrix

from qfl.pauli import degree_set_classical_upto, synthesize
from qfl.simulator import make_classical_source

from conftest import bell_states, make_parity_source, random_density, random_hermitian
from oracles import spectral_sign


class TestEig:
    def test_already_diagonal(self):
        spec = hermitian_eig(np.diag([3.0, -1.0]))
        assert np.allclose(spec.eigenvalues, [3.0, -1.0])
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))

    def test_pauli_x_spectrum(self):
        spec = hermitian_eig(pauli_matrix(PauliString((1,))))
        assert np.allclose(spec.eigenvalues, [1.0, -1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 8)
        spec = hermitian_eig(h)
        assert np.abs(spec.reconstruct() - h).max() <= 1e-8
        v = spec.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-8

    def test_reconstruction_large(self):
        # the dense path has to stay accurate at the biggest supported sizes
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 2**11)
        spec = hermitian_eig(h)
        assert np.abs(spec.reconstruct() - h).max() <= 1e-8
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="capped"):
            hermitian_eig(np.eye(2**12 + 2))


class TestSign:
    def test_diagonal(self):
        assert np.allclose(sign_operator(np.diag([2.0, -0.5])), np.diag([1.0, -1.0]))

    def test_zero_matrix_ties_to_identity(self):
        assert np.array_equal(sign_operator(np.zeros((2, 2))), np.eye(2))

    def test_xx_is_its_own_sign(self):
        xx = tensor(pauli_matrix(PauliString((1,))), pauli_matrix(PauliString((1,))))
        # oracle: brute-force eigendecomposition says all eigenvalues are +-1
        assert np.allclose(np.abs(np.linalg.eigvalsh(xx)), 1.0)
        assert np.abs(sign_operator(xx) - xx).max() <= 1e-8

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_squares_to_identity(self, n):
        rng = np.random.default_rng(n)
        g = sign_operator(random_hermitian(rng, n))
        assert np.abs(g @ g - np.eye(n)).max() <= 1e-8
        assert np.allclose(np.abs(np.linalg.eigvalsh(g)), 1.0)


    @staticmethod
    def assert_same_bits(a, b):
        assert a.dtype == b.dtype == np.complex128 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    def test_diagonal_sign_matches_spectral_path(self):
        # differential: the entrywise sign of a diagonal against the spectral
        # sign, bit for bit, with ties, zeros and entries at the tolerance
        rng = np.random.default_rng(61)
        edges = [0.0, -0.0, 1.0, -1.0, 1e-10, -1e-10, 1e-12, -1e-12, 2e-12, -2e-12, 1e-13, -1e-13]
        for case in range(60):
            n = (2, 3, 4, 8, 16, 64, 256)[case % 7] if case < 56 else 1024
            diag = rng.normal(size=n)
            if case % 4 == 1:
                diag = rng.choice(edges, size=n)
            elif case % 4 == 2:
                diag = np.round(diag)  # many exact ties and zeros
            elif case % 4 == 3:
                diag = diag + 1e-12j * rng.normal(size=n)  # Hermitian within tolerance
            h = np.diag(diag).astype(np.complex128)
            self.assert_same_bits(sign_operator(h), spectral_sign(h))

    def test_classical_optimum_sign_matches_spectral_path(self):
        # the optimum of a classical source is the sign of a diagonal table
        rng = np.random.default_rng(62)
        for d in range(2, 9):
            sources = [make_parity_source(d, (0, d - 1)),
                       make_classical_source(rng.integers(0, 2, size=1 << d))]
            for source in sources:
                for k in range(min(d, 3) + 1):
                    f = synthesize(source.exact_table(degree_set_classical_upto(d, k)))
                    self.assert_same_bits(sign_operator(f), spectral_sign(f))

    def test_nearly_diagonal_input_takes_the_spectral_path(self):
        h = np.diag([1.0, -1.0, 2.0, -3.0]).astype(np.complex128)
        h[0, 3] = h[3, 0] = 1e-300
        self.assert_same_bits(sign_operator(h), spectral_sign(h))
        h[0, 3] = h[3, 0] = 0.9
        g = sign_operator(h)
        assert np.abs(g @ g - np.eye(4)).max() <= 1e-8
        assert g[0, 3] != 0.0

    def test_diagonal_input_is_checked(self):
        with pytest.raises(ValueError, match="Hermitian"):
            sign_operator(np.diag([1.0 + 1e-3j, -1.0]))
        with pytest.raises(ValueError, match="square"):
            sign_operator(np.ones(3))

    def test_dense_input_is_checked_once(self, monkeypatch):
        # one Hermitian check per sign, and the same bits as before
        rng = np.random.default_rng(63)
        h = random_hermitian(rng, 16)
        want = spectral_sign(h)
        calls = []
        real = operators.hermiticity_defect
        monkeypatch.setattr(operators, "hermiticity_defect", lambda a: calls.append(a.shape) or real(a))
        self.assert_same_bits(sign_operator(h), want)
        assert calls == [(16, 16)]
        hermitian_eig(h)
        assert len(calls) == 2
        with pytest.raises(ValueError, match="Hermitian"):
            sign_operator(h + 1e-6 * np.triu(np.ones((16, 16)), 1))


class TestIsDiagonal:
    def test_cases(self):
        assert _is_diagonal(np.eye(1))
        assert _is_diagonal(np.diag([1.0, 0.0, -2.0, 3j]))
        assert _is_diagonal(np.zeros((4, 4)))
        negative_zeros = np.full((4, 4), complex(-0.0, -0.0))
        assert _is_diagonal(negative_zeros)
        for i, j in [(0, 1), (0, 3), (1, 0), (3, 2), (2, 3), (3, 0)]:
            for value in (1e-300, 1j, np.nan, -np.inf):
                m = np.eye(4, dtype=complex)
                m[i, j] = value
                assert not _is_diagonal(m), (i, j, value)

    def test_first_row_answers_without_a_pass(self):
        # a nonzero entry in row 0 decides before the matrix is read whole
        class FirstRowOnly(np.ndarray):
            def ravel(self, *args, **kwargs):
                raise AssertionError("read the whole matrix")

        m = np.eye(64, dtype=complex)
        m[0, 5] = 0.5
        assert not _is_diagonal(m.view(FirstRowOnly))
        m[0, 5] = 0.0
        with pytest.raises(AssertionError, match="whole matrix"):
            _is_diagonal(m.view(FirstRowOnly))


class TestInnerProduct:
    def test_pauli_orthonormality(self):
        for d in (1, 2, 3):
            mm = maximally_mixed(d)
            mats = [(s, pauli_matrix(s)) for s in full_degree_set(d)]
            for s, a in mats:
                for t, b in mats:
                    got = rho_inner_product(a, b, mm)
                    assert abs(got - (1.0 if s == t else 0.0)) <= 1e-12

    def test_identity_pairing_is_trace(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 8)
        assert abs(rho_inner_product(np.eye(8), np.eye(8), rho) - 1.0) <= 1e-12

    def test_self_pairing_real_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            v = rho_inner_product(a, a, random_density(rng, 4))
            assert abs(v.imag) <= 1e-10
            assert v.real >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rho_inner_product(np.eye(2), np.eye(4), np.eye(4) / 4)


class TestRhoNorm:
    def test_discrimination_example_values(self):
        # the restricted labeling operator of the two-state example
        op = np.zeros((4, 4), dtype=complex)
        op[3, 0] = op[0, 3] = -1.0
        assert abs(rho_norm(op, 1, maximally_mixed(2)) - 0.5) <= 1e-12
        trace_norm = np.abs(np.linalg.eigvalsh(op)).sum()
        assert abs(trace_norm - 2.0) <= 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_identity_norm_is_one(self, q):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 8)
        assert abs(rho_norm(np.eye(8), q, rho) - 1.0) <= 1e-12

    def test_norm_inequalities_random(self):
        # spectral-sum oracle for the 1-vs-2 norm comparison, 20 instances
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = 2 ** int(rng.integers(1, 4))
            a = random_hermitian(rng, n)
            rho = random_density(rng, n)
            w, v = np.linalg.eigh(a)
            weights = np.einsum("ij,jk,ki->i", v.conj().T, rho, v).real
            oracle_1 = float(np.abs(w) @ weights)
            oracle_2 = float(np.sqrt((w**2) @ weights))
            assert abs(rho_norm(a, 1, rho) - oracle_1) <= 1e-10
            assert abs(rho_norm(a, 2, rho) - oracle_2) <= 1e-10
            assert rho_norm(a, 1, rho) <= rho_norm(a, 2, rho) + 1e-10

    @pytest.mark.parametrize("d", range(1, 7))
    def test_q1_weights_match_einsum_formula(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(3):
            a = random_hermitian(rng, 1 << d)
            rho = random_density(rng, 1 << d)
            w, v = np.linalg.eigh(a)
            weights = np.einsum("ij,jk,ki->i", v.conj().T, rho, v).real
            assert abs(rho_norm(a, 1, rho) - float(np.abs(w) @ weights)) <= 1e-12

    def test_appendix_suite(self):
        # 50 random pairs: expansion identity, Cauchy-Schwarz, triangle, 1<=2
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = 2 ** int(rng.integers(1, 4))
            a, b = random_hermitian(rng, n), random_hermitian(rng, n)
            rho = random_density(rng, n)
            na, nb = rho_norm(a, 2, rho), rho_norm(b, 2, rho)
            nab = rho_norm(a + b, 2, rho)
            ip = rho_inner_product(a, b, rho)
            assert abs(nab**2 - (na**2 + nb**2 + 2 * ip.real)) <= 1e-8
            assert abs(ip) <= na * nb + 1e-10
            assert nab <= na + nb + 1e-10
            assert rho_norm(a, 1, rho) <= na + 1e-10

    def test_bad_q(self):
        with pytest.raises(ValueError, match="q must be"):
            rho_norm(np.eye(2), 3, np.eye(2) / 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_matches_per_matrix_bit_for_bit(self, k):
        rng = np.random.default_rng(30 + k)
        n = 1 << k
        for rho in (maximally_mixed(k), random_density(rng, n)):
            for size in (1, 7, 40):
                a = np.stack([random_hermitian(rng, n) for _ in range(size)])
                a[0] = a[0].real  # a real block, as selection often builds
                norms = rho_norm(a, 1, rho)
                assert norms.shape == (size,)
                assert norms.tolist() == [rho_norm(m, 1, rho) for m in a]

    def test_stack_checks(self):
        rng = np.random.default_rng(34)
        a = np.stack([random_hermitian(rng, 4) for _ in range(3)])
        a[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            rho_norm(a, 1, maximally_mixed(2))
        with pytest.raises(ValueError, match="mismatch"):
            rho_norm(a[:2], 1, maximally_mixed(1))
        with pytest.raises(ValueError, match="dimension >= 1"):
            rho_norm(a[:0], 1, maximally_mixed(2))
        # the stacked form is for q=1 only
        with pytest.raises(ValueError, match="square matrix"):
            rho_norm(a[:2], 2, maximally_mixed(2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_norm_ordering_property(seed):
    rng = np.random.default_rng(seed)
    n = 2 ** int(rng.integers(1, 4))
    a = random_hermitian(rng, n)
    rho = random_density(rng, n)
    assert rho_norm(a, 1, rho) <= rho_norm(a, 2, rho) + 1e-10


class TestTensorAndTrace:
    def test_kron_of_diagonals(self):
        z = pauli_matrix(PauliString((3,)))
        assert np.allclose(tensor(z, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        e0 = np.zeros((2, 2), dtype=complex)
        e0[0, 0] = 1.0
        assert np.abs(partial_trace_label(tensor(rho, e0)) - rho).max() <= 1e-12

    def test_discrimination_marginal(self):
        # direct matrix sum: the average of the two example states is I/4
        rho0, rho1 = bell_states()
        e0 = np.diag([1.0, 0.0]).astype(complex)
        e1 = np.diag([0.0, 1.0]).astype(complex)
        joint = 0.5 * tensor(rho0, e0) + 0.5 * tensor(rho1, e1)
        marginal = partial_trace_label(joint)
        assert np.abs(marginal - maximally_mixed(2)).max() <= 1e-12
        assert abs(np.trace(marginal).real - 1.0) <= 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            partial_trace_label(np.eye(3))


class TestValidation:
    def test_maximally_mixed_ok(self):
        assert validate_density(maximally_mixed(3)) == []

    def test_density_violations_reported(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        names = {v.invariant for v in validate_density(bad)}
        assert "nonnegativity" in names

    def test_sign_povm_ok(self):
        rng = np.random.default_rng(9)
        g = sign_operator(random_hermitian(rng, 8))
        eye = np.eye(8)
        assert validate_povm([(eye + g) / 2, (eye - g) / 2]) == []

    def test_single_effect_violates_resolution(self):
        x = pauli_matrix(PauliString((1,)))
        names = {v.invariant for v in validate_povm([x])}
        assert "resolution-of-identity" in names
