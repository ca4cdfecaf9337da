"""Dense complex-matrix substrate for the rest of the package.

Operators are plain ``numpy.ndarray`` square matrices (complex128, row-major).
This module provides the spectral primitives (eigendecomposition, the sign
functional), state-weighted inner products and norms, tensor products, the
partial trace over a trailing label qubit, and structural validation of
density operators and POVMs.

Conventions
-----------
* All functions are pure; inputs are never mutated.
* Matrix side lengths are capped at ``2**MAX_QUBITS`` so that accidental
  large allocations fail fast instead of thrashing.
* Tolerances below are defaults and can be overridden per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
POVM_RESOLUTION_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
DENSITY_TRACE_TOL = 1e-10
SIGN_ZERO_TOL = 1e-12


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix, enforcing finiteness and the size cap."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    if m.shape[0] > 2**MAX_QUBITS:
        raise ValueError(
            f"dense matrices are capped at dimension 2**{MAX_QUBITS}; got {m.shape[0]}"
        )
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")
    return m


def hermiticity_defect(a: np.ndarray) -> float:
    """Max absolute entry of ``a - a^dagger``."""
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = as_operator(a)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {defect:.3e} > {tol:.1e}")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, so that
    ``eigenvectors @ diag(eigenvalues) @ eigenvectors^dagger`` reconstructs
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(h, *, herm_tol: float = HERMITICITY_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    Raises RuntimeError if the underlying solver fails to converge; the error
    message carries the hermiticity defect of the input as a diagnostic.
    """
    h = require_hermitian(h, herm_tol)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigendecomposition did not converge (hermiticity defect "
            f"{hermiticity_defect(h):.3e}): {exc}"
        ) from exc
    order = slice(None, None, -1)
    return Spectrum(eigenvalues=w[order].copy(), eigenvectors=v[:, order].copy())


def sign_operator(h, zero_tol: float = SIGN_ZERO_TOL) -> np.ndarray:
    """Spectral sign of a Hermitian operator.

    Eigenvalues above ``zero_tol`` map to +1, below ``-zero_tol`` to -1, and
    anything in between maps to +1.  The tie-break keeps the result a valid
    +-1 operator (it squares to the identity), so ``(I +- sign(h))/2`` is
    always a projective two-outcome POVM.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    spec = hermitian_eig(h)
    signs = np.where(spec.eigenvalues < -zero_tol, -1.0, 1.0)
    v = spec.eigenvectors
    out = (v * signs) @ v.conj().T
    return (out + out.conj().T) / 2.0


def rho_inner_product(a, b, rho) -> complex:
    """State-weighted inner product ``tr(a^dagger b rho)``."""
    a = as_operator(a)
    b = as_operator(b)
    rho = as_operator(rho)
    if not (a.shape == b.shape == rho.shape):
        raise ValueError(f"dimension mismatch: {a.shape}, {b.shape}, {rho.shape}")
    return complex(np.einsum("ji,jk,ki->", a.conj(), b, rho))


def rho_norm(a, q: int, rho) -> float:
    """State-weighted q-norm ``tr(|a|^q rho)^(1/q)`` for Hermitian ``a``, q in {1, 2}.

    For q=2 this is ``sqrt(tr(a^2 rho))``; for q=1 the absolute value is taken
    spectrally.
    """
    a = require_hermitian(a)
    rho = as_operator(rho)
    if a.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {rho.shape}")
    if q == 2:
        val = np.einsum("ij,jk,ki->", a, a, rho).real
        return float(np.sqrt(max(val, 0.0)))
    if q == 1:
        spec = hermitian_eig(a)
        v = spec.eigenvectors
        # weights[i] = <v_i| rho |v_i>, through one matrix product
        weights = (v.conj() * (rho @ v)).sum(axis=0).real
        return float(np.abs(spec.eigenvalues) @ weights)
    raise ValueError(f"q must be 1 or 2, got {q!r}")


def tensor(a, b) -> np.ndarray:
    """Kronecker product, with the first factor on the most significant qubits."""
    return np.kron(as_operator(a), as_operator(b))


def partial_trace_label(rho_xy) -> np.ndarray:
    """Trace out the trailing label qubit of a joint feature-label operator."""
    rho_xy = as_operator(rho_xy)
    dim = rho_xy.shape[0]
    if dim % 2 != 0:
        raise ValueError(f"dimension {dim} is not divisible by 2; no label qubit to trace")
    half = dim // 2
    return np.einsum("iyjy->ij", rho_xy.reshape(half, 2, half, 2))


def maximally_mixed(d: int) -> np.ndarray:
    """The maximally mixed state ``I / 2**d`` on d qubits."""
    if d < 1:
        raise ValueError("d must be >= 1")
    n = 2**d
    return np.eye(n, dtype=np.complex128) / n


@dataclass(frozen=True)
class Violation:
    """A failed structural invariant together with its residual magnitude."""

    invariant: str
    residual: float

    def __str__(self) -> str:
        return f"{self.invariant} (residual {self.residual:.3e})"


def validate_density(
    rho,
    *,
    herm_tol: float = HERMITICITY_TOL,
    eig_floor: float = EIGENVALUE_FLOOR,
    trace_tol: float = DENSITY_TRACE_TOL,
) -> list[Violation]:
    """Check Hermiticity, nonnegativity, and unit trace; empty list means valid."""
    rho = as_operator(rho)
    violations = []
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        violations.append(Violation("hermiticity", defect))
    trace_dev = abs(np.trace(rho) - 1.0)
    if trace_dev > trace_tol:
        violations.append(Violation("unit-trace", float(trace_dev)))
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if lo < eig_floor:
        violations.append(Violation("nonnegativity", -lo))
    return violations


def validate_povm(
    effects,
    *,
    herm_tol: float = HERMITICITY_TOL,
    eig_floor: float = EIGENVALUE_FLOOR,
    resolution_tol: float = POVM_RESOLUTION_TOL,
) -> list[Violation]:
    """Check that the effects are nonnegative Hermitian and sum to the identity."""
    mats = [as_operator(e) for e in effects]
    if not mats:
        return [Violation("nonempty", 0.0)]
    dim = mats[0].shape[0]
    violations = []
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            violations.append(Violation(f"effect-{i}-dimension", float(m.shape[0] - dim)))
            continue
        defect = hermiticity_defect(m)
        if defect > herm_tol:
            violations.append(Violation(f"effect-{i}-hermiticity", defect))
        lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        if lo < eig_floor:
            violations.append(Violation(f"effect-{i}-nonnegativity", -lo))
        total += m
    resolution = float(np.abs(total - np.eye(dim)).max())
    if resolution > resolution_tol:
        violations.append(Violation("resolution-of-identity", resolution))
    return violations
