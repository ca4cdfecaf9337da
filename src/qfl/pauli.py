"""Pauli strings and the Pauli-basis Fourier expansion of Hermitian operators.

A Pauli string is a word over ``{0, 1, 2, 3}`` (identity, X, Y, Z) of length
``d``.  The associated tensor-product operator acts as a signed permutation of
the computational basis, which this module exploits so that applying a string,
taking a trace against one, or extracting a single expansion coefficient all
cost O(2^d) instead of a dense matrix product.

Bit convention: qubit ``j`` (0-based, leftmost symbol) is the most significant
bit of a basis index, matching the ``numpy.kron`` composition order used by
:func:`qfl.operators.tensor`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .operators import MAX_QUBITS

COEFFICIENT_IMAG_TOL = 1e-8

_SINGLE_QUBIT = {
    0: np.eye(2, dtype=np.complex128),
    1: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    2: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    3: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True, order=True)
class PauliString:
    """An element of ``{0,1,2,3}^d`` with cached mask encoding.

    ``x_mask`` has a bit set where the symbol flips the basis bit ({1, 2});
    ``z_mask`` where it contributes a phase ({2, 3}).  The pair, together with
    the number of Y symbols, determines the action on basis states:
    ``sigma^s |x> = i^{n_Y} (-1)^{parity(x & z_mask)} |x ^ x_mask>``.
    """

    symbols: tuple[int, ...]
    x_mask: int = field(init=False, compare=False, repr=False)
    z_mask: int = field(init=False, compare=False, repr=False)
    y_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        symbols = tuple(int(v) for v in self.symbols)
        if len(symbols) < 1:
            raise ValueError("a Pauli string needs at least one symbol")
        if any(v not in (0, 1, 2, 3) for v in symbols):
            raise ValueError(f"symbols must be in {{0,1,2,3}}, got {symbols}")
        d = len(symbols)
        x_mask = z_mask = 0
        y_count = 0
        for j, sym in enumerate(symbols):
            bit = 1 << (d - 1 - j)
            if sym in (1, 2):
                x_mask |= bit
            if sym in (2, 3):
                z_mask |= bit
            if sym == 2:
                y_count += 1
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "x_mask", x_mask)
        object.__setattr__(self, "z_mask", z_mask)
        object.__setattr__(self, "y_count", y_count)

    @classmethod
    def identity(cls, d: int) -> "PauliString":
        return cls((0,) * d)

    @classmethod
    def from_digits(cls, digits: str) -> "PauliString":
        return cls(tuple(int(c) for c in digits))

    @property
    def d(self) -> int:
        return len(self.symbols)

    @property
    def support(self) -> tuple[int, ...]:
        """0-based coordinates carrying a non-identity symbol."""
        return tuple(j for j, s in enumerate(self.symbols) if s != 0)

    @property
    def weight(self) -> int:
        return sum(1 for s in self.symbols if s != 0)

    @property
    def is_classical(self) -> bool:
        """True when every symbol is diagonal (identity or Z)."""
        return all(s in (0, 3) for s in self.symbols)

    def extended(self, symbol: int) -> "PauliString":
        """Append one symbol, acting on a new least-significant qubit."""
        return PauliString(self.symbols + (symbol,))

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols)


def _parity(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def phase_vector(s: PauliString) -> np.ndarray:
    """Per-basis-state phase of the string's action, as a complex vector."""
    n = 1 << s.d
    idx = np.arange(n)
    signs = 1.0 - 2.0 * _parity(idx & s.z_mask)
    return (1j**s.y_count) * signs


def _check_dim(s: PauliString):
    if s.d > MAX_QUBITS:
        raise ValueError(f"dense operations are capped at {MAX_QUBITS} qubits; got d={s.d}")


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense ``2^d x 2^d`` matrix of the string's operator."""
    _check_dim(s)
    n = 1 << s.d
    idx = np.arange(n)
    m = np.zeros((n, n), dtype=np.complex128)
    m[idx ^ s.x_mask, idx] = phase_vector(s)
    return m


def apply_pauli(s: PauliString, v) -> np.ndarray:
    """Apply the string's operator to a state vector in O(2^d)."""
    v = np.asarray(v, dtype=np.complex128)
    n = 1 << s.d
    if v.shape != (n,):
        raise ValueError(f"vector length {v.shape} does not match 2^{s.d}")
    ph = phase_vector(s)
    idx = np.arange(n)
    return (ph * v)[idx ^ s.x_mask]


def pauli_expectation(s: PauliString, m: np.ndarray) -> np.ndarray:
    """``tr(sigma^s m)`` in O(2^d); works on stacks, returning one trace each."""
    n = 1 << s.d
    idx = np.arange(n)
    ph = phase_vector(s)
    return (m[..., idx, idx ^ s.x_mask] * ph).sum(axis=-1)


def fourier_coefficient(a: np.ndarray, s: PauliString, *, imag_tol: float = COEFFICIENT_IMAG_TOL) -> float:
    """Expansion coefficient ``tr(a sigma^s) / 2^d`` of ``a`` at string ``s``.

    The coefficient of a Hermitian operator is real; a normalized imaginary
    residue above ``imag_tol`` signals a non-Hermitian input and raises.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = 1 << s.d
    if a.shape != (n, n):
        raise ValueError(f"operator shape {a.shape} does not match d={s.d}")
    val = pauli_expectation(s, a) / n
    if abs(val.imag) > imag_tol:
        raise ValueError(
            f"coefficient at {s} has imaginary residue {val.imag:.3e} > {imag_tol:.1e}; "
            "input is not Hermitian"
        )
    return float(val.real)


@dataclass(frozen=True)
class DegreeSet:
    """A finite, duplicate-free set of Pauli strings with a fixed iteration order.

    Strings are kept sorted lexicographically on their symbols so that any
    derived object (covers, batch plans, serialized tables) is reproducible.
    """

    d: int
    strings: tuple[PauliString, ...]

    def __post_init__(self):
        if any(s.d != self.d for s in self.strings):
            raise ValueError("all strings in a degree set must have the same length")

    @classmethod
    def of(cls, d: int, strings: Iterable[PauliString]) -> "DegreeSet":
        return cls(d, tuple(sorted(set(strings))))

    @cached_property
    def _lookup(self) -> frozenset:
        return frozenset(self.strings)

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.strings)

    def __contains__(self, s: PauliString) -> bool:
        return s in self._lookup


def degree_set_upto(d: int, k: int) -> DegreeSet:
    """All strings on d qubits with at most k non-identity symbols."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    strings = [PauliString.identity(d)]
    for j in range(1, k + 1):
        for positions in itertools.combinations(range(d), j):
            for fill in itertools.product((1, 2, 3), repeat=j):
                symbols = [0] * d
                for pos, sym in zip(positions, fill):
                    symbols[pos] = sym
                strings.append(PauliString(tuple(symbols)))
    return DegreeSet.of(d, strings)


def degree_set_classical_upto(d: int, k: int) -> DegreeSet:
    """All diagonal (identity/Z) strings on d qubits with weight at most k."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    strings = []
    for j in range(k + 1):
        for positions in itertools.combinations(range(d), j):
            symbols = [0] * d
            for pos in positions:
                symbols[pos] = 3
            strings.append(PauliString(tuple(symbols)))
    return DegreeSet.of(d, strings)


def degree_set_within(d: int, coords: Iterable[int]) -> DegreeSet:
    """All strings whose support lies inside the given coordinate subset."""
    coords = sorted(set(coords))
    if any(not 0 <= c < d for c in coords):
        raise ValueError(f"coordinates must lie in [0, {d}), got {coords}")
    strings = []
    for fill in itertools.product((0, 1, 2, 3), repeat=len(coords)):
        symbols = [0] * d
        for pos, sym in zip(coords, fill):
            symbols[pos] = sym
        strings.append(PauliString(tuple(symbols)))
    return DegreeSet.of(d, strings)


def full_degree_set(d: int) -> DegreeSet:
    """All ``4^d`` strings; only sensible at small d."""
    return degree_set_within(d, range(d))


@dataclass(frozen=True)
class FourierTable:
    """Real expansion coefficients indexed by Pauli string.

    The mapping is treated as immutable after construction.  Iteration is
    lexicographic on the string symbols for reproducible output.
    """

    d: int
    coefficients: dict[PauliString, float]

    def __post_init__(self):
        for s, c in self.coefficients.items():
            if s.d != self.d:
                raise ValueError(f"key {s} has length {s.d}, expected {self.d}")
            if not math.isfinite(c):
                raise ValueError(f"coefficient at {s} is not finite: {c!r}")

    def items(self) -> list[tuple[PauliString, float]]:
        return sorted(self.coefficients.items())

    def get(self, s: PauliString, default: float = 0.0) -> float:
        return self.coefficients.get(s, default)

    def __getitem__(self, s: PauliString) -> float:
        return self.coefficients[s]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __contains__(self, s: PauliString) -> bool:
        return s in self.coefficients

    def support(self) -> DegreeSet:
        return DegreeSet.of(self.d, self.coefficients.keys())

    def power(self) -> float:
        """Sum of squared coefficients."""
        return float(sum(c * c for c in self.coefficients.values()))

    def restricted_to_strings(self, strings: Iterable[PauliString]) -> "FourierTable":
        keep = set(strings)
        return FourierTable(self.d, {s: c for s, c in self.coefficients.items() if s in keep})

    def restricted_to_coords(self, coords: Iterable[int]) -> "FourierTable":
        """Keep exactly the entries whose support lies inside ``coords``."""
        keep = set(coords)
        return FourierTable(
            self.d,
            {s: c for s, c in self.coefficients.items() if set(s.support) <= keep},
        )

    def to_text(self) -> str:
        lines = [f"d={self.d}"]
        lines.extend(f'"{s}" {c!r}' for s, c in self.items())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FourierTable":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("d="):
            raise ValueError("coefficient table must start with a 'd=<n>' header")
        d = int(lines[0][2:])
        coeffs: dict[PauliString, float] = {}
        for ln in lines[1:]:
            name, _, value = ln.partition(" ")
            digits = name.strip().strip('"')
            coeffs[PauliString.from_digits(digits)] = float(value)
        return cls(d, coeffs)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FourierTable":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


def fourier_transform(a: np.ndarray, strings: Iterable[PauliString], *, d: int | None = None) -> FourierTable:
    """Extract the expansion coefficients of ``a`` at the given strings."""
    strings = list(strings)
    if d is None:
        if not strings:
            raise ValueError("cannot infer d from an empty string collection")
        d = strings[0].d
    return FourierTable(d, {s: fourier_coefficient(a, s) for s in strings})


def synthesize(table: FourierTable) -> np.ndarray:
    """Dense operator ``sum_s c_s sigma^s`` from a coefficient table."""
    n = 1 << table.d
    if table.d > MAX_QUBITS:
        raise ValueError(f"dense synthesis capped at {MAX_QUBITS} qubits")
    idx = np.arange(n)
    out = np.zeros((n, n), dtype=np.complex128)
    for s, c in table.items():
        out[idx ^ s.x_mask, idx] += c * phase_vector(s)
    return out


def classical_embedding(truth_table) -> np.ndarray:
    """Diagonal +-1 operator encoding a Boolean function's labels as phases.

    ``truth_table[x]`` is the {0,1} label of basis state ``x`` (qubit 0 being
    the most significant index bit); the diagonal entry at ``x`` is
    ``-(-1)^{truth_table[x]}``, i.e. -1 for label 0 and +1 for label 1.  The
    resulting operator's expansion is supported on diagonal strings, with the
    coefficient at Z-support S equal to the Boolean Fourier coefficient of the
    +-1-valued label function at S.
    """
    values = np.asarray(truth_table)
    if values.ndim != 1 or len(values) < 2 or len(values) & (len(values) - 1):
        raise ValueError(f"truth table length must be a power of two >= 2, got {values.shape}")
    if not np.isin(values, (0, 1)).all():
        raise ValueError("truth table entries must be 0 or 1")
    diag = np.where(values == 1, 1.0, -1.0).astype(np.complex128)
    return np.diag(diag)


def parse_truth_table(bits: str) -> np.ndarray:
    """Parse a truth table given as a string of 0/1 characters."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"truth table must be a nonempty string of 0/1, got {bits!r}")
    return np.array([int(c) for c in bits], dtype=np.int8)
