"""Pauli strings and the Pauli-basis Fourier expansion of Hermitian operators.

A Pauli string is a word over ``{0, 1, 2, 3}`` (identity, X, Y, Z) of length
``d``.  The associated tensor-product operator acts as a phased permutation of
the computational basis given by its symplectic masks (:func:`pauli_masks`),
``sigma^s |j> = i^{n_Y} (-1)^{parity(j & z)} |j ^ x>``.  Every use of that
action in the package goes through this module: traces against many strings
(:func:`spectral_traces`, hence expansion coefficients) and dense synthesis,
O(2^d) per string instead of a dense matrix product.

The traces of an operator m against all strings form its Pauli spectrum
``S[x, z] = sum_j (-1)^{parity(j & z)} m[j, j ^ x]``, with
``tr(sigma^s m) = i^{n_Y} S[x, z]``: row x is the Walsh-Hadamard transform
(:func:`walsh_hadamard`) of the x-diagonal ``m[j, j ^ x]``, O(d 2^d) for all
``2^d`` strings of that row, and :func:`spectral_traces` reads many strings
off the rows they share.  A diagonal operator, such as a classical embedding
or a state of a classical source, has one nonzero row, x = 0: its spectrum
is the transform of its diagonal, and every string that flips a bit has
trace zero.

Bit convention: qubit ``j`` (0-based, leftmost symbol) is the most significant
bit of a basis index, matching the ``numpy.kron`` composition order used by
:func:`qfl.operators.tensor`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .operators import MAX_QUBITS, _is_diagonal

COEFFICIENT_IMAG_TOL = 1e-8
# Most entries gathered at once by spectral_traces and synthesize.
TRACE_BLOCK = 1 << 18
# Most (d, k) classes whose degree_set_upto is kept.
DEGREE_SET_CACHE_SIZE = 16

_I_POWERS = np.array([1, 1j, -1, -1j])
# a symbol's mask bits as text: X (1) and Y (2) flip the bit, Y and Z (3) give it a phase
_X_BITS = str.maketrans("0123", "0110")
_Z_BITS = str.maketrans("0123", "0011")


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
    # strings key every memo lookup, so the hash is taken once; text formats
    # print every string of a table, so its text is built once too
    _hash: int = field(init=False, compare=False, repr=False)
    _text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        symbols = tuple(int(v) for v in self.symbols)
        if len(symbols) < 1:
            raise ValueError("a Pauli string needs at least one symbol")
        if any(v not in (0, 1, 2, 3) for v in symbols):
            raise ValueError(f"symbols must be in {{0,1,2,3}}, got {symbols}")
        text = "".join(map(str, symbols))
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "x_mask", int(text.translate(_X_BITS), 2))
        object.__setattr__(self, "z_mask", int(text.translate(_Z_BITS), 2))
        object.__setattr__(self, "y_count", symbols.count(2))
        object.__setattr__(self, "_hash", hash((symbols,)))
        object.__setattr__(self, "_text", text)

    def __hash__(self) -> int:
        return self._hash

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
        return self._text


def pauli_masks(strings: Iterable[PauliString]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 arrays ``x``, ``z`` and ``k = n_Y mod 4`` of the strings, so that
    string t acts as ``|j> -> i^{k_t} (-1)^{parity(j & z_t)} |j ^ x_t>``."""
    strings = list(strings)
    x = np.array([s.x_mask for s in strings], dtype=np.int64)
    z = np.array([s.z_mask for s in strings], dtype=np.int64)
    k = np.array([s.y_count % 4 for s in strings], dtype=np.int64)
    return x, z, k


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """In place, the unnormalized Walsh-Hadamard transform
    ``sum_j (-1)^{parity(j & b)} a[..., j]`` along the last axis of a
    C-contiguous array whose last axis has a power-of-two length, by one
    butterfly per bit; returns ``a``.  Every entry takes the same operations
    however many rows are stacked."""
    if not a.flags.c_contiguous:
        raise ValueError("walsh_hadamard transforms C-contiguous arrays in place")
    h = 1
    while h < a.shape[-1]:
        v = a.reshape(-1, 2, h)
        top = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(top, v[:, 1], out=v[:, 1])
        h *= 2
    return a


def spectral_traces(m: np.ndarray, x: np.ndarray, z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Complex ``tr(P_t m)`` for every string t given by its masks, read off
    the Pauli spectrum of m: ``i^{k_t} S[x_t, z_t]``.

    Only the spectrum rows the strings use are computed, each one O(d 2^d)
    Walsh-Hadamard transform of an x-diagonal of m however many strings read
    it, in blocks of at most ``TRACE_BLOCK`` entries; a block keeps only the
    entries its strings name, so no ``4^d`` array is formed.  A diagonal m
    (no nonzero entry off the diagonal) transforms row 0 alone: every other
    string's trace is an exact zero.
    """
    n = m.shape[0]
    if _is_diagonal(m):
        # every x-diagonal but the main one is zero, and so is its spectrum row
        out = np.zeros(len(x), dtype=np.complex128)
        main = np.flatnonzero(x == 0)
        if main.size:
            out[main] = walsh_hadamard(np.diagonal(m).copy())[z[main]]
        return _I_POWERS[k] * out
    j = np.arange(n)
    flat = m.ravel()
    rows, slot = np.unique(x, return_inverse=True)
    out = np.empty(len(x), dtype=np.complex128)
    per_block = max(1, TRACE_BLOCK // n)
    for lo in range(0, len(rows), per_block):
        spectrum = walsh_hadamard(flat[j * n + (j ^ rows[lo: lo + per_block, None])])
        t = np.flatnonzero((slot >= lo) & (slot < lo + per_block))
        out[t] = spectrum[slot[t] - lo, z[t]]
    return _I_POWERS[k] * out


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense ``2^d x 2^d`` matrix of the string's operator."""
    return synthesize(FourierTable.of(s.d, {s: 1.0}))


def fourier_coefficient(a: np.ndarray, s: PauliString) -> float:
    """Expansion coefficient ``tr(a sigma^s) / 2^d`` of ``a`` at string ``s``."""
    return fourier_transform(a, (s,))[s]


@dataclass(frozen=True)
class DegreeSet:
    """A finite, duplicate-free set of Pauli strings with a fixed iteration order.

    Strings are kept sorted lexicographically on their symbols so that any
    derived object (covers, batch plans, serialized tables) is reproducible.
    Build a set with :meth:`of`, which sorts the strings and drops
    duplicates; the constructor takes them as given.  Two views are built
    once per set, on first use, and are read-only: ``masks``, the strings'
    :func:`pauli_masks`, and ``index``, each string's position.
    """

    d: int
    strings: tuple[PauliString, ...]

    def __post_init__(self):
        if any(s.d != self.d for s in self.strings):
            raise ValueError("all strings in a degree set must have the same length")

    # degree sets and their batches key the class caches, so the hash is
    # taken once, on first use, with the value the generated one would have
    @cached_property
    def _hash(self) -> int:
        return hash((self.d, self.strings))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, d: int, strings: Iterable[PauliString]) -> "DegreeSet":
        return cls(d, tuple(sorted(set(strings))))

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        masks = pauli_masks(self.strings)
        for a in masks:
            a.flags.writeable = False
        return masks

    @cached_property
    def index(self) -> Mapping[PauliString, int]:
        return MappingProxyType({s: i for i, s in enumerate(self.strings)})

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.strings)

    def __contains__(self, s: PauliString) -> bool:
        return s in self.index

    def supported_in(self, coords: Iterable[int]) -> np.ndarray:
        """Boolean vector, set where the string's support lies inside
        ``coords``; coordinates outside ``[0, d)`` are ignored."""
        # bits of the coordinates, in the x_mask/z_mask layout
        inside = sum(1 << (self.d - 1 - c) for c in set(coords) if 0 <= c < self.d)
        x, z, _ = self.masks
        return ((x | z) & ~inside) == 0


@lru_cache(maxsize=DEGREE_SET_CACHE_SIZE)
def degree_set_upto(d: int, k: int) -> DegreeSet:
    """All strings on d qubits with at most k non-identity symbols, built once
    per ``(d, k)`` and shared by every caller (a degree set is immutable)."""
    return _strings_within(d, range(d), k, (1, 2, 3))


def degree_set_classical_upto(d: int, k: int) -> DegreeSet:
    """All diagonal (identity/Z) strings on d qubits with weight at most k."""
    return _strings_within(d, range(d), k, (3,))


def degree_set_within(d: int, coords: Iterable[int]) -> DegreeSet:
    """All strings whose support lies inside the given coordinate subset."""
    coords = sorted(set(coords))
    if any(not 0 <= c < d for c in coords):
        raise ValueError(f"coordinates must lie in [0, {d}), got {coords}")
    return _strings_within(d, coords, len(coords), (1, 2, 3))


def _strings_within(d: int, coords: Sequence[int], k: int, alphabet: tuple[int, ...]) -> DegreeSet:
    """The strings on d qubits supported on at most k of ``coords``, with a
    symbol of ``alphabet`` at each point of the support: one walk over the
    supports, so each string is built once."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    strings = []
    for j in range(k + 1):
        for support in itertools.combinations(coords, j):
            for fill in itertools.product(alphabet, repeat=j):
                symbols = [0] * d
                for q, v in zip(support, fill):
                    symbols[q] = v
                strings.append(PauliString(tuple(symbols)))
    return DegreeSet.of(d, strings)


@lru_cache(maxsize=DEGREE_SET_CACHE_SIZE)
def full_degree_set(d: int) -> DegreeSet:
    """All ``4^d`` strings; only sensible at small d."""
    return degree_set_within(d, range(d))


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Real expansion coefficients on a degree set: ``values[i]`` is the
    coefficient of ``degree_set.strings[i]``.

    The float64 vector is a read-only copy of the one given.  Iteration
    follows the degree set, lexicographic on the string symbols, for
    reproducible output; values come out as Python floats.
    """

    degree_set: DegreeSet
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (len(self.degree_set),):
            raise ValueError(f"need one value per string, got shape {values.shape}")
        if not np.isfinite(values).all():
            i = int(np.flatnonzero(~np.isfinite(values))[0])
            s = self.degree_set.strings[i]
            raise ValueError(f"coefficient at {s} is not finite: {float(values[i])!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, d: int, coefficients: Mapping[PauliString, float]) -> "FourierTable":
        """The table of a mapping from strings of length d to coefficients."""
        items = sorted(coefficients.items(), key=lambda item: item[0].symbols)
        return cls(DegreeSet(d, tuple(s for s, _ in items)), [c for _, c in items])

    @property
    def d(self) -> int:
        return self.degree_set.d

    def items(self) -> list[tuple[PauliString, float]]:
        return list(zip(self.degree_set.strings, self.values.tolist()))

    def get(self, s: PauliString, default: float = 0.0) -> float:
        i = self.degree_set.index.get(s)
        return default if i is None else float(self.values[i])

    def __getitem__(self, s: PauliString) -> float:
        return float(self.values[self.degree_set.index[s]])

    def __len__(self) -> int:
        return len(self.degree_set)

    def power(self) -> float:
        """Sum of squared coefficients."""
        return float(self.values @ self.values)

    def restricted(self, keep: np.ndarray) -> "FourierTable":
        """The entries where the boolean vector ``keep`` is set."""
        strings = tuple(itertools.compress(self.degree_set.strings, keep.tolist()))
        return FourierTable(DegreeSet(self.d, strings), self.values[keep])

    def restricted_to_coords(self, coords: Iterable[int]) -> "FourierTable":
        """Keep exactly the entries whose support lies inside ``coords``."""
        return self.restricted(self.degree_set.supported_in(coords))

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
        coeffs = {}
        for ln in lines[1:]:
            name, _, value = ln.partition(" ")
            s = PauliString.from_digits(name.strip().strip('"'))
            if s in coeffs:
                raise ValueError(f"coefficient table lists string {str(s)!r} twice")
            coeffs[s] = float(value)
        return cls.of(d, coeffs)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FourierTable":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


def fourier_transform(a: np.ndarray, strings: Iterable[PauliString]) -> FourierTable:
    """Expansion coefficients ``tr(a sigma^s) / 2^d`` of ``a`` at the given
    strings, a :class:`DegreeSet` or any iterable of strings on d qubits.

    The coefficients of a Hermitian operator are real; a normalized imaginary
    residue above ``COEFFICIENT_IMAG_TOL`` signals a non-Hermitian input and
    raises, naming the first such string.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not isinstance(strings, DegreeSet):
        strings = DegreeSet.of(len(a).bit_length() - 1, strings)
    n = 1 << strings.d
    if a.shape != (n, n):
        raise ValueError(f"operator shape {a.shape} does not match the strings' d={strings.d}")
    vals = spectral_traces(a, *strings.masks) / n
    bad = np.flatnonzero(np.abs(vals.imag) > COEFFICIENT_IMAG_TOL)
    if bad.size:
        raise ValueError(
            f"coefficient at {strings.strings[bad[0]]} has imaginary residue {vals.imag[bad[0]]:.3e} > "
            f"{COEFFICIENT_IMAG_TOL:.1e}; input is not Hermitian"
        )
    return FourierTable(strings, vals.real)


def synthesize(table: FourierTable) -> np.ndarray:
    """Dense operator ``sum_s c_s sigma^s`` from a coefficient table.

    Strings are added one at a time in sorted order, so every entry is the
    same floating-point sum whatever the block size.  Zero coefficients are
    skipped: a zero adds +-0.0 to entries that start at +0.0 and are never
    -0.0, so it changes no bit.
    """
    keep = table.values != 0.0
    return _accumulate(table.values[keep], table.d, [a[keep] for a in table.degree_set.masks])


def synthesize_stack(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Dense operators ``sum_s coeffs[i, s] sigma^s``, one per row of the
    ``(S, 4^d)`` coefficients over all d-qubit strings in sorted order.

    Each matrix is bit for bit ``synthesize`` of its row as a table (a string
    left out of a table adds the same bits as a zero coefficient).
    """
    return _accumulate(np.asarray(coeffs, dtype=np.float64), d, None)


def _accumulate(c: np.ndarray, d: int, masks) -> np.ndarray:
    """``sum_t c[..., t] P_t`` as dense ``(..., 2^d, 2^d)`` operators, from
    the strings' masks ``(x, z, k)``, or when ``masks`` is None from those
    of all ``4^d`` strings in sorted order; d is checked against
    ``MAX_QUBITS`` before any of them is built.  String t fills the entries
    ``(j ^ x_t, j)``, so each string's phase row is added, in the given
    order, to one row per distinct x mask, which starts from zero, and each
    row is scattered once: every entry is the same sequential sum as adding
    the strings one by one into the output.  The distinct x masks are taken
    in groups of at most ``TRACE_BLOCK`` row entries, and each group's
    strings' phases in blocks of as many, so besides the output only one
    group's rows are held."""
    if d > MAX_QUBITS:
        raise ValueError(f"dense synthesis capped at {MAX_QUBITS} qubits")
    x, z, k = full_degree_set(d).masks if masks is None else masks
    n = 1 << d
    out = np.zeros(c.shape[:-1] + (n, n), dtype=np.complex128)
    idx = np.arange(n)
    xs, slot = np.unique(x, return_inverse=True)
    per_block = max(1, TRACE_BLOCK // (out.size // n))
    for lo in range(0, len(xs), per_block):
        group = xs[lo: lo + per_block]
        rows = np.zeros(c.shape[:-1] + (len(group), n), dtype=np.complex128)
        members = np.flatnonzero((slot >= lo) & (slot < lo + per_block))
        for b in range(0, len(members), per_block):
            t = members[b: b + per_block]
            # the masks are nonnegative, so bitwise_count counts their set bits
            odd = np.bitwise_count(idx & z[t, None]) & 1
            phases = c[..., t, None] * (_I_POWERS[k[t], None] * (1.0 - 2.0 * odd))
            for i, row in enumerate((slot[t] - lo).tolist()):
                rows[..., row, :] += phases[..., i, :]
        out[..., group[:, None] ^ idx, idx] = rows
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
    return np.diag(label_signs(truth_table))


def label_signs(truth_table) -> np.ndarray:
    """The diagonal of :func:`classical_embedding`, as a complex vector."""
    values = np.asarray(truth_table)
    if values.ndim != 1 or len(values) < 2 or len(values) & (len(values) - 1):
        raise ValueError(f"truth table length must be a power of two >= 2, got {values.shape}")
    if not np.isin(values, (0, 1)).all():
        raise ValueError("truth table entries must be 0 or 1")
    return np.where(values == 1, 1.0, -1.0).astype(np.complex128)


def parse_truth_table(bits: str) -> np.ndarray:
    """Parse a truth table given as a string of 0/1 characters."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"truth table must be a nonempty string of 0/1, got {bits!r}")
    return np.array([int(c) for c in bits], dtype=np.int8)
