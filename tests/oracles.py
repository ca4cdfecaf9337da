"""Dense oracles that fast paths in ``qfl`` are tested against.

Each oracle is the straightforward implementation a fast path replaced:
bit parity by a shift-xor ladder, per-string Pauli phases, matrices, traces
(one gather per string), coefficients and synthesis (dense accumulation of
one string at a time), degree sets by filtering every word, a batch's
GF(2) reduction and eigenvalue table on its string objects, its joint law
from one trace gather per generator product, and its
prefix marginals, Pauli matrices as Kronecker products of single-qubit ones,
dense single-state measurement, sequential measurement with dense
post-measurement collapse, the joint-law sampler that walked every string
of a batch through per-string outcome tables and averaged an outcome matrix
(both on samples split into ``(state, label_sign, indices)`` groups), left
and right Pauli application on dense matrices, the conditional states of a
+-1 operator from its eigendecomposition, a realizable source checked and
built on the dense operator however sparse it is, pairwise commutation
by the symplectic rule on one pair of strings at a time,
cover search that builds and canonicalizes a ``Cover`` per candidate,
integer batch allocation by a heap started from one sample per subset, junta
subset selection by one k-qubit block per subset and on dense 2^d operators,
and the spectral sign of any Hermitian matrix, diagonal or not.

It also holds two of the paper's closed forms that only tests evaluate: the
cubic :func:`u_function` and :func:`popt_lower_bound`, the lower bound on the
optimal loss of a class concentrated on a degree set.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qfl.compatibility import (
    EXHAUSTIVE_MAX_SIZE,
    GREEDY_MASTER_SEED,
    GREEDY_RESTARTS,
    BatchPlan,
    Cover,
    _iter_clique_partitions,
    batch_weights,
    cover_score,
    is_clique,
)
from qfl.learner import COORD_TIE_RTOL
from qfl.operators import (
    SIGN_ZERO_TOL,
    as_operator,
    hermitian_eig,
    maximally_mixed,
    require_hermitian,
    rho_norm,
)
from qfl.pauli import (
    TRACE_BLOCK,
    _I_POWERS,
    DegreeSet,
    FourierTable,
    PauliString,
    synthesize,
)
from qfl.simulator import (
    MARGINAL_TOL,
    PROB_HARD_FLOOR,
    SIGN_OPERATOR_TOL,
    SampleSource,
    _checked_probability,
)

SINGLE_QUBIT = {
    0: np.eye(2, dtype=np.complex128),
    1: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    2: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    3: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def ladder_parity(v: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each nonnegative integer below 2^32, by a
    shift-xor ladder that folds the high half onto the low one."""
    v = v.copy()
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def kron_pauli(s: PauliString) -> np.ndarray:
    """The string's matrix as the Kronecker product of its symbols' matrices."""
    out = np.eye(1, dtype=np.complex128)
    for sym in s.symbols:
        out = np.kron(out, SINGLE_QUBIT[sym])
    return out


def phase_vector(s: PauliString) -> np.ndarray:
    """Per-basis-state phase of the string's action, as a complex vector."""
    idx = np.arange(1 << s.d)
    signs = 1.0 - 2.0 * ladder_parity(idx & s.z_mask)
    return (1j**s.y_count) * signs


def string_matrix(s: PauliString) -> np.ndarray:
    """Dense matrix of one string, written from its phase vector."""
    n = 1 << s.d
    idx = np.arange(n)
    m = np.zeros((n, n), dtype=np.complex128)
    m[idx ^ s.x_mask, idx] = phase_vector(s)
    return m


def pauli_expectation(s: PauliString, m: np.ndarray) -> np.ndarray:
    """``tr(sigma^s m)`` in O(2^d); works on stacks, returning one trace each."""
    idx = np.arange(1 << s.d)
    return (m[..., idx, idx ^ s.x_mask] * phase_vector(s)).sum(axis=-1)


def string_coefficients(a: np.ndarray, strings: Sequence[PauliString]) -> dict[PauliString, float]:
    """Expansion coefficients ``tr(a sigma^s) / 2^d``, one trace per string."""
    return {s: float((pauli_expectation(s, a) / (1 << s.d)).real) for s in strings}


def string_synthesize(table: FourierTable) -> np.ndarray:
    """``sum_s c_s sigma^s``, adding one string's phase vector at a time."""
    n = 1 << table.d
    idx = np.arange(n)
    out = np.zeros((n, n), dtype=np.complex128)
    for s, c in table.items():
        out[idx ^ s.x_mask, idx] += c * phase_vector(s)
    return out


def string_accumulate(c: np.ndarray, x: np.ndarray, z: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """``sum_t c[..., t] P_t`` as dense ``(..., n, n)`` operators, adding one
    string at a time, in the given order, straight into the output; the
    phases are taken in blocks of at most ``TRACE_BLOCK`` entries."""
    out = np.zeros(c.shape[:-1] + (n, n), dtype=np.complex128)
    idx = np.arange(n)
    rows = max(1, TRACE_BLOCK // (out.size // n))
    for lo in range(0, len(x), rows):
        block = slice(lo, lo + rows)
        phases = c[..., block, None] * (_I_POWERS[k[block], None] * (1.0 - 2.0 * ladder_parity(idx & z[block, None])))
        for t, xt in enumerate(x[block]):
            out[..., idx ^ xt, idx] += phases[..., t, :]
    return out


def pauli_traces(m: np.ndarray, x: np.ndarray, z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Complex ``tr(P_t m)`` for every string t given by its masks, one O(2^d)
    gather each, taken in blocks of at most ``TRACE_BLOCK`` entries to bound
    memory."""
    n = m.shape[0]
    j = np.arange(n)
    odd = ladder_parity(j).astype(bool)
    flat = m.ravel()
    out = np.empty(len(x), dtype=np.complex128)
    rows = max(1, TRACE_BLOCK // n)
    for lo in range(0, len(x), rows):
        block = slice(lo, lo + rows)
        vals = flat[j * n + (j ^ x[block, None])]
        sums = np.where(odd[j & z[block, None]], -vals, vals).sum(axis=1)
        out[block] = _I_POWERS[k[block]] * sums
    return out


def trace_law(state: np.ndarray, masks: tuple) -> np.ndarray:
    """``2^-r sum_T (-1)^{|b & T|} tr(state P_T)`` for every b, from the
    generator-product masks: one trace gather per product, then an in-place
    Walsh-Hadamard butterfly."""
    a = pauli_traces(state, *masks).real.copy()
    h = 1
    while h < len(a):
        v = a.reshape(-1, 2, h)
        top = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(top, v[:, 1], out=v[:, 1])
        h *= 2
    a /= len(a)
    return a


def joint_law(state, generators: Sequence[PauliString]) -> np.ndarray:
    """Joint outcome law of mutually commuting, independent strings on a state.

    Entry ``b`` is the probability that generator ``g`` shows eigenvalue
    ``(-1)^{bit g of b}``, namely ``2^-r sum_T (-1)^{|b & T|} tr(state P_T)``
    over the ``2^r`` generator products ``P_T``.
    """
    return trace_law(np.asarray(state, dtype=np.complex128), object_product_masks(generators))


def object_product_masks(generators: Sequence[PauliString]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks ``x_T``, ``z_T`` and phase exponents ``k_T`` of every product
    ``P_T`` of the generators, indexed by the subset bitmask T, from each
    generator string's own masks and Y count."""
    x = np.zeros(1, dtype=np.int64)
    z = np.zeros(1, dtype=np.int64)
    k = np.zeros(1, dtype=np.int64)
    for s in generators:
        k = np.concatenate((k, k + s.y_count + 2 * ladder_parity(x & s.z_mask)))
        x = np.concatenate((x, x ^ s.x_mask))
        z = np.concatenate((z, z ^ s.z_mask))
    return x, z, k % 4


def object_reduce_batch(batch: DegreeSet) -> tuple[list[PauliString], list[tuple[int, int, int]]]:
    """GF(2) reduction of a commuting batch on its string objects, in batch
    order: the generators (the strings independent of all earlier ones) and
    per string ``(g, combo, sign)``.  A generator has its index ``g``; any
    other string has ``g = -1`` and equals ``sign`` (+-1) times the product
    of the generators in the bitmask ``combo``."""
    d = batch.d
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, generator bitmask)
    generators: list[PauliString] = []
    columns: list[tuple[int, int]] = []
    for s in batch:
        v = (s.x_mask << d) | s.z_mask
        combo = 0
        while v and (v.bit_length() - 1) in basis:
            vec, cmb = basis[v.bit_length() - 1]
            v ^= vec
            combo ^= cmb
        if v:
            basis[v.bit_length() - 1] = (v, combo | (1 << len(generators)))
            columns.append((len(generators), 0))
            generators.append(s)
        else:
            columns.append((-1, combo))
    # both sides send |0> to a power of i times |x>, and for commuting
    # strings the exponents differ by 0 (sign +1) or 2 (sign -1)
    k = object_product_masks(generators)[2]
    return generators, [
        (g, combo, 1 - (s.y_count - int(k[combo])) % 4 if g < 0 else 1)
        for s, (g, combo) in zip(batch, columns)
    ]


def object_eigenvalues(columns: Sequence[tuple[int, int, int]], rank: int) -> np.ndarray:
    """``E[p, l]``, column by column: ``(-1)^(bit g of p)`` for generator g,
    and ``sign (-1)^parity(p & combo)`` for any other string."""
    prefixes = np.arange(1 << rank)
    table = np.empty((1 << rank, len(columns)), dtype=np.int8)
    for col, (g, combo, sign) in enumerate(columns):
        if g >= 0:
            combo, sign = 1 << g, 1
        table[:, col] = sign * (1 - 2 * ladder_parity(prefixes & combo))
    return table


def prefix_tree(law: np.ndarray) -> np.ndarray:
    """Prefix marginals of a law over r bits, level g at offset ``2^g``:
    ``tree[2^g + p]`` is the mass whose low g bits equal p."""
    size = len(law)
    tree = np.empty(2 * size)
    tree[size:] = law
    for g in range(size.bit_length() - 2, -1, -1):
        level = tree[2 << g: 4 << g]
        tree[1 << g: 2 << g] = level[: 1 << g] + level[1 << g:]
    return tree


def measure(state, effects: Sequence[np.ndarray], rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Sample one outcome of a projective POVM and return the collapsed state.

    The outcome is the effect index; probabilities are clamped into [0, 1],
    and anything below the hard floor is an error rather than a sample.
    """
    state = as_operator(state)
    probs = [
        _checked_probability(float(np.einsum("ij,ji->", e, state).real))
        for e in effects
    ]
    u = rng.random()
    acc = 0.0
    outcome = len(effects) - 1
    for v, p in enumerate(probs):
        acc += p
        if u < acc:
            outcome = v
            break
    eff = effects[outcome]
    post = eff @ state @ eff
    tr = float(np.trace(post).real)
    if tr <= 0.0:
        raise ValueError("post-measurement state has nonpositive trace")
    return outcome, post / tr


def pauli_apply_left(s: PauliString, m: np.ndarray) -> np.ndarray:
    """``sigma^s @ m`` for a matrix or a stack of matrices (..., 2^d, 2^d)."""
    n = 1 << s.d
    rows = np.arange(n) ^ s.x_mask
    ph = phase_vector(s)[rows]
    return np.take(m, rows, axis=-2) * ph[:, None]


def pauli_apply_right(s: PauliString, m: np.ndarray) -> np.ndarray:
    """``m @ sigma^s`` for a matrix or a stack of matrices."""
    n = 1 << s.d
    idx = np.arange(n)
    cols = idx ^ s.x_mask
    ph = phase_vector(s)
    return np.take(m, cols, axis=-1) * ph[None, :]


def collapse_measure_batch_groups(
    groups: Sequence[tuple[np.ndarray, float, np.ndarray]],
    batch: DegreeSet,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Sequentially measure a commuting batch over groups of identical samples,
    collapsing dense states string by string (the engine the joint-law sampler
    replaced).

    ``groups`` lists ``(state, label_sign, sample_indices)`` triples whose
    indices partition the rows of ``uniforms`` (one row per sample, one column
    per batch string).  Sample ``i`` gets outcome +1 on string ``l`` exactly
    when ``uniforms[i, l]`` falls below the +1 branch probability of its
    group's current collapsed state, so results do not depend on how samples
    are grouped or scheduled.  Returns the +-1 outcome matrix.
    """
    if len(batch) == 0:
        raise ValueError("batch must contain at least one string")
    if not is_clique(batch):
        raise ValueError("batch strings do not mutually commute; not jointly measurable")
    n_total, m = uniforms.shape
    if m != len(batch):
        raise ValueError("uniforms must have one column per batch string")
    outcomes = np.empty((n_total, m), dtype=np.int8)

    states = np.stack([g[0] for g in groups]).astype(np.complex128)
    signs = np.array([g[1] for g in groups], dtype=float)
    index_sets = [np.asarray(g[2], dtype=np.intp) for g in groups]

    for col, s in enumerate(batch):
        expect = pauli_expectation(s, states).real
        p_plus = np.array([_checked_probability(0.5 * (1.0 + c * t))
                           for c, t in zip(signs, expect)])
        plus_sets: list[np.ndarray] = []
        minus_sets: list[np.ndarray] = []
        for g, idx in enumerate(index_sets):
            took_plus = uniforms[idx, col] < p_plus[g]
            outcomes[idx, col] = np.where(took_plus, 1, -1)
            plus_sets.append(idx[took_plus])
            minus_sets.append(idx[~took_plus])
        if col == m - 1:
            break
        # collapse: (I +- c sigma)/2 applied on both sides, in place, with the
        # float operations of 0.25 * (rho +- c (sigma rho + rho sigma) + sigma rho sigma)
        right = pauli_apply_right(s, states)
        both = pauli_apply_left(s, right)
        cross = pauli_apply_left(s, states)
        cross += right
        del right
        cross *= signs[:, None, None]
        plus_states = states + cross
        plus_states += both
        plus_states *= 0.25
        minus_states = np.subtract(states, cross, out=cross)
        minus_states += both
        minus_states *= 0.25
        del both
        next_states = []
        next_signs = []
        next_indices = []
        for g in range(len(index_sets)):
            for branch_states, idx in ((plus_states, plus_sets[g]), (minus_states, minus_sets[g])):
                if idx.size == 0:
                    continue
                st = branch_states[g]
                tr = float(np.trace(st).real)
                if tr <= 0.0:
                    raise ValueError("collapsed onto a zero-probability branch")
                st /= tr
                next_states.append(st)
                next_signs.append(signs[g])
                next_indices.append(idx)
        states = np.stack(next_states)
        signs = np.array(next_signs, dtype=float)
        index_sets = next_indices
    return outcomes


@dataclass(frozen=True)
class TableBatch:
    """A batch's per-column tables on some states: ``probs`` as a prepared
    batch lays it out, and for each dependent string the table of whether
    its outcome is +1 (None for generators)."""

    columns: np.ndarray
    probs: np.ndarray
    outcomes: tuple


def table_prepare_batch(batch: DegreeSet, states: Sequence[np.ndarray]) -> TableBatch:
    """Generator probabilities filled one generator level at a time from each
    state's :func:`trace_law`, one trace gather per generator product, and a bool
    table per dependent string: the label sign times
    ``(-1)^(parity(p & combo) ^ (sign < 0))`` is +1."""
    generators, columns = object_reduce_batch(batch)
    trees = np.stack([prefix_tree(trace_law(state, object_product_masks(generators))) for state in states])
    probs = np.full((2 * len(states), trees.shape[1]), np.nan)
    for g in range(len(generators)):
        level = slice(1 << g, 2 << g)
        denom = trees[:, level]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (2.0 * trees[:, 2 << g: 3 << g] - denom) / denom
        for row, c in ((0, -1.0), (1, 1.0)):
            probs[row::2, level] = np.where(denom > 0.0, 0.5 * (1.0 + c * t), np.nan)
    outcomes = []
    h = 0  # generators before the column
    for g, combo, sign in columns:
        if g >= 0:
            outcomes.append(None)
            h += 1
            continue
        flip = (ladder_parity(np.arange(1 << h) & combo) ^ (sign < 0)).astype(bool)
        table = np.zeros(probs.shape, dtype=bool)
        table[0::2, 1 << h: 2 << h] = flip
        table[1::2, 1 << h: 2 << h] = ~flip
        outcomes.append(table)
    return TableBatch(np.array(columns, dtype=np.int64).reshape(-1, 3), probs, tuple(outcomes))


def table_measure_batch_groups(
    groups: Sequence[tuple[np.ndarray, float, np.ndarray]],
    batch: DegreeSet,
    uniforms: np.ndarray,
) -> np.ndarray:
    """The +-1 outcome matrix of a commuting batch, walked string by string:
    a generator column compares each sample's uniform with its gathered
    probability and moves its prefix down a level, a dependent column
    gathers its outcome table.  The law is taken once per distinct state
    object."""
    tree_index: dict[int, int] = {}
    states = []
    for state, _, _ in groups:
        if id(state) not in tree_index:
            tree_index[id(state)] = len(states)
            states.append(state)
    batch = table_prepare_batch(batch, states)
    groups = [(tree_index[id(state)], c, idx) for state, c, idx in groups]
    n_total, m = uniforms.shape
    if m != len(batch.columns):
        raise ValueError("uniforms must have one column per batch string")
    width = batch.probs.shape[1]
    index = np.empty(n_total, dtype=np.int64)
    positive = np.empty(n_total, dtype=bool)
    for state, c, idx in groups:
        index[idx] = (2 * state + (c > 0)) * width + 1
        positive[idx] = c > 0
    probs = batch.probs.ravel()
    hits = np.empty((n_total, m), dtype=bool)
    for col, (g, table) in enumerate(zip(batch.columns[:, 0].tolist(), batch.outcomes)):
        if g < 0:
            hits[:, col] = table.take(index)
            continue
        p = probs.take(index)
        if not np.minimum.reduce(p, initial=0.0) >= PROB_HARD_FLOOR:
            if np.isnan(p).any():
                raise ValueError("a sample reached an outcome prefix of zero probability")
            _checked_probability(p)
        took = np.less(uniforms[:, col], p, out=hits[:, col])
        index += np.where(took ^ positive, 2 << g, 1 << g)
    outcomes = hits.view(np.int8) * np.int8(2)
    outcomes -= np.int8(1)
    return outcomes


def sample_groups(states, bases: np.ndarray, labels: np.ndarray) -> list[tuple]:
    """The samples ``(bases, labels)`` as the group-form engines take them:
    ``(states[base], label_sign, sample_indices)`` for each ``(base, label)``
    pair that occurs, in pair order, label sign ``2 label - 1``."""
    key = 2 * bases.astype(np.int64) + labels
    groups = []
    for base in range(len(states)):
        for label in (0, 1):
            idx = np.flatnonzero(key == 2 * base + label)
            if idx.size:
                groups.append((states[base], 2.0 * label - 1.0, idx))
    return groups


def table_fourier_estimation(source, bases, labels, cover, plan, rng) -> FourierTable:
    """Estimates as the means of each batch's outcome matrix, batch by batch
    on consecutive slices of the samples, with one ``(size, m)`` block of
    uniforms per batch."""
    estimates = {}
    pos = 0
    for subset, size in zip(cover.subsets, plan.sizes):
        chunk = slice(pos, pos + size)
        pos += size
        uniforms = rng.random((size, len(subset)))
        groups = sample_groups((source.rho0, source.rho1), bases[chunk], labels[chunk])
        outcomes = table_measure_batch_groups(groups, subset, uniforms)
        means = outcomes.mean(axis=0)
        for col, s in enumerate(subset):
            estimates[s] = float(means[col])
    return FourierTable.of(cover.d, estimates)


def eigh_realizable_states(f_op) -> tuple[np.ndarray, np.ndarray]:
    """``(rho0, rho1)`` of a +-1 operator as the normalized projections onto
    its eigenvectors from ``eigh`` (the maximally mixed state for an empty
    side), whatever the operator's structure."""
    f_op = as_operator(f_op)
    d = f_op.shape[0].bit_length() - 1
    w, v = np.linalg.eigh(f_op)
    states = []
    for u in (v[:, w <= 0], v[:, w > 0]):
        states.append(u @ u.conj().T / u.shape[1] if u.shape[1] else maximally_mixed(d))
    return states[0], states[1]


def dense_realizable_source(f_op) -> SampleSource:
    """:func:`qfl.simulator.make_realizable_source` computed on the dense
    matrix for every operator: the Hermitian check, ``F^2 = I`` by one
    product, ``n_+ = (2^d + tr F)/2``, the states ``(I -+ F)/(2 n_-+)`` (the
    maximally mixed state for an empty side) and the test of the mixture
    against ``I / 2^d``, each on ``2^d x 2^d`` matrices."""
    f_op = require_hermitian(f_op)
    n = f_op.shape[0]
    d = n.bit_length() - 1
    eye = np.eye(n, dtype=np.complex128)
    defect = float(np.abs(f_op @ f_op - eye).max())
    if defect > SIGN_OPERATOR_TOL:
        raise ValueError(f"not a +-1 operator: max |F^2 - I| = {defect:.3e}")
    half_plus = (n + float(np.diagonal(f_op).real.sum())) / 2.0
    n_plus = round(half_plus)
    if abs(half_plus - n_plus) > n * SIGN_OPERATOR_TOL:
        raise ValueError(f"not a +-1 operator: {half_plus!r} is not an eigenspace dimension")
    n_minus = n - n_plus
    rho0 = (eye - f_op) / (2 * n_minus) if n_minus else maximally_mixed(d)
    rho1 = (eye + f_op) / (2 * n_plus) if n_plus else maximally_mixed(d)
    p0 = 1.0 - n_plus / n
    mix = p0 * rho0 + (1.0 - p0) * rho1
    return SampleSource(
        realizable=True,
        d=d,
        p0=p0,
        rho0=rho0,
        rho1=rho1,
        maximally_mixed=bool(np.abs(mix - maximally_mixed(d)).max() <= MARGINAL_TOL),
        degenerate=n_plus in (0, n),
    )


def u_function(x: float) -> float:
    """The cubic ``x^3 + 3/2 x^2 + 5/4 x``; bounded by ``4x`` on [0, 1]."""
    if x < 0:
        raise ValueError("u_function is defined for x >= 0")
    return x**3 + 1.5 * x**2 + 1.25 * x


def popt_lower_bound(table: FourierTable, degree_set: DegreeSet, eps: float = 0.0) -> float:
    """Lower bound ``1/2 - 1/2 ||sum_{s in A} f_s sigma^s||_1,mm - eps`` on the
    optimal loss of any class concentrated on the degree set."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    op = synthesize(FourierTable.of(table.d, {s: c for s, c in table.items() if s in degree_set}))
    return 0.5 - 0.5 * rho_norm(op, 1, maximally_mixed(table.d)) - eps


def brute_degree_set(d: int, k: int, alphabet: Sequence[int] = (1, 2, 3), coords=None) -> DegreeSet:
    """Every word of ``product(range(4), repeat=d)`` of weight at most k
    whose non-identity symbols lie in ``alphabet``, and its support in
    ``coords`` when they are given."""
    inside = set(range(d) if coords is None else coords)
    return DegreeSet.of(d, (
        PauliString(w) for w in itertools.product(range(4), repeat=d)
        if sum(v != 0 for v in w) <= k
        and all(v == 0 or (v in alphabet and q in inside) for q, v in enumerate(w))
    ))


def pauli_commute(s: PauliString, t: PauliString) -> bool:
    """True when the two strings' operators commute, by the symplectic rule on
    one pair of masks: ``parity((s.x & t.z) ^ (s.z & t.x)) == 0``."""
    if s.d != t.d:
        raise ValueError(f"length mismatch: {s.d} vs {t.d}")
    return ((s.x_mask & t.z_mask) ^ (s.z_mask & t.x_mask)).bit_count() & 1 == 0


def pairwise_commutation(strings: Sequence[PauliString]) -> np.ndarray:
    """Commutation matrix from one ``pauli_commute`` call per pair."""
    n = len(strings)
    adj = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = pauli_commute(strings[i], strings[j])
    return adj


def heap_allocate_batches(n: int, cover: Cover, delta: float) -> BatchPlan:
    """Integer allocation minimizing ``sum_j w_j / n_j``: start from one sample
    per subset and give each further sample to the largest marginal decrease
    ``w_j / (n_j (n_j + 1))``, ties to the lower index."""
    m = cover.m
    if n < m:
        raise ValueError(f"need at least one sample per subset: n={n} < m={m}")
    w = batch_weights(cover, delta)
    if m == 1:
        return BatchPlan((n,))
    sizes = [1] * m
    heap = [(-w[j] / 2.0, j) for j in range(m)]
    heapq.heapify(heap)
    for _ in range(n - m):
        _, j = heapq.heappop(heap)
        sizes[j] += 1
        x = sizes[j]
        heapq.heappush(heap, (-w[j] / (x * (x + 1)), j))
    return BatchPlan(tuple(sizes))


def greedy_cover(nodes: DegreeSet, adjacency: np.ndarray, ordering: Sequence[int]) -> Cover:
    """First-fit clique partition on boolean adjacency rows: scan nodes in the
    given order, each node joining the first subset it commutes with entirely,
    else opening a new one."""
    members: list[list[int]] = []
    # compat[k] marks the nodes commuting with every current member of subset k
    compat: list[np.ndarray] = []
    for v in ordering:
        for k, mask in enumerate(compat):
            if mask[v]:
                members[k].append(v)
                compat[k] = mask & adjacency[v]
                break
        else:
            members.append([v])
            compat.append(adjacency[v].copy())
    strings = nodes.strings
    return Cover(tuple(DegreeSet.of(nodes.d, [strings[i] for i in blk]) for blk in members))


def canonical(cover: Cover) -> Cover:
    """Subsets reordered lexicographically by content."""
    return Cover(tuple(sorted(cover.subsets, key=lambda b: b.strings)))


def object_best_cover(nodes: DegreeSet, n: int, delta: float, strategy: str = "greedy") -> Cover:
    """Cover search that builds a canonical ``Cover`` for every candidate and
    keeps the least ``(score, subset contents)``."""
    adjacency = pairwise_commutation(nodes.strings)
    size = len(nodes)
    strings = nodes.strings
    if strategy == "exhaustive":
        if size > EXHAUSTIVE_MAX_SIZE:
            raise ValueError(f"exhaustive cover search is capped at {EXHAUSTIVE_MAX_SIZE} strings")
        masks = [sum(1 << j for j in range(size) if adjacency[i, j]) for i in range(size)]
        candidates = (
            Cover(tuple(DegreeSet.of(nodes.d, [strings[i] for i in blk]) for blk in blocks))
            for blocks in _iter_clique_partitions(masks)
        )
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(GREEDY_MASTER_SEED)))
        orderings = [list(range(size))]
        orderings += [list(rng.permutation(size)) for _ in range(GREEDY_RESTARTS)]
        candidates = (greedy_cover(nodes, adjacency, ordering) for ordering in orderings)
    best = None
    for cover in candidates:
        cover = canonical(cover)
        key = (cover_score(cover, n, delta), tuple(b.strings for b in cover.subsets))
        if best is None or key < best[0]:
            best = (key, cover)
    return best[1]


def block(table: FourierTable, coords: Sequence[int]) -> FourierTable:
    """The entries of ``table`` supported inside ``coords``, re-indexed onto
    ``len(coords)`` qubits: qubit j of the block is coordinate ``coords[j]``.
    ``synthesize(table.restricted_to_coords(coords))`` acts as the block's
    operator on those coordinates and as the identity on the rest."""
    coords = tuple(coords)
    keep = set(coords)
    if not coords or len(keep) != len(coords) or not keep <= set(range(table.d)):
        raise ValueError(f"need one or more distinct coordinates in [0, {table.d}), got {coords}")
    # bits outside the coordinates, in the x_mask/z_mask layout
    outside = ((1 << table.d) - 1) ^ sum(1 << (table.d - 1 - c) for c in coords)
    return FourierTable.of(
        len(coords),
        {
            PauliString(tuple(s.symbols[c] for c in coords)): v
            for s, v in table.items()
            if not (s.x_mask | s.z_mask) & outside
        },
    )


def subset_norms(table: FourierTable, k: int) -> list[float]:
    """Maximally-mixed trace norm of each k-coordinate subset's block, one
    ``block``, ``synthesize`` and ``rho_norm`` call per subset, in
    lexicographic subset order."""
    mm = maximally_mixed(k)
    return [rho_norm(synthesize(block(table, coords)), 1, mm)
            for coords in itertools.combinations(range(table.d), k)]


def subset_best_coords(table: FourierTable, k: int) -> tuple[float, tuple[int, ...]]:
    """Selection by one block per subset (the loop the stacked selection
    replaced): the largest norm up to a relative ``COORD_TIE_RTOL``, and the
    first subset attaining it."""
    if k == 0:
        return abs(table.get(PauliString.identity(table.d))), ()
    subsets = list(itertools.combinations(range(table.d), k))
    norms = subset_norms(table, k)
    floor = max(norms) * (1.0 - COORD_TIE_RTOL)
    first = next(i for i, norm in enumerate(norms) if norm >= floor)
    return norms[first], subsets[first]


def dense_subset_norms(table: FourierTable, k: int) -> dict[tuple[int, ...], float]:
    """Maximally-mixed trace norm of the dense 2^d restriction of ``table`` to
    each k-coordinate subset, in lexicographic subset order."""
    mm = maximally_mixed(table.d)
    return {
        coords: rho_norm(synthesize(table.restricted_to_coords(coords)), 1, mm)
        for coords in itertools.combinations(range(table.d), k)
    }


def dense_best_coords(table: FourierTable, k: int) -> tuple[float, tuple[int, ...]]:
    """Largest dense subset norm and the lexicographically first subset
    attaining it."""
    norms = dense_subset_norms(table, k)
    chosen = max(norms, key=norms.get)
    return norms[chosen], chosen


def spectral_sign(h) -> np.ndarray:
    """Sign of a Hermitian matrix through its eigendecomposition, whatever
    its structure, with the tie rule of ``sign_operator``."""
    spec = hermitian_eig(h)
    signs = np.where(spec.eigenvalues < -SIGN_ZERO_TOL, -1.0, 1.0)
    v = spec.eigenvectors
    out = (v * signs) @ v.conj().T
    return (out + out.conj().T) / 2.0
