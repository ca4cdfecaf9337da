"""Dense oracles that fast paths in ``qfl`` are tested against.

Each oracle is the straightforward implementation a fast path replaced:
sequential measurement with dense post-measurement collapse, left and right
Pauli application on dense matrices, pairwise commutation, cover search that
builds and canonicalizes a ``Cover`` per candidate, integer batch
allocation by a heap started from one sample per subset, and junta subset
selection on dense 2^d operators.
"""

from __future__ import annotations

import heapq
import itertools
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
    commutation_matrix,
    cover_score,
    is_clique,
    pauli_commute,
)
from qfl.operators import maximally_mixed, rho_norm
from qfl.pauli import (
    DegreeSet,
    FourierTable,
    PauliString,
    pauli_expectation,
    phase_vector,
    synthesize,
)
from qfl.simulator import _checked_probability


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
    adjacency = commutation_matrix(nodes.strings)
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
