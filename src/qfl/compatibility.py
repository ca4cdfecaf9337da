"""Joint-measurability structure of Pauli estimation observables.

Two single-coefficient estimation observables can share a sample exactly when
their Pauli strings commute, so the planning problem is: partition a degree
set into commuting cliques and split the sample budget across the cliques.
This module provides the symplectic commutation matrix, a cover search that
scores clique partitions of string indices by the estimation-error functional
(greedy first-fit over fixed orderings, or exhaustive enumeration), and the
optimal integer batch allocation.

Natural logarithms are used throughout the score and allocation formulas.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .pauli import DegreeSet, PauliString

EXHAUSTIVE_MAX_SIZE = 12
GREEDY_RESTARTS = 32
GREEDY_MASTER_SEED = 0x51C0FFEE


def commutation_matrix(nodes: DegreeSet) -> np.ndarray:
    """Boolean matrix of pairwise commutation of a degree set's strings.

    Symplectic rule: strings s and t commute iff the number of coordinates
    where both are non-identity and different is even, i.e.
    ``parity((s.x & t.z) ^ (s.z & t.x)) == 0``.  It is applied to all pairs
    of the masks at once, on copies in the narrowest unsigned type that holds
    d bits.  Every cover search and cover check runs this one kernel."""
    dtype = np.min_scalar_type((1 << nodes.d) - 1)
    x, z = (a.astype(dtype) for a in nodes.masks[:2])
    # the masks are nonnegative, so bitwise_count counts their set bits
    return np.bitwise_count((x[:, None] & z) ^ (z[:, None] & x)) & 1 == 0


@dataclass(frozen=True)
class Cover:
    """A partition of a degree set into commuting cliques."""

    subsets: tuple[DegreeSet, ...]

    def __post_init__(self):
        if not self.subsets:
            raise ValueError("a cover needs at least one subset")
        if any(len(b) == 0 for b in self.subsets):
            raise ValueError("cover subsets must be nonempty")
        if len(self.covered) != sum(self.sizes()):
            raise ValueError("a string appears in more than one subset")

    @property
    def m(self) -> int:
        return len(self.subsets)

    @property
    def d(self) -> int:
        return self.subsets[0].d

    @cached_property
    def covered(self) -> DegreeSet:
        return DegreeSet.of(self.d, (s for b in self.subsets for s in b))

    @cached_property
    def positions(self) -> tuple[np.ndarray, ...]:
        """Per subset, the read-only positions of its strings in ``covered``."""
        index = self.covered.index
        out = tuple(np.array([index[s] for s in b], dtype=np.intp) for b in self.subsets)
        for a in out:
            a.flags.writeable = False
        return out

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.subsets)

    def to_text(self) -> str:
        return "\n".join(",".join(str(s) for s in b) for b in self.subsets) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Cover":
        subsets = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            strings = [PauliString.from_digits(tok.strip()) for tok in ln.split(",")]
            subsets.append(DegreeSet.of(strings[0].d, strings))
        return cls(tuple(subsets))


def is_clique(subset: DegreeSet) -> bool:
    return bool(commutation_matrix(subset).all())


def check_cover(cover: Cover, nodes: DegreeSet) -> None:
    """Raise unless the cover partitions ``nodes`` into commuting cliques."""
    if cover.covered != nodes:
        raise ValueError("cover does not cover exactly the requested degree set")
    for b in cover.subsets:
        if not is_clique(b):
            raise ValueError(f"subset {{{','.join(map(str, b))}}} is not mutually commuting")


def _size_weights(sizes: Sequence[int], delta: float) -> np.ndarray:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    sizes = np.array(sizes, dtype=float)
    return sizes * np.log(2.0 * sizes / delta)


def _size_score(sizes: Sequence[int], n: int, delta: float) -> float:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return float(np.sqrt(_size_weights(sizes, delta) / n).sum() ** 2)


def batch_weights(cover: Cover, delta: float) -> np.ndarray:
    """Per-subset weights ``|B_j| * ln(2 |B_j| / delta)`` used by score and allocation."""
    return _size_weights(cover.sizes(), delta)


def cover_score(cover: Cover, n: int, delta: float) -> float:
    """Squared estimation-error functional ``(sum_j sqrt(w_j / n))^2``.

    The probability-(1-delta) bound on the summed squared coefficient errors
    is ``8 *`` this value once batches are allocated optimally; the factor 8
    is carried separately by callers that report error bounds.
    """
    return _size_score(cover.sizes(), n, delta)


def singleton_cover(nodes: DegreeSet) -> Cover:
    """The always-valid cover made of one subset per string."""
    return Cover(tuple(DegreeSet.of(nodes.d, [s]) for s in nodes))


def _adjacency_masks(nodes: DegreeSet) -> list[int]:
    """Commutation rows as integers: bit ``j`` of entry ``i`` is set when
    strings ``i`` and ``j`` commute."""
    packed = np.packbits(commutation_matrix(nodes), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _first_fit_partitions(adj: list[int]):
    """First-fit clique partitions for the lexicographic ordering and the
    ``GREEDY_RESTARTS`` seeded orderings: each index joins the first block it
    commutes with entirely, else opens a new one."""
    n = len(adj)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(GREEDY_MASTER_SEED)))
    orderings = [range(n)] + [rng.permutation(n).tolist() for _ in range(GREEDY_RESTARTS)]
    for ordering in orderings:
        blocks: list[list[int]] = []
        compat: list[int] = []  # bitmask of indices commuting with all block members
        for v in ordering:
            bit = 1 << v
            for k, mask in enumerate(compat):
                if mask & bit:
                    blocks[k].append(v)
                    compat[k] = mask & adj[v]
                    break
            else:
                blocks.append([v])
                compat.append(adj[v])
        yield blocks


def _iter_clique_partitions(adj_masks: list[int]):
    """Yield every partition of the indices of ``adj_masks`` into cliques, as
    lists of index lists.

    Nodes are assigned in index order to an existing compatible block or to a
    fresh block, so each clique partition is produced exactly once.
    """
    n = len(adj_masks)
    blocks: list[list[int]] = []
    compat: list[int] = []  # bitmask of nodes compatible with all block members

    def rec(i: int):
        if i == n:
            yield [list(b) for b in blocks]
            return
        bit = 1 << i
        for k in range(len(blocks)):
            if compat[k] & bit:
                blocks[k].append(i)
                saved = compat[k]
                compat[k] = saved & adj_masks[i]
                yield from rec(i + 1)
                compat[k] = saved
                blocks[k].pop()
        blocks.append([i])
        compat.append(adj_masks[i])
        yield from rec(i + 1)
        blocks.pop()
        compat.pop()

    yield from rec(0)


def best_cover(nodes: DegreeSet, n: int, delta: float, strategy: str = "greedy") -> Cover:
    """Search for a low-score commuting-clique partition of ``nodes``.

    Candidates are partitions of the string indices into commuting blocks.
    ``greedy`` takes the first-fit partitions of the lexicographic ordering
    and ``GREEDY_RESTARTS`` seeded random orderings; ``exhaustive`` enumerates
    all clique partitions and is capped at ``EXHAUSTIVE_MAX_SIZE`` strings.
    The lowest score wins, ties broken by content: the sorted tuple of sorted
    index blocks, which orders candidates as their strings do because
    ``nodes.strings`` is sorted.  Subsets come out in that canonical order.
    """
    if len(nodes) == 0:
        raise ValueError("cannot cover an empty degree set")
    if strategy not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown cover strategy {strategy!r}")
    if strategy == "exhaustive" and len(nodes) > EXHAUSTIVE_MAX_SIZE:
        raise ValueError(
            f"exhaustive cover search is capped at {EXHAUSTIVE_MAX_SIZE} strings; got {len(nodes)}"
        )
    adj = _adjacency_masks(nodes)
    if strategy == "exhaustive":
        candidates = _iter_clique_partitions(adj)
    else:
        candidates = _first_fit_partitions(adj)
    best = None
    for blocks in candidates:
        # sizes are scored in canonical block order, the order cover_score sums
        # a Cover's subsets in, so float ties come out as they do for Covers
        key = tuple(sorted(tuple(sorted(b)) for b in blocks))
        scored = (_size_score([len(b) for b in key], n, delta), key)
        if best is None or scored < best:
            best = scored
    strings = nodes.strings
    return Cover(tuple(DegreeSet.of(nodes.d, [strings[i] for i in blk]) for blk in best[1]))


@dataclass(frozen=True)
class BatchPlan:
    """Integer sample counts, one per cover subset, summing to the budget."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if any(s < 0 for s in self.sizes):
            raise ValueError("batch sizes must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.sizes)


def allocate_batches(n: int, cover: Cover, delta: float) -> BatchPlan:
    """Split ``n`` samples across the cover subsets to minimize ``sum_j w_j / n_j``.

    The real-valued optimum is ``n_j* = n sqrt(w_j) / sum_k sqrt(w_k)``
    (the square-root rule).  The integer plan starts from
    ``max(1, floor((n - m) sqrt(w_j) / sum_k sqrt(w_k)))``, which never
    exceeds the integer optimum in any subset, and then repeatedly gives the
    next sample to the subset with the largest marginal decrease
    ``w_j / (n_j (n_j + 1))``, ties to the lower index.  The marginals are
    decreasing, so the plan is the exact integer optimum that greedy
    allocation from one sample per subset reaches.
    """
    m = cover.m
    if n < m:
        raise ValueError(
            f"need at least one sample per subset, n >= number of cover subsets: n={n} < m={m}"
        )
    w = batch_weights(cover, delta)
    if m == 1:
        return BatchPlan((n,))
    root = np.sqrt(w)
    sizes = np.maximum(1, np.floor((n - m) * root / root.sum())).astype(int).tolist()
    # heap of (-marginal decrease, subset index); index breaks exact ties
    heap = [(-w[j] / (x * (x + 1)), j) for j, x in enumerate(sizes)]
    heapq.heapify(heap)
    for _ in range(n - sum(sizes)):
        _, j = heapq.heappop(heap)
        sizes[j] += 1
        x = sizes[j]
        heapq.heappush(heap, (-w[j] / (x * (x + 1)), j))
    return BatchPlan(tuple(sizes))


def allocation_objective(sizes: Sequence[int], cover: Cover, delta: float) -> float:
    """The quantity ``sum_j w_j / n_j`` that the allocation minimizes."""
    w = batch_weights(cover, delta)
    sizes = np.asarray(sizes, dtype=float)
    if np.any(sizes <= 0):
        return math.inf
    return float((w / sizes).sum())
