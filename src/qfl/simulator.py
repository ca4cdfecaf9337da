"""Ground-truth world for learning experiments: labeled-sample sources and a
seeded projective measurement engine.

A source holds the unknowns of one experiment: the label probabilities and the
conditional states, plus an optional post-draw label-flip rate.  Everything a
learner may later be scored against (exact coefficients, the optimal loss) is
derived from the effective signed mixture ``D = p1' rho1' - p0' rho0'``, which
the source exposes as one dense operator, ``labeling_xop = 2^d D``.

Samples are two int8 arrays, ``(bases, labels)``: the base picks ``rho0`` or
``rho1`` and the label differs from it only under label flips.

A realizable source takes its states from a +-1 operator F.  When F is
diagonal, as for a classical labeling, every check and split runs on its
``2^d`` diagonal and only the two states are dense; they are diagonal too,
so their Pauli spectra (and the labeling operator's) are one transformed
row, x = 0.

Measurements are simulated exactly.  A batch of mutually commuting strings
reduces over GF(2), on its symplectic ``(x|z)`` masks, to r <= d independent
generators, named by their batch columns; every string is a sign times the
product of the generators in its bitmask ``combo`` (a generator's combo is
its own bit).  The joint outcome law of the batch on a state is the
Walsh-Hadamard transform of the ``2^r`` expectations of generator products,
so no ``2^m`` joint effects and no collapsed states are ever formed.  The
expectations of every batch of a cover are read off one Pauli spectrum per
state (:func:`qfl.pauli.spectral_traces`), O(d 4^d) at most however many
products the cover has.  Each batch is checked and reduced once, in a bounded
cache (:func:`_checked_reduction`), which also keeps the batch's ``(2^r, m)``
eigenvalue table ``E``: ``E[p, l] = sign (-1)^parity(p & combo_l)`` is the
eigenvalue of string l once the generators showed the eigenvalue prefix p.
No kernel reads a string object; strings are built at the edges, where a
batch's degree set is made or printed.  A source keeps, per batch, the
generator probabilities taken from the prefix marginals of the law of each
conditional state (:func:`prepare_batches`, through
:meth:`SampleSource.prepared_batches`): per state, label sign, generator and
prefix of earlier outcomes, the probability of outcome +1.
:func:`measure_batch_groups` takes the sample arrays as they are: a sample's
base and label name its row of that table.  It walks only the r
generators, drawing every sample's outcome on each by the rule of
sequential measurement with collapse, with one gather from the table and one
comparison against the sample's uniform, and returns each sample's final
prefix p.  A sample of label sign c shows outcome ``c E[p, l]`` on string l,
so an estimate is one histogram of the samples over (label, p) times ``E``;
no per-string table or per-sample outcome matrix is formed.

Work that depends only on the measurement class is paid once per class, in
bounded process-wide caches keyed by all of its inputs: the degree set
(``pauli.degree_set_upto``), the checked cover and batch plan
(``learner._plan``) and each batch's checked reduction and eigenvalue table.
Work that depends on the states is paid once per source and memoized on it:
exact tables, the optimal loss, each batch's generator probabilities and
``opt_k``.  So the seeds of one experiment point pay for the state work once,
and a source loaded again from its file, a new object with an empty memo,
pays for its states again (only the class work is shared).
:func:`load_source` parses exactly the bytes :func:`read_source_files` read:
the specification and each file it names.  ``harness.run_config`` keys its
sources on those bytes, so a call on unchanged files loads nothing and reuses
every memo.

Randomness: one master seed, with independent Philox substreams derived
through `numpy.random.SeedSequence` spawn keys.  Identical seeds give
identical transcripts on any platform.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .operators import (
    MAX_QUBITS,
    _check_hermitian,
    _is_diagonal,
    as_operator,
    validate_density,
)
from .pauli import (
    FourierTable,
    DegreeSet,
    PauliString,
    fourier_coefficient,
    fourier_transform,
    label_signs,
    parse_truth_table,
    pauli_matrix,
    spectral_traces,
    synthesize,
    walsh_hadamard,
)
from .compatibility import is_clique

RNG_ALGORITHM = "philox4x64 keyed by numpy SeedSequence spawn keys"

# Substream name space used by the learning pipeline.
STREAM_DRAW = 0
STREAM_SHUFFLE = 1
STREAM_MEASURE = 2
STREAM_TEST = 3

SIGN_OPERATOR_TOL = 1e-8
MARGINAL_TOL = 1e-8
PROB_HARD_FLOOR = -1e-6


@dataclass(frozen=True)
class RandomStreams:
    """A master seed with cheap, independent, order-insensitive substreams.

    ``generator(*key)`` returns a fresh Philox generator for the integer key
    path; distinct keys give statistically independent streams and the same
    (seed, key) always reproduces the same sequence on any platform.
    """

    seed: int
    algorithm = RNG_ALGORITHM

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seeds must be nonnegative integers")

    def generator(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=tuple(int(k) for k in key))
        return np.random.Generator(np.random.Philox(ss))


def labeling_operator(d: int) -> np.ndarray:
    """The +-1 diagonal joint-system operator whose phase encodes the label.

    Acts on d feature qubits plus one trailing label qubit, sending the basis
    state with label ``y`` to ``-(-1)^y`` times itself.  Label 1 therefore
    lives in the +1 eigenspace.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return np.kron(np.eye(1 << d, dtype=np.complex128), np.diag([-1.0 + 0j, 1.0 + 0j]))


@dataclass(frozen=True)
class SampleSource:
    """Distribution over labeled samples.

    ``p0``/``rho0``/``rho1`` describe the draw: the label is 0 with
    probability ``p0`` and the state is the matching conditional state.  With
    ``flip_rate`` > 0 the reported label is flipped after the draw with that
    probability while the state is kept, which realizes label noise without
    touching the feature marginal.  ``realizable`` marks a source whose
    states are the eigenprojections of a +-1 operator (realizable, noisy and
    classical files), so its optimal loss over all measurements is
    ``flip_rate``; a flip-rate override keeps it.
    """

    realizable: bool
    d: int
    p0: float
    rho0: np.ndarray
    rho1: np.ndarray
    flip_rate: float = 0.0
    maximally_mixed: bool = False
    # Seed-invariant values derived from this source, keyed by tuples whose
    # first entry names their kind; see memoized.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )

    @property
    def p1(self) -> float:
        return 1.0 - self.p0

    @property
    def degenerate(self) -> bool:
        """Whether one label has probability zero."""
        return self.p0 in (0.0, 1.0)

    @cached_property
    def labeling_xop(self) -> np.ndarray:
        """Feature-system operator whose expansion gives the exact coefficients.

        Equals ``2^d`` times the effective signed mixture ``p1' rho1' -
        p0' rho0'`` after label flips; for a source built from a +-1 operator
        this recovers that operator (scaled by ``1 - 2 eta`` under label
        noise).
        """
        mixture = (1.0 - 2.0 * self.flip_rate) * (self.p1 * self.rho1 - self.p0 * self.rho0)
        return (1 << self.d) * mixture

    def exact_coefficient(self, s: PauliString) -> float:
        """Ground-truth coefficient ``tr(sigma^s (p1' rho1' - p0' rho0'))``."""
        return fourier_coefficient(self.labeling_xop, s)

    def memoized(self, key: tuple, build):
        """The value stored under ``key``, built by ``build()`` on its first use.

        The memo holds only values that depend on the source's states and
        on no seed: exact tables, the optimal loss, each batch's generator
        probabilities and ``opt_k``, each computed once per source.  Work
        that depends on the measurement class alone (degree sets, cover,
        plan, batch reductions and their eigenvalue tables) is cached per
        class, outside the source.  A build that raises stores nothing, so
        its checks run again on the next call.  Builds hold a per-source
        lock, so concurrent callers build each key once.  Prepared batches are
        stored by :meth:`prepared_batches`, several at once, under the
        same lock.
        """
        with self._memo_lock:
            try:
                return self._memo[key]
            except KeyError:
                value = self._memo[key] = build()
                return value

    def exact_table(self, degree_set: DegreeSet) -> FourierTable:
        """Exact coefficients on the degree set, computed once per source and
        degree set (a learner and its optimum ask for the same table)."""
        return self.memoized(
            ("exact_table", degree_set), lambda: fourier_transform(self.labeling_xop, degree_set)
        )

    def prepared_batches(self, batches: Sequence[DegreeSet]) -> list["_PreparedBatch"]:
        """The commuting batches' generator probabilities on ``rho0`` and
        ``rho1`` (states 0 and 1, by base), in batch order, each memoized
        once per source under its batch.  The batches not built yet are
        prepared together by one :func:`prepare_batches` call, so they share
        one Pauli spectrum per state; if it raises, none is stored.  The
        reductions and eigenvalue tables are the batches' shared ones."""
        with self._memo_lock:
            missing = [b for b in dict.fromkeys(batches) if ("batch", b) not in self._memo]
            if missing:
                built = prepare_batches(missing, (self.rho0, self.rho1))
                self._memo.update((("batch", b), prepared) for b, prepared in zip(missing, built))
            return [self._memo["batch", b] for b in batches]

    def with_flip_rate(self, eta: float) -> "SampleSource":
        """Same draw distribution with the label-flip rate replaced by ``eta``,
        as a new source with an empty memo."""
        if not 0.0 <= eta < 0.5:
            raise ValueError(f"flip rate eta must lie in [0, 0.5), got {eta}")
        return replace(self, flip_rate=eta)


def _qubit_count(n: int) -> int:
    """The d of a dimension ``n = 2^d``, d >= 1."""
    d = n.bit_length() - 1
    if d < 1:
        raise ValueError("d must be >= 1")
    if 1 << d != n:
        raise ValueError(f"dimension {n} is not a power of two")
    return d


def _is_maximally_mixed(p0: float, rho0: np.ndarray, rho1: np.ndarray, one: np.ndarray) -> bool:
    """Whether the marginal ``p0 rho0 + p1 rho1`` is ``I / n`` to within
    ``MARGINAL_TOL``, with the states and the identity ``one`` all given as
    matrices or all as diagonals."""
    mix = p0 * rho0 + (1.0 - p0) * rho1
    return bool(np.abs(mix - one / len(one)).max() <= MARGINAL_TOL)


def make_realizable_source(f_op) -> SampleSource:
    """Source whose label is a deterministic function of a +-1 operator's eigenspace.

    The conditional states are the normalized eigenprojections of F, read
    off the operator itself: ``rho1 = (I + F)/(2 n_+)`` (label 1 on the +1
    side) and ``rho0 = (I - F)/(2 n_-)``, where ``n_+ = (2^d + tr F)/2`` and
    ``n_- = 2^d - n_+`` are the eigenspaces' dimensions.  This makes the
    feature marginal maximally mixed and the optimal loss zero.  An operator
    with an empty eigenspace yields a degenerate source with the label
    probability pinned to 0 or 1.  A diagonal operator (no nonzero entry off
    the diagonal), such as a classical embedding, is checked (Hermitian,
    ``F^2 = I``, the trace), split and tested for a maximally mixed marginal
    on its ``2^d`` diagonal, and only the two states are formed as dense
    matrices, with the same bytes as the dense construction; any other
    operator is checked with one dense product for ``F^2 = I``.
    """
    f_op = as_operator(f_op)
    return _sign_split(np.diagonal(f_op) if _is_diagonal(f_op) else f_op)


def _sign_split(f: np.ndarray) -> SampleSource:
    """:func:`make_realizable_source` of F as a matrix, or of a diagonal F as a vector."""
    n = f.shape[0]
    diagonal = f.ndim == 1
    # F and the identity as matrices, or for a diagonal F as their diagonals
    if diagonal:
        one = np.ones(n, dtype=np.complex128)
        # as n blocks of 1 x 1, a diagonal has the Hermitian defect of its matrix
        _check_hermitian(f[:, None, None])
        square, trace = f * f, f.real.sum()
    else:
        f, one = _check_hermitian(f), np.eye(n, dtype=np.complex128)
        square, trace = f @ f, np.diagonal(f).real.sum()
    d = _qubit_count(n)
    defect = float(np.abs(square - one).max())
    if defect > SIGN_OPERATOR_TOL:
        raise ValueError(
            f"not a +-1 operator: max |F^2 - I| = {defect:.3e} > {SIGN_OPERATOR_TOL:.1e}"
        )
    # tr F = n_+ - n_-, to within the tolerance on each of the n eigenvalues
    half_plus = (n + float(trace)) / 2.0
    n_plus = round(half_plus)
    if abs(half_plus - n_plus) > n * SIGN_OPERATOR_TOL:
        raise ValueError(
            f"not a +-1 operator: (2^d + tr F)/2 = {half_plus!r} is not an eigenspace dimension"
        )
    n_minus = n - n_plus
    p0 = 1.0 - n_plus / n
    # an empty side gets the maximally mixed state I / 2^d
    rho0 = (one - f) / (2 * n_minus) if n_minus else one / n
    rho1 = (one + f) / (2 * n_plus) if n_plus else one / n
    maximally = _is_maximally_mixed(p0, rho0, rho1, one)
    if diagonal:
        rho0, rho1 = np.diag(rho0), np.diag(rho1)
    return SampleSource(
        realizable=True, d=d, p0=p0, rho0=rho0, rho1=rho1, maximally_mixed=maximally
    )


def make_noisy_source(f_op, eta: float) -> SampleSource:
    """Realizable source with labels flipped after the draw at rate ``eta``.

    Every exact coefficient shrinks by ``1 - 2 eta`` and the optimal loss over
    all measurements becomes exactly ``eta``.
    """
    return make_realizable_source(f_op).with_flip_rate(eta)


def make_classical_source(truth_table) -> SampleSource:
    """Source realizing a classical Boolean labeling of basis states.

    Samples are uniform computational-basis mixtures over the preimages of
    each label; classical PAC learning under the uniform input distribution
    embeds this way.
    """
    if isinstance(truth_table, str):
        truth_table = parse_truth_table(truth_table)
    # make_realizable_source(classical_embedding(...)), without the dense F
    return _sign_split(label_signs(truth_table))


def make_custom_source(p0: float, rho0, rho1) -> SampleSource:
    """Fully agnostic source from explicit label probabilities and states."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    rho0 = as_operator(rho0)
    rho1 = as_operator(rho1)
    if rho0.shape != rho1.shape:
        raise ValueError(f"state dimensions differ: {rho0.shape} vs {rho1.shape}")
    d = _qubit_count(rho0.shape[0])
    for name, rho in (("rho0", rho0), ("rho1", rho1)):
        problems = validate_density(rho)
        if problems:
            raise ValueError(f"{name} is not a valid density operator: "
                             + "; ".join(map(str, problems)))
    return SampleSource(
        realizable=False,
        d=d,
        p0=float(p0),
        rho0=rho0,
        rho1=rho1,
        maximally_mixed=_is_maximally_mixed(p0, rho0, rho1, np.eye(1 << d, dtype=np.complex128)),
    )


def draw_samples(
    source: SampleSource, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n samples as int8 ``(bases, labels)`` arrays.

    Consumes n base uniforms first, then n flip uniforms when the source has
    label noise; the base always records the pre-flip label.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bases = (rng.random(n) >= source.p0).astype(np.int8)
    labels = bases.copy()
    if source.flip_rate > 0.0:
        flips = rng.random(n) < source.flip_rate
        labels = np.where(flips, 1 - bases, bases).astype(np.int8)
    return bases, labels


def estimation_observable(s: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Joint-system projective pair estimating one expansion coefficient.

    Returns the (+1, -1)-outcome effects ``(I -+ sigma^{s||3}) / 2`` on the
    feature system extended by the label qubit; both are projections and the
    outcome mean over the sample distribution equals the coefficient.
    """
    e = pauli_matrix(s.extended(3))
    n = e.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    return (eye - e) / 2.0, (eye + e) / 2.0


def _checked_probability(p):
    """Clamp probabilities (a float or an array) into [0, 1]; anything below
    the hard floor is an error rather than a sample."""
    low = np.min(p, initial=0.0)
    if low < PROB_HARD_FLOOR:
        raise ValueError(f"outcome probability {low:.3e} below {PROB_HARD_FLOOR:.1e}; broken POVM upstream")
    return np.clip(p, 0.0, 1.0)


def _reduce_batch(batch: DegreeSet) -> tuple[list[int], list[int]]:
    """GF(2) reduction of the batch's symplectic vectors ``(x|z)``, read off
    its masks in batch order.

    Returns the generator columns, the batch columns of the strings
    independent of all earlier ones, and per string the generator bitmask
    ``combo``: the string is +-1 times the product of the generators in
    ``combo``.  A generator's combo is its own bit; the identity's is 0.
    """
    d = batch.d
    x, z, _ = batch.masks
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, generator bitmask)
    generator_columns: list[int] = []
    combos: list[int] = []
    for col, v in enumerate(((x << d) | z).tolist()):
        combo = 0
        while v and (v.bit_length() - 1) in basis:
            vec, cmb = basis[v.bit_length() - 1]
            v ^= vec
            combo ^= cmb
        if v:
            own = 1 << len(generator_columns)
            basis[v.bit_length() - 1] = (v, combo | own)
            generator_columns.append(col)
            combo = own
        combos.append(combo)
    return generator_columns, combos


def _product_masks(x: np.ndarray, z: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks ``x_T``, ``z_T`` and phase exponents ``k_T`` of every product
    ``P_T`` of the generators with masks ``x``, ``z`` and ``k``, indexed by
    the subset bitmask T (bit g is generator g).

    ``P_T |j> = i^{k_T} (-1)^{parity(j & z_T)} |j ^ x_T>``, built one generator
    at a time from ``P_{T+g} = sigma^g P_T`` and
    ``sigma^g |x> = i^{k_g} (-1)^{parity(x & z_g)} |x ^ x_g>``.
    """
    px = np.zeros(1, dtype=np.int64)
    pz = np.zeros(1, dtype=np.int64)
    pk = np.zeros(1, dtype=np.int64)
    for xg, zg, kg in zip(x.tolist(), z.tolist(), k.tolist()):
        # the masks are nonnegative, so bitwise_count counts their set bits
        pk = np.concatenate((pk, pk + kg + 2 * (np.bitwise_count(px & zg) & 1)))
        px = np.concatenate((px, px ^ xg))
        pz = np.concatenate((pz, pz ^ zg))
    return px, pz, pk % 4


@dataclass(frozen=True)
class _Reduction:
    """A commuting batch checked and reduced over GF(2): the batch column of
    each generator, in generator order, the :func:`_product_masks` of the
    generators and the ``(2^r, m)`` int8 eigenvalue table ``E``.
    ``E[p, l]`` is the eigenvalue of string l on every sample whose r
    generators showed the eigenvalue prefix p (bit g set when generator g
    showed -1): ``sign (-1)^parity(p & combo)``, for string l equal to
    ``sign`` times the product of the generators in its ``combo``.  A
    sample of label sign c shows outcome ``c E[p, l]`` on string l.  It
    depends on the batch alone, so one is shared by every source; the
    arrays are read-only."""

    generator_columns: tuple[int, ...]
    masks: tuple[np.ndarray, np.ndarray, np.ndarray]
    eigenvalues: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.generator_columns)


# Most batches whose reduction is kept.  The largest possible entry, at
# MAX_QUBITS = 12, is a batch of 2^12 commuting strings with r = 12
# generators: about 1.3 MB for the batch it is keyed by, 0.1 MB of masks
# and a 2^12 x 2^12 int8 eigenvalue table of 16 MB, so the cache
# holds at most about 350 MB.  A k = 2 cover holds far less: up to d = 10 its
# batches have at most 2^10 x 30 eigenvalues each, and 20 entries hold the
# whole cover (at most 19 subsets).
REDUCTION_CACHE_SIZE = 20


@lru_cache(maxsize=REDUCTION_CACHE_SIZE)
def _checked_reduction(batch: DegreeSet) -> _Reduction:
    """The batch's reduction, once per batch, after checking that it is
    jointly measurable; a batch that fails raises on every call."""
    if len(batch) == 0:
        raise ValueError("batch must contain at least one string")
    if not is_clique(batch):
        raise ValueError("batch strings do not mutually commute; not jointly measurable")
    generator_columns, combos = _reduce_batch(batch)
    x, z, k = batch.masks
    masks = _product_masks(x[generator_columns], z[generator_columns], k[generator_columns])
    combos = np.array(combos, dtype=np.int64)
    # sigma^s = sign * P_combo: both send |0> to a power of i times |x>, and
    # for commuting strings the exponents differ by 0 (sign +1) or 2 (sign -1)
    sign = 1 - (k - masks[2][combos]) % 4
    prefixes = np.arange(len(masks[0]))[:, None]
    # bitwise_count is uint8, so the sign flip stays in the signed sign array
    odd = np.bitwise_count(prefixes & combos) & 1
    eigenvalues = np.where(odd == 1, -sign, sign).astype(np.int8)
    for a in (eigenvalues, *masks):
        a.flags.writeable = False
    return _Reduction(tuple(generator_columns), masks, eigenvalues)


@dataclass(frozen=True)
class _PreparedBatch:
    """A commuting batch's :class:`_Reduction` with the probabilities its
    generators show on some states.

    A sample's prefix p records the generators measured so far, bit g set
    when generator g showed eigenvalue -1.  ``probs`` has one row per state
    and label sign c, row ``2 i + (c > 0)`` for state i, of ``2^(r+1)``
    entries laid out like a prefix tree of the state's law: after h
    generators a sample reads entry ``2^h + p`` of its row, the probability
    ``(1 + c t) / 2`` that generator h gives outcome +1, with t its mean on
    the law conditioned on p, or NaN where p has no mass.  The strings'
    outcomes follow from the final prefix through the reduction's eigenvalue
    table, so no per-string table is kept.
    """

    reduction: _Reduction
    probs: np.ndarray


def prepare_batches(batches: Sequence[DegreeSet], states: Sequence[np.ndarray]) -> list[_PreparedBatch]:
    """Tabulate the generator probabilities of jointly measurable batches on
    each state, in batch order; the checks and reductions come from
    :func:`_checked_reduction`.

    A batch's law on a state is ``2^-r sum_T (-1)^{|b & T|} tr(state P_T)``
    over its ``2^r`` generator products ``P_T``.  All batches' traces on a
    state are read off one Pauli spectrum (:func:`spectral_traces`).  The
    batches of each rank r are then transformed, marginalized over their
    outcome prefixes and tabulated together as stacked
    ``(batches, states, 2^r)`` arrays, every entry by the same operations
    as a batch alone.
    """
    reductions = [_checked_reduction(batch) for batch in batches]
    if not reductions:
        return []
    x, z, k = (np.concatenate(parts) for parts in zip(*(r.masks for r in reductions)))
    traces = np.stack([spectral_traces(state, x, z, k).real for state in states])
    offsets = np.cumsum([0] + [1 << r.rank for r in reductions])
    prepared: list = [None] * len(reductions)
    for rank in sorted({r.rank for r in reductions}):
        members = [i for i, r in enumerate(reductions) if r.rank == rank]
        size = 1 << rank
        laws = np.stack([traces[:, offsets[i]: offsets[i] + size] for i in members])
        walsh_hadamard(laws)
        laws /= size
        # prefix marginals, level g at offset 2^g: entry 2^g + p is the mass
        # whose low g bits equal p
        trees = np.empty(laws.shape[:-1] + (2 * size,))
        trees[..., size:] = laws
        for g in range(rank - 1, -1, -1):
            level = trees[..., 2 << g: 4 << g]
            trees[..., 1 << g: 2 << g] = level[..., : 1 << g] + level[..., 1 << g:]
        # every inner node 2^g + p, and its child 2^(g+1) + p where generator
        # g shows eigenvalue +1
        levels = 1 << np.arange(rank)
        node = np.arange(1, size)
        denom = trees[..., node]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (2.0 * trees[..., node + np.repeat(levels, levels)] - denom) / denom
        probs = np.full((len(members), 2 * len(states), 2 * size), np.nan)
        for row, c in ((0, -1.0), (1, 1.0)):
            probs[:, row::2, 1:size] = np.where(denom > 0.0, 0.5 * (1.0 + c * t), np.nan)
        for i, table in zip(members, probs):
            prepared[i] = _PreparedBatch(reductions[i], table)
    return prepared


def measure_batch_groups(
    samples: tuple[np.ndarray, np.ndarray],
    prepared: _PreparedBatch,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Measure a prepared commuting batch on labeled samples by sampling its
    exact joint outcome law, and return each sample's final eigenvalue
    prefix.

    ``samples`` is ``(bases, labels)``: sample ``i`` is in the state of index
    ``bases[i]`` among those ``prepared`` was built on (a source's batch,
    :meth:`SampleSource.prepared_batches`, has ``rho0`` and ``rho1``), and
    has label 0 or 1, label sign ``c = 2 label - 1``.  ``uniforms`` has one
    row per sample and one column per batch string, as many as the
    reduction's eigenvalue table has.  The batch reduces to r <= d
    independent generators, and every string is a fixed sign times the
    product of the generators in its combo, so its outcome follows from
    theirs.  The walk visits only the reduction's generator columns, in
    generator order: sample ``i`` gets outcome +1 on
    a generator column ``l`` exactly when ``uniforms[i, l]`` falls below
    ``(1 + c t) / 2``, with ``t`` the generator's mean given the sample's
    earlier outcomes; this is the rule of sequential measurement with
    collapse.  The other columns' uniforms are drawn but not read.

    Returns the int64 prefixes p, bit g set when generator g showed
    eigenvalue -1; sample ``i`` shows outcome ``c E[p_i, l]`` on string l,
    with E the reduction's eigenvalue table.  A sample's prefix
    depends only on its base, label and row of uniforms.
    """
    bases, labels = (np.asarray(a) for a in samples)
    n_total, m = uniforms.shape
    if m != prepared.reduction.eigenvalues.shape[1]:
        raise ValueError("uniforms must have one column per batch string")
    if not len(bases) == len(labels) == n_total:
        raise ValueError("bases, labels and the rows of uniforms must have the same length")
    positive = labels == 1
    if not (positive | (labels == 0)).all():
        raise ValueError("labels must be 0 or 1")
    probs = prepared.probs
    if not (np.min(bases, initial=0) >= 0 and np.max(bases, initial=0) < len(probs) // 2):
        raise ValueError(f"bases must lie in [0, {len(probs) // 2}), the prepared states")

    # each sample's entry in the table, all rows laid end to end
    width = probs.shape[1]
    index = np.multiply(bases, 2, dtype=np.int64)
    index += positive
    index *= width
    index += 1
    probs = probs.ravel()
    bit = np.empty(n_total, dtype=bool)
    step = np.empty(n_total, dtype=np.int64)
    for g, col in enumerate(prepared.reduction.generator_columns):
        p = probs.take(index)
        # u < p equals u < clip(p, 0, 1) for u in [0, 1), once no p is NaN
        # (a prefix without mass) or below the floor
        if not np.minimum.reduce(p, initial=0.0) >= PROB_HARD_FLOOR:
            if np.isnan(p).any():
                raise ValueError("a sample reached an outcome prefix of zero probability")
            _checked_probability(p)
        # outcome +1 shows eigenvalue -1 under label sign -1, and +1 under +1
        np.less(uniforms[:, col], p, out=bit)
        bit ^= positive
        # down to level g + 1, with the eigenvalue bit as bit g of p
        np.left_shift(bit, g, out=step, dtype=np.int64)
        index += step
        index += 1 << g
    index &= (width >> 1) - 1
    return index


# ---------------------------------------------------------------------------
# Text formats: matrices and source specification files.
# ---------------------------------------------------------------------------


def matrix_to_text(m: np.ndarray) -> str:
    """Plain-text complex matrix, row-major: one row per line, repr entries."""
    m = as_operator(m)
    return "\n".join(" ".join(repr(complex(v)) for v in row) for row in m) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    rows = [
        [complex(tok) for tok in ln.split()]
        for ln in text.splitlines()
        if ln.strip()
    ]
    return as_operator(np.array(rows, dtype=np.complex128))


def save_matrix(path, m: np.ndarray) -> None:
    Path(path).write_text(matrix_to_text(m), encoding="utf-8")


def parse_key_values(text: str) -> dict[str, str]:
    """Parse the line-oriented ``key = value`` format with ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# The fields of a source specification that name another file, by kind, in
# the order _source_from_files takes their texts.
_FILE_FIELDS = {"realizable": ("ftab",), "noisy": ("ftab",), "custom": ("rho0", "rho1")}


@dataclass(frozen=True)
class SourceFiles:
    """A source specification as read, all that :func:`load_source` parses:
    its fields, and the bytes of the file (under ``"src"``) and of each file
    it names (under the field that names it)."""

    fields: dict[str, str]
    data: dict[str, bytes]

    def named_texts(self) -> list[str]:
        """The text of each file the kind names, in ``_FILE_FIELDS`` order;
        a KeyError names a missing field."""
        names = _FILE_FIELDS.get(self.fields["kind"], ())
        return [self.data[name].decode("utf-8") for name in names]


def read_source_files(path) -> SourceFiles:
    """The specification at ``path`` and the files it names, read once
    (resolved relative to the specification file).  A named file whose field
    is missing is skipped; the loader reports the field."""
    path = Path(path)
    data = {"src": path.read_bytes()}
    fields = parse_key_values(data["src"].decode("utf-8"))
    for name in _FILE_FIELDS.get(fields.get("kind"), ()):
        if name in fields:
            data[name] = (path.parent / fields[name]).read_bytes()
    return SourceFiles(fields, data)


def load_source(path, files: SourceFiles | None = None) -> SampleSource:
    """Load a source specification file.

    The file is ``key = value`` text with a ``kind`` of ``realizable``,
    ``noisy``, ``classical``, or ``custom``.  Referenced coefficient-table and
    matrix files are resolved relative to the specification file.  ``files``
    is what :func:`read_source_files` read for ``path``, so a caller that keys
    on its bytes loads exactly those; by default it is read now.
    """
    path = Path(path)
    if files is None:
        files = read_source_files(path)
    try:
        return _source_from_files(path, files)
    except KeyError as exc:
        raise ValueError(f"{path}: missing required field {exc}") from exc


def override_flip_rate(source: SampleSource, eta: float) -> SampleSource:
    """``source`` under the flip rate ``eta`` given in a source file or a
    config: the one rule for both.  Only a realizable source, or a custom one
    whose feature marginal is maximally mixed, takes it."""
    if not source.realizable and not source.maximally_mixed:
        raise ValueError(f"flip rate eta = {eta} on a non-maximally-mixed custom source")
    return source.with_flip_rate(eta)


def _source_from_files(path: Path, files: SourceFiles) -> SampleSource:
    fields = files.fields
    kind = fields["kind"]
    d = int(fields["d"])
    if not 1 <= d <= MAX_QUBITS:
        raise ValueError(f"{path}: d={d} is outside [1, {MAX_QUBITS}]")
    if kind in ("realizable", "noisy"):
        (ftab,) = files.named_texts()
        table = FourierTable.from_text(ftab)
        if table.d != d:
            raise ValueError(f"{path}: table dimension {table.d} != d={d}")
        f_op = synthesize(table)
        if kind == "noisy":
            return make_noisy_source(f_op, float(fields["eta"]))
        return make_realizable_source(f_op)
    if kind == "classical":
        bits = parse_truth_table(fields["truth_table"])
        if len(bits) != 1 << d:
            raise ValueError(f"{path}: truth table length {len(bits)} != 2^{d}")
        return make_classical_source(bits)
    if kind == "custom":
        rho0, rho1 = files.named_texts()
        source = make_custom_source(
            float(fields["p0"]), matrix_from_text(rho0), matrix_from_text(rho1)
        )
        if source.d != d:
            raise ValueError(f"{path}: matrix dimension implies d={source.d}, file says {d}")
        if "eta" in fields:
            source = override_flip_rate(source, float(fields["eta"]))
        return source
    raise ValueError(f"{path}: unknown source kind {kind!r}")
