"""Learning algorithms over simulated quantum samples, and their error bounds.

The estimation stage measures batches of commuting strings on disjoint slices
of the sample budget and averages the +-1 outcomes into coefficient
estimates.  Predictors are built by synthesizing the estimated expansion and
taking the spectral sign, which always yields a valid projective two-outcome
measurement.  Two selection strategies are provided: estimating over a fixed
degree set (low-degree learning) and estimating over all strings of bounded
support followed by picking the coordinate subset with the largest restricted
trace norm (junta learning).

Loss accounting uses the identity ``loss = 1/2 - 1/2 tr(G D)`` where ``G`` is
the predictor's +-1 operator and ``D`` the source's effective signed mixture;
all reported bounds use natural logarithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .compatibility import (
    BatchPlan,
    Cover,
    allocate_batches,
    best_cover,
    check_cover,
    cover_score,
)
from .operators import maximally_mixed, rho_norm, sign_operator
from .pauli import (
    TRACE_BLOCK,
    DegreeSet,
    FourierTable,
    PauliString,
    degree_set_upto,
    synthesize,
    synthesize_stack,
)
from .simulator import (
    STREAM_DRAW,
    STREAM_MEASURE,
    STREAM_SHUFFLE,
    STREAM_TEST,
    RandomStreams,
    SampleSource,
    _PreparedBatch,
    draw_samples,
    measure_batch_groups,
)

LOSS_CLAMP_SLACK = 1e-9
# Subset norms within this relative distance of the largest count as tied.
COORD_TIE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Closed-form bound helpers.
# ---------------------------------------------------------------------------


def chernoff_band(n: int, delta: float, count: int = 1) -> float:
    """Width ``sqrt(8/n ln(2 count / delta))`` of the (1 - delta) estimation band."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if count < 1:
        raise ValueError("count must be >= 1")
    return math.sqrt(8.0 / n * math.log(2.0 * count / delta))


def qld_error_bound(opt: float, eps: float, beta: float) -> float:
    """Loss guarantee ``2 opt + 2 eps + 5 beta`` of the low-degree predictor."""
    if min(opt, eps, beta) < 0:
        raise ValueError("bound arguments must be nonnegative")
    return 2.0 * opt + 2.0 * eps + 5.0 * beta


def junta_error_bound(opt_k: float, eps_prime: float) -> float:
    """Loss guarantee ``opt_k + 5 sqrt(eps_prime)`` of the junta predictor."""
    if min(opt_k, eps_prime) < 0:
        raise ValueError("bound arguments must be nonnegative")
    return opt_k + 5.0 * math.sqrt(eps_prime)


# ---------------------------------------------------------------------------
# Predictors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Predictor:
    """Projective two-outcome predictor via its +-1 operator ``g_op``.

    The outcome-1 effect is ``(I + g_op)/2`` and the outcome-0 effect is
    ``(I - g_op)/2``.  ``degenerate`` marks predictors built from an empty or
    all-zero estimate, where the sign tie-break forces ``g_op = I``.
    """

    g_op: np.ndarray
    degenerate: bool = False

    @property
    def effects(self) -> tuple[np.ndarray, np.ndarray]:
        eye = np.eye(self.g_op.shape[0], dtype=np.complex128)
        return (eye - self.g_op) / 2.0, (eye + self.g_op) / 2.0


def build_predictor(table: FourierTable) -> Predictor:
    """Sign-operator predictor from estimated coefficients.

    :func:`synthesize` skips the zero coefficients, and a table with none
    but zeros is degenerate.
    """
    if not table.values.any():
        return Predictor(np.eye(1 << table.d, dtype=np.complex128), degenerate=True)
    return Predictor(sign_operator(synthesize(table)))


def _g_of(predictor) -> np.ndarray:
    return predictor.g_op if isinstance(predictor, Predictor) else np.asarray(predictor)


def exact_loss(predictor, source: SampleSource) -> float:
    """Closed-form mislabeling probability of a predictor on a source."""
    g = _g_of(predictor)
    if g.shape != source.rho0.shape:
        raise ValueError(f"dimension mismatch: {g.shape} vs {source.rho0.shape}")
    # tr(G D) with D = labeling_xop / 2^d; a power-of-two scale is exact
    value = 0.5 - 0.5 * float(np.einsum("ij,ji->", g, source.labeling_xop).real) / (1 << source.d)
    if value < -LOSS_CLAMP_SLACK or value > 1.0 + LOSS_CLAMP_SLACK:
        raise ValueError(f"loss {value!r} outside [0, 1] beyond numerical slack")
    return min(max(value, 0.0), 1.0)


def empirical_loss(
    predictor, source: SampleSource, n_test: int, rng: np.random.Generator
) -> float:
    """Fraction of mislabeled outcomes over ``n_test`` simulated test rounds."""
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    g = _g_of(predictor)
    pi1 = (np.eye(g.shape[0], dtype=np.complex128) + g) / 2.0
    # probability of predicting 1 given each conditional state
    p1_given_base = np.array(
        [
            float(np.einsum("ij,ji->", pi1, source.rho0).real),
            float(np.einsum("ij,ji->", pi1, source.rho1).real),
        ]
    ).clip(0.0, 1.0)
    bases, labels = draw_samples(source, n_test, rng)
    predicted = (rng.random(n_test) < p1_given_base[bases]).astype(np.int8)
    return float(np.mean(predicted != labels))


def best_coords(table: FourierTable, k: int) -> tuple[float, tuple[int, ...]]:
    """Largest maximally-mixed trace norm of ``table`` restricted to k
    coordinates, and the lexicographically first subset attaining it up to a
    relative ``COORD_TIE_RTOL``.

    The restriction to C acts as ``I (x) A_C``, and under the maximally mixed
    state its trace norm is the mean |eigenvalue| of the 2^k x 2^k block
    ``A_C``, so each subset costs one k-qubit spectrum, never a 2^d one.  The
    blocks of all subsets are gathered and synthesized as one stack, and
    their norms taken by one ``rho_norm`` call per ``TRACE_BLOCK`` entries.
    """
    if k == 0:
        return abs(table.get(PauliString.identity(table.d))), ()
    subsets, gather = _subset_blocks(table.d, k)
    upto = degree_set_upto(table.d, k)
    coeffs = table.values if table.degree_set == upto else np.array([table.get(s) for s in upto])
    blocks = coeffs[gather]
    mm = maximally_mixed(k)
    chunk = max(1, TRACE_BLOCK >> 2 * k)
    norms = np.concatenate([
        rho_norm(synthesize_stack(blocks[lo: lo + chunk], k), 1, mm)
        for lo in range(0, len(subsets), chunk)
    ])
    # norms that agree to rounding are ties, and ties go to the first subset
    first = int(np.argmax(norms >= norms.max() * (1.0 - COORD_TIE_RTOL)))
    return float(norms[first]), subsets[first]


@lru_cache(maxsize=16)
def _subset_blocks(d: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The k-coordinate subsets in lexicographic order and the gather index:
    row i lists the positions in ``degree_set_upto(d, k)`` of the 4^k strings
    supported in subset i, in the sorted order of their restrictions to it
    (the order of ``full_degree_set(k)``).  Every caller shares them, so the
    index is read-only."""
    upto = degree_set_upto(d, k)
    subsets = list(itertools.combinations(range(d), k))
    # a string supported in C sorts among the others as its restriction to C
    gather = np.array([np.flatnonzero(upto.supported_in(c)) for c in subsets], dtype=np.intp)
    gather.flags.writeable = False
    return subsets, gather


def opt_k(source: SampleSource, k: int) -> tuple[float, tuple[int, ...]]:
    """Minimum loss over all measurements acting on at most k coordinates.

    Valid only under a maximally mixed feature marginal.  Returns the optimum
    and the lexicographically first maximizing coordinate subset.
    """
    if not source.maximally_mixed:
        raise ValueError("optimal junta loss requires a maximally mixed feature marginal")
    if not 0 <= k <= source.d:
        raise ValueError(f"need 0 <= k <= d, got k={k}")
    norm, coords = source.memoized(
        ("opt_k", k), lambda: best_coords(source.exact_table(degree_set_upto(source.d, k)), k)
    )
    return min(max(0.5 - 0.5 * norm, 0.0), 0.5), coords


# ---------------------------------------------------------------------------
# Coefficient estimation over a cover.
# ---------------------------------------------------------------------------


def fourier_estimation(
    source: SampleSource,
    bases: np.ndarray,
    labels: np.ndarray,
    cover: Cover,
    plan: BatchPlan,
    rng: np.random.Generator,
) -> FourierTable:
    """Estimate one coefficient per covered string from batched measurements.

    The samples ``(bases, labels)`` are consumed in order, ``plan.sizes[j]``
    of them for subset ``j`` (shuffle beforehand if draw order matters).  Each
    batch draws its block of uniforms in one call, one row per sample, so a
    sample's outcomes depend only on its base, label and row.  The source's
    prepared batches of the whole cover are asked for once, before any
    sample is measured, so a cold source builds them all from one Pauli
    spectrum per state.
    """
    if len(plan.sizes) != cover.m:
        raise ValueError("plan does not align with the cover")
    if plan.total != len(bases):
        raise ValueError(f"sample count mismatch: plan needs {plan.total}, got {len(bases)}")
    if len(bases) == 0:
        raise ValueError("cannot estimate from zero samples")
    if any(size < 1 for size in plan.sizes):
        raise ValueError("every batch needs at least one sample")
    estimates = np.empty(len(cover.covered))
    pos = 0
    prepared = source.prepared_batches(cover.subsets)
    for positions, batch, size in zip(cover.positions, prepared, plan.sizes):
        chunk = slice(pos, pos + size)
        pos += size
        means = _batch_means(batch, bases[chunk], labels[chunk], rng.random((size, len(positions))))
        estimates[positions] = means
    return FourierTable(cover.covered, estimates)


def _batch_means(
    prepared: _PreparedBatch, bases: np.ndarray, labels: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """The mean +-1 outcome of each string of the prepared batch over the
    samples ``(bases, labels)``, measured by the rows of ``uniforms``.

    A sample of label sign c that ends the walk at eigenvalue prefix p shows
    ``c E[p, l]`` on string l, with E the batch's eigenvalue table, so a
    string's outcome sum is the count of samples per (label, p), label 1
    less label 0, times E.  The sums are exact integers, so each mean is the
    float the mean of the outcome matrix would give.  The walk's arrays
    live in this call only, so they are freed before the next batch's
    uniforms are drawn."""
    prefixes = measure_batch_groups((bases, labels), prepared, uniforms)
    eigenvalues = prepared.reduction.eigenvalues
    width = len(eigenvalues)
    prefixes += np.multiply(labels, width, dtype=np.int64)
    counts = np.bincount(prefixes, minlength=2 * width)
    sums = (counts[width:] - counts[:width]) @ eigenvalues
    return sums / len(labels)


# ---------------------------------------------------------------------------
# End-to-end learners.
# ---------------------------------------------------------------------------


@dataclass
class LearnReport:
    """Everything measurable about one learning run.  ``opt_coords`` is the
    k-coordinate subset that attains ``opt_value`` in junta learning."""

    estimates: FourierTable
    cover: Cover
    plan: BatchPlan
    n: int
    delta: float
    epsilon: float
    score: float
    beta_bound: float
    seed: int | None = None
    opt_value: float | None = None
    bound_value: float | None = None
    beta_measured: float | None = None
    bound_measured: float | None = None
    chosen_coords: tuple[int, ...] | None = None
    exact_loss: float | None = None
    empirical_loss: float | None = None
    optimal_exact_loss: float | None = None
    degenerate: bool = False
    opt_coords: tuple[int, ...] | None = None


# Most measurement classes whose plan is kept.  An entry is a cover and a
# plan: at most one subset and one int per string of the degree set, whose
# strings it shares.
PLAN_CACHE_SIZE = 64


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(degree_set: DegreeSet, n: int, delta: float, cover_strategy: str) -> tuple[Cover, BatchPlan]:
    """The checked cover of the degree set and its allocation of ``n``
    samples, searched once per measurement class ``(degree set, n, delta,
    strategy)`` and shared by every source.  A cover that fails its checks,
    or has more subsets than ``n``, raises on every call.

    The search, check and allocation are looked up in this module's
    namespace on each miss, so a wrapper installed there sees every one.
    """
    cover = best_cover(degree_set, n, delta, strategy=cover_strategy)
    check_cover(cover, degree_set)
    if n < cover.m:
        raise ValueError(f"need n >= number of cover subsets: n={n} < m={cover.m}")
    return cover, allocate_batches(n, cover, delta)


def _estimate(
    source: SampleSource,
    degree_set: DegreeSet,
    n: int,
    delta: float,
    seed: int,
    cover_strategy: str,
) -> tuple[LearnReport, FourierTable]:
    """Estimation step of both learners: cover, plan, draw, shuffle and
    estimate every string of the degree set from ``n`` samples.

    Returns the report with the fields every learner fills alike
    (``epsilon`` is 0) and the source's exact table on the degree set.
    """
    if degree_set.d != source.d:
        raise ValueError(f"degree set is on d={degree_set.d}, source on d={source.d}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    cover, plan = _plan(degree_set, n, delta, cover_strategy)
    streams = RandomStreams(seed)
    bases, labels = draw_samples(source, n, streams.generator(STREAM_DRAW))
    perm = streams.generator(STREAM_SHUFFLE).permutation(n)
    estimates = fourier_estimation(
        source, bases[perm], labels[perm], cover, plan, streams.generator(STREAM_MEASURE)
    )
    truth = source.exact_table(degree_set)
    # check_cover made the estimates' degree set this one: the vectors align
    sq = 0.0
    for err in (estimates.values - truth.values).tolist():
        sq += err * err
    score = cover_score(cover, n, delta)
    report = LearnReport(
        estimates=estimates,
        cover=cover,
        plan=plan,
        n=n,
        delta=delta,
        epsilon=0.0,
        score=score,
        beta_bound=math.sqrt(8.0 * score),
        seed=seed,
        beta_measured=math.sqrt(sq),
    )
    return report, truth


def _close(
    report: LearnReport,
    predictor: Predictor,
    source: SampleSource,
    optimal: FourierTable | None,
    n_test: int,
) -> tuple[Predictor, LearnReport]:
    """Closing step of both learners: the predictor's exact loss, the exact
    loss of the sign of ``optimal`` (an exact table of the source, when the
    optimum is known) and, for ``n_test`` > 0, the empirical loss."""
    report.exact_loss = exact_loss(predictor, source)
    report.degenerate = predictor.degenerate
    if optimal is not None:
        # the optimum does not depend on the seed, so each source keeps its loss
        report.optimal_exact_loss = source.memoized(
            ("optimal_loss", optimal.degree_set),
            lambda: exact_loss(build_predictor(optimal), source),
        )
    if n_test > 0:
        report.empirical_loss = empirical_loss(
            predictor, source, n_test, RandomStreams(report.seed).generator(STREAM_TEST)
        )
    return predictor, report


def qld_learn(
    source: SampleSource,
    degree_set: DegreeSet,
    n: int,
    delta: float,
    seed: int,
    *,
    cover_strategy: str = "greedy",
    epsilon: float = 0.0,
    opt_value: float | None = None,
    n_test: int = 0,
) -> tuple[Predictor, LearnReport]:
    """Low-degree learning: estimate over a degree set, predict with the sign.

    ``epsilon`` is the concentration defect of the target class and
    ``opt_value`` the class optimum when the caller knows them; both feed the
    reported a-priori bound ``2 opt + 2 eps + 5 beta``.  The report also
    carries a measured-beta variant computed against the source ground truth.
    """
    report, truth = _estimate(source, degree_set, n, delta, seed, cover_strategy)
    predictor = build_predictor(report.estimates)
    report.epsilon = epsilon
    report.opt_value = opt_value
    if opt_value is not None:
        report.bound_value = qld_error_bound(opt_value, epsilon, report.beta_bound)
        report.bound_measured = qld_error_bound(opt_value, epsilon, report.beta_measured)
    return _close(report, predictor, source, truth, n_test)


def junta_learn(
    source: SampleSource,
    k: int,
    n: int,
    delta: float,
    seed: int,
    *,
    cover_strategy: str = "greedy",
    n_test: int = 0,
) -> tuple[Predictor, LearnReport]:
    """Junta learning: the low-degree estimation over all strings of support
    size at most k, then the k-coordinate subset with the largest restricted
    trace norm, predicting with the sign of that restriction.

    Ties between subsets are broken lexicographically.  When the source
    marginal is maximally mixed the report carries the optimal k-junta loss
    and the guarantee ``opt_k + 5 sqrt(score)``.
    """
    if not 1 <= k <= source.d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={source.d}")
    degree_set = degree_set_upto(source.d, k)
    report, truth = _estimate(source, degree_set, n, delta, seed, cover_strategy)
    _, report.chosen_coords = best_coords(report.estimates, k)
    predictor = build_predictor(report.estimates.restricted_to_coords(report.chosen_coords))
    optimal = None
    if source.maximally_mixed:
        report.opt_value, report.opt_coords = opt_k(source, k)
        report.bound_value = junta_error_bound(report.opt_value, report.score)
        report.bound_measured = junta_error_bound(report.opt_value, report.beta_measured**2)
        optimal = truth.restricted_to_coords(report.opt_coords)
    return _close(report, predictor, source, optimal, n_test)
