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
from dataclasses import dataclass, field

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
from .pauli import DegreeSet, FourierTable, PauliString, degree_set_upto, synthesize
from .simulator import (
    STREAM_DRAW,
    STREAM_MEASURE,
    STREAM_SHUFFLE,
    STREAM_TEST,
    RandomStreams,
    SampleSource,
    coerce_streams,
    draw_samples,
    group_samples,
    measure_batch_groups,
)

LOSS_CLAMP_SLACK = 1e-9


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


def u_function(x: float) -> float:
    """The cubic ``x^3 + 3/2 x^2 + 5/4 x``; bounded by ``4x`` on [0, 1]."""
    if x < 0:
        raise ValueError("u_function is defined for x >= 0")
    return x**3 + 1.5 * x**2 + 1.25 * x


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


def popt_lower_bound(table: FourierTable, degree_set: DegreeSet, eps: float = 0.0) -> float:
    """Lower bound ``1/2 - 1/2 ||sum_{s in A} f_s sigma^s||_1,mm - eps`` on the
    optimal loss of any class concentrated on the degree set."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    restricted = table.restricted_to_strings(degree_set)
    op = synthesize(FourierTable(table.d, dict(restricted.items())))
    return 0.5 - 0.5 * rho_norm(op, 1, maximally_mixed(table.d)) - eps


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


def build_predictor(table: FourierTable, degree_set: DegreeSet) -> Predictor:
    """Sign-operator predictor from estimated coefficients on a degree set."""
    kept = {s: c for s, c in table.items() if s in degree_set}
    if not kept or all(c == 0.0 for c in kept.values()):
        n = 1 << degree_set.d
        return Predictor(np.eye(n, dtype=np.complex128), degenerate=True)
    f_hat = synthesize(FourierTable(degree_set.d, kept))
    return Predictor(sign_operator(f_hat))


def _g_of(predictor) -> np.ndarray:
    return predictor.g_op if isinstance(predictor, Predictor) else np.asarray(predictor)


def exact_loss(predictor, source: SampleSource) -> float:
    """Closed-form mislabeling probability of a predictor on a source."""
    g = _g_of(predictor)
    if g.shape != source.rho0.shape:
        raise ValueError(f"dimension mismatch: {g.shape} vs {source.rho0.shape}")
    value = 0.5 - 0.5 * float(np.einsum("ij,ji->", g, source.label_diff).real)
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
    coordinates, and the lexicographically first subset attaining it.

    The restriction to C acts as ``I (x) A_C``, and under the maximally mixed
    state its trace norm is the mean |eigenvalue| of the 2^k x 2^k block
    ``A_C``, so each subset costs one k-qubit spectrum, never a 2^d one.
    """
    if k == 0:
        return abs(table.get(PauliString.identity(table.d))), ()
    mm = maximally_mixed(k)
    best_norm = -1.0
    chosen: tuple[int, ...] = ()
    for coords in itertools.combinations(range(table.d), k):
        norm = rho_norm(synthesize(table.block(coords)), 1, mm)
        if norm > best_norm:
            best_norm = norm
            chosen = coords
    return best_norm, chosen


def opt_k(source: SampleSource, k: int) -> tuple[float, tuple[int, ...]]:
    """Minimum loss over all measurements acting on at most k coordinates.

    Valid only under a maximally mixed feature marginal.  Returns the optimum
    and the lexicographically first maximizing coordinate subset.
    """
    if not source.maximally_mixed:
        raise ValueError("optimal junta loss requires a maximally mixed feature marginal")
    if not 0 <= k <= source.d:
        raise ValueError(f"need 0 <= k <= d, got k={k}")
    norm, coords = best_coords(source.exact_table(degree_set_upto(source.d, k)), k)
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
    batch draws its block of uniforms in one call, one row per sample, so
    outcomes are reproducible and independent of any grouping of samples.
    """
    if len(plan.sizes) != cover.m:
        raise ValueError("plan does not align with the cover")
    if plan.total != len(bases):
        raise ValueError(f"sample count mismatch: plan needs {plan.total}, got {len(bases)}")
    if len(bases) == 0:
        raise ValueError("cannot estimate from zero samples")
    if any(size < 1 for size in plan.sizes):
        raise ValueError("every batch needs at least one sample")
    d = cover.d
    estimates: dict[PauliString, float] = {}
    pos = 0
    for subset, size in zip(cover.subsets, plan.sizes):
        chunk = slice(pos, pos + size)
        pos += size
        uniforms = rng.random((size, len(subset)))
        groups = group_samples(source, bases[chunk], labels[chunk])
        outcomes = measure_batch_groups(groups, subset, uniforms)
        means = outcomes.mean(axis=0)
        for col, s in enumerate(subset):
            estimates[s] = float(means[col])
    return FourierTable(d, estimates)


# ---------------------------------------------------------------------------
# End-to-end learners.
# ---------------------------------------------------------------------------


@dataclass
class LearnReport:
    """Everything measurable about one learning run."""

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
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "estimates_ftab": self.estimates.to_text(),
            "cover": self.cover.to_text(),
            "plan": list(self.plan.sizes),
            "n": self.n,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "score": self.score,
            "beta_bound": self.beta_bound,
            "seed": self.seed,
            "opt_value": self.opt_value,
            "bound_value": self.bound_value,
            "beta_measured": self.beta_measured,
            "bound_measured": self.bound_measured,
            "chosen_coords": list(self.chosen_coords) if self.chosen_coords is not None else None,
            "exact_loss": self.exact_loss,
            "empirical_loss": self.empirical_loss,
            "optimal_exact_loss": self.optimal_exact_loss,
            "degenerate": self.degenerate,
        }


def _measured_beta(estimates: FourierTable, truth: FourierTable, degree_set: DegreeSet) -> float:
    sq = 0.0
    for s in degree_set:
        err = estimates.get(s) - truth[s]
        sq += err * err
    return math.sqrt(sq)


def _estimation_pipeline(
    source: SampleSource,
    degree_set: DegreeSet,
    n: int,
    delta: float,
    streams: RandomStreams,
    cover_strategy: str,
) -> tuple[FourierTable, Cover, BatchPlan, float]:
    if degree_set.d != source.d:
        raise ValueError(f"degree set is on d={degree_set.d}, source on d={source.d}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    cover = best_cover(degree_set, n, delta, strategy=cover_strategy)
    check_cover(cover, degree_set)
    if n < cover.m:
        raise ValueError(f"need n >= number of cover subsets: n={n} < m={cover.m}")
    plan = allocate_batches(n, cover, delta)
    bases, labels = draw_samples(source, n, streams.generator(STREAM_DRAW))
    perm = streams.generator(STREAM_SHUFFLE).permutation(n)
    estimates = fourier_estimation(
        source, bases[perm], labels[perm], cover, plan, streams.generator(STREAM_MEASURE)
    )
    return estimates, cover, plan, cover_score(cover, n, delta)


def qld_learn(
    source: SampleSource,
    degree_set: DegreeSet,
    n: int,
    delta: float,
    rng: RandomStreams | int,
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
    streams = coerce_streams(rng)
    estimates, cover, plan, score = _estimation_pipeline(
        source, degree_set, n, delta, streams, cover_strategy
    )
    predictor = build_predictor(estimates, degree_set)
    beta_bound = math.sqrt(8.0 * score)
    truth = source.exact_table(degree_set)
    beta_measured = _measured_beta(estimates, truth, degree_set)
    report = LearnReport(
        estimates=estimates,
        cover=cover,
        plan=plan,
        n=n,
        delta=delta,
        epsilon=epsilon,
        score=score,
        beta_bound=beta_bound,
        seed=streams.seed,
        opt_value=opt_value,
        beta_measured=beta_measured,
        exact_loss=exact_loss(predictor, source),
        degenerate=predictor.degenerate,
    )
    if opt_value is not None:
        report.bound_value = qld_error_bound(opt_value, epsilon, beta_bound)
        report.bound_measured = qld_error_bound(opt_value, epsilon, beta_measured)
    optimal = build_predictor(truth, degree_set)
    report.optimal_exact_loss = exact_loss(optimal, source)
    if n_test > 0:
        report.empirical_loss = empirical_loss(
            predictor, source, n_test, streams.generator(STREAM_TEST)
        )
    return predictor, report


def junta_learn(
    source: SampleSource,
    k: int,
    n: int,
    delta: float,
    rng: RandomStreams | int,
    *,
    cover_strategy: str = "greedy",
    n_test: int = 0,
) -> tuple[Predictor, LearnReport]:
    """Junta learning: estimate all coefficients of support size at most k,
    keep the k-coordinate subset with the largest restricted trace norm, and
    predict with the sign of that restriction.

    Ties between subsets are broken lexicographically.  When the source
    marginal is maximally mixed the report carries the optimal k-junta loss
    and the guarantee ``opt_k + 5 sqrt(score)``.
    """
    if not 1 <= k <= source.d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={source.d}")
    streams = coerce_streams(rng)
    degree_set = degree_set_upto(source.d, k)
    estimates, cover, plan, score = _estimation_pipeline(
        source, degree_set, n, delta, streams, cover_strategy
    )
    _, chosen = best_coords(estimates, k)
    predictor = build_predictor(estimates.restricted_to_coords(chosen), degree_set)
    truth = source.exact_table(degree_set)
    beta_measured = _measured_beta(estimates, truth, degree_set)
    report = LearnReport(
        estimates=estimates,
        cover=cover,
        plan=plan,
        n=n,
        delta=delta,
        epsilon=0.0,
        score=score,
        beta_bound=math.sqrt(8.0 * score),
        seed=streams.seed,
        chosen_coords=chosen,
        beta_measured=beta_measured,
        exact_loss=exact_loss(predictor, source),
        degenerate=predictor.degenerate,
    )
    if source.maximally_mixed:
        opt_value, opt_coords = opt_k(source, k)
        report.opt_value = opt_value
        report.bound_value = junta_error_bound(opt_value, score)
        report.bound_measured = junta_error_bound(opt_value, beta_measured**2)
        report.extra["opt_coords"] = opt_coords
        optimal = build_predictor(truth.restricted_to_coords(opt_coords), degree_set)
        report.optimal_exact_loss = exact_loss(optimal, source)
    if n_test > 0:
        report.empirical_loss = empirical_loss(
            predictor, source, n_test, streams.generator(STREAM_TEST)
        )
    return predictor, report
