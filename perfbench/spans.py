"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer replaces the public functions that ``qfl.learner`` and
``qfl.harness`` call, as bound in those callers' module namespaces, with
wrappers that record a span (name, start, end, parent) and counts at the
boundary.  The program is single-threaded in the benchmark, so one stack
gives each span its parent.  Spans stay in memory until the run ends.  A name
that no longer exists in a namespace is reported as absent, not as an error.

Span names are ``<defining module>.<function>``, so a call is attributed to
the layer that implements it, whichever module calls it.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from qfl import harness, learner

# Names wrapped in each caller's namespace, and the counts kept per call.
LEARNER_TARGETS = (
    "draw_samples", "group_samples", "measure_batch_groups", "best_cover",
    "check_cover", "allocate_batches", "fourier_estimation", "build_predictor",
    "exact_loss", "empirical_loss", "opt_k", "rho_norm", "sign_operator",
    "synthesize", "qld_learn", "junta_learn",
)
HARNESS_TARGETS = ("load_source", "qld_learn", "junta_learn", "run_config")


def _count_outcomes(span, args, kwargs, out):
    span.counts["outcomes"] = int(args[2].size)


def _count_samples(span, args, kwargs, out):
    span.counts["samples"] = int(args[1])


def _count_groups(span, args, kwargs, out):
    span.counts["groups"] = len(out)


def _count_cover(span, args, kwargs, out):
    span.counts["m"] = out.m
    span.counts["max_clique"] = max(out.sizes())


def _count_path(span, args, kwargs, out):
    span.counts["path"] = str(args[0])


COUNTERS = {
    "measure_batch_groups": _count_outcomes,
    "draw_samples": _count_samples,
    "group_samples": _count_groups,
    "best_cover": _count_cover,
    "load_source": _count_path,
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count = COUNTERS.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(sp, args, kwargs, out)
                return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def install(self) -> None:
        for attr in LEARNER_TARGETS:
            self.wrap(learner, attr)
        for attr in HARNESS_TARGETS:
            self.wrap(harness, attr)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [sp.seconds for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.seconds
        return own


# (metric, unit) in report order; a layer that never ran reports 0.  Times and
# counts are totals over one pass, except best_cover.m (mean subsets per
# cover) and best_cover.max_clique (largest subset of any cover).
LAYER_METRICS = (
    ("simulator.measure_batch_groups.self_s", "s"),
    ("simulator.measure_batch_groups.calls", "count"),
    ("simulator.measure_batch_groups.outcomes", "count"),
    ("simulator.measure_batch_groups.outcomes_per_s", "1/s"),
    ("simulator.draw_samples.self_s", "s"),
    ("simulator.draw_samples.samples", "count"),
    ("simulator.group_samples.self_s", "s"),
    ("simulator.group_samples.groups", "count"),
    ("simulator.source.s", "s"),
    ("simulator.source.calls", "count"),
    ("compatibility.best_cover.self_s", "s"),
    ("compatibility.best_cover.m", "count"),
    ("compatibility.best_cover.max_clique", "count"),
    ("compatibility.allocate_batches.self_s", "s"),
    ("compatibility.check_cover.self_s", "s"),
    ("learner.fourier_estimation.self_s", "s"),
    ("learner.learn.self_s", "s"),
    ("learner.build_predictor.self_s", "s"),
    ("learner.build_predictor.calls", "count"),
    ("learner.select.s", "s"),
    ("learner.opt_k.s", "s"),
    ("learner.exact_loss.s", "s"),
    ("learner.empirical_loss.s", "s"),
    ("operators.rho_norm.s", "s"),
    ("operators.rho_norm.calls", "count"),
    ("operators.sign_operator.s", "s"),
    ("operators.sign_operator.calls", "count"),
    ("pauli.synthesize.s", "s"),
    ("pauli.synthesize.calls", "count"),
    ("harness.load_source.s", "s"),
    ("harness.load_source.calls", "count"),
    ("harness.load_source.reuse", "ratio"),
    ("harness.run_config.self_s", "s"),
)

SOURCE_SPANS = ("simulator.source", "simulator.load_source")
LEARN_SPANS = ("learner.qld_learn", "learner.junta_learn")


def layer_values(spans: list[Span], own: list[float]) -> dict[str, float]:
    """Per-layer totals over one traced pass (``spans`` and their self times)."""

    def pick(*names):
        return [i for i, sp in enumerate(spans) if sp.name in names]

    def inclusive(idx):
        return sum(spans[i].seconds for i in idx)

    def exclusive(idx):
        return sum(own[i] for i in idx)

    def summed(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    mbg = pick("simulator.measure_batch_groups")
    draw = pick("simulator.draw_samples")
    group = pick("simulator.group_samples")
    src = pick(*SOURCE_SPANS)
    cover = pick("compatibility.best_cover")
    predict = pick("learner.build_predictor")
    learn = set(pick(*LEARN_SPANS))
    junta = {i for i in learn if spans[i].name == "learner.junta_learn"}
    select = [i for i, sp in enumerate(spans)
              if sp.parent in junta and sp.name in ("operators.rho_norm", "pauli.synthesize")]
    rho = pick("operators.rho_norm")
    sign = pick("operators.sign_operator")
    synth = pick("pauli.synthesize")
    loads = pick("simulator.load_source")
    mbg_s = exclusive(mbg)
    return {
        "simulator.measure_batch_groups.self_s": mbg_s,
        "simulator.measure_batch_groups.calls": len(mbg),
        "simulator.measure_batch_groups.outcomes": summed(mbg, "outcomes"),
        "simulator.measure_batch_groups.outcomes_per_s": summed(mbg, "outcomes") / mbg_s if mbg_s else 0.0,
        "simulator.draw_samples.self_s": exclusive(draw),
        "simulator.draw_samples.samples": summed(draw, "samples"),
        "simulator.group_samples.self_s": exclusive(group),
        "simulator.group_samples.groups": summed(group, "groups"),
        "simulator.source.s": inclusive(src),
        "simulator.source.calls": len(src),
        "compatibility.best_cover.self_s": exclusive(cover),
        "compatibility.best_cover.m": summed(cover, "m") / len(cover) if cover else 0.0,
        "compatibility.best_cover.max_clique": max((spans[i].counts["max_clique"] for i in cover), default=0),
        "compatibility.allocate_batches.self_s": exclusive(pick("compatibility.allocate_batches")),
        "compatibility.check_cover.self_s": exclusive(pick("compatibility.check_cover")),
        "learner.fourier_estimation.self_s": exclusive(pick("learner.fourier_estimation")),
        "learner.learn.self_s": exclusive(learn),
        "learner.build_predictor.self_s": exclusive(predict),
        "learner.build_predictor.calls": len(predict),
        "learner.select.s": inclusive(select),
        "learner.opt_k.s": inclusive(pick("learner.opt_k")),
        "learner.exact_loss.s": inclusive(pick("learner.exact_loss")),
        "learner.empirical_loss.s": inclusive(pick("learner.empirical_loss")),
        "operators.rho_norm.s": inclusive(rho),
        "operators.rho_norm.calls": len(rho),
        "operators.sign_operator.s": inclusive(sign),
        "operators.sign_operator.calls": len(sign),
        "pauli.synthesize.s": inclusive(synth),
        "pauli.synthesize.calls": len(synth),
        "harness.load_source.s": inclusive(loads),
        "harness.load_source.calls": len(loads),
        "harness.load_source.reuse": len({spans[i].counts["path"] for i in loads}) / len(loads) if loads else 0.0,
        "harness.run_config.self_s": exclusive(pick("harness.run_config")),
    }


def median_values(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
