"""Reproducible experiment runner: config parsing, sweeps, and result files.

A config is line-oriented ``key = value`` text with ``#`` comments.  Comma
lists turn a key into a sweep axis; the run executes the cartesian product of
all swept axes, once per seed, and writes a CSV of per-run rows plus a JSON
summary with per-point aggregates.  Identical config and seeds produce a
byte-identical CSV; wall-clock timings live only in the JSON summary.

Each point is resolved once, before any run, into one record: its source
(with its eta override), degree set and cover.  Every seed's run and the
point's summary entry read that record.  The degree set, cover and plan
depend only on the measurement class (d, k or the strings, n, delta and the
cover strategy), so they are searched once per class and shared by every
point and source of that class (an eta sweep searches its cover once); each
source pays once for the work on its states.  Bad input,
including a cover strategy that cannot search the degree set or a budget
``n`` below the number of cover subsets, raises :class:`ConfigError` then.
The runs then go one after another, point by point and seed by seed; the
output directory is created only after the last one has returned, so a
failed run leaves no output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .compatibility import Cover
from .learner import _plan, junta_learn, qld_learn
from .pauli import DegreeSet, PauliString, degree_set_classical_upto, degree_set_upto
from .simulator import SampleSource, _checked_reduction, load_source, parse_key_values

CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "schema_version",
    "point",
    "seed",
    "source",
    "algorithm",
    "d",
    "k",
    "classical_only",
    "strings",
    "n",
    "delta",
    "eta",
    "cover_strategy",
    "n_test",
    "m_subsets",
    "score",
    "beta_bound",
    "beta_measured",
    "epsilon",
    "opt_value",
    "bound_value",
    "bound_measured",
    "exact_loss",
    "empirical_loss",
    "optimal_exact_loss",
    "chosen_coords",
    "degenerate",
]


class ConfigError(Exception):
    """Invalid experiment configuration or unreadable referenced files."""


def _parse_list(value: str, conv):
    items = [tok.strip() for tok in value.split(",") if tok.strip()]
    if not items:
        raise ConfigError(f"empty list value {value!r}")
    try:
        return [conv(tok) for tok in items]
    except ValueError as exc:
        raise ConfigError(f"bad value in list {value!r}: {exc}") from exc


def _parse_number(key: str, value: str, conv):
    try:
        return conv(value.strip())
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _checked_seeds(seeds) -> tuple[int, ...]:
    seeds = tuple(seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be nonnegative, got {seeds}")
    return seeds


def parse_seeds(value: str) -> tuple[int, ...]:
    """Parse a comma list of seeds: distinct nonnegative integers."""
    return _checked_seeds(_parse_list(value, int))


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


_KNOWN_KEYS = {
    "source",
    "algorithm",
    "k",
    "classical_only",
    "strings",
    "n",
    "delta",
    "eta",
    "cover_strategy",
    "seeds",
    "n_test",
    "epsilon",
    "out",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    base_dir: Path
    sources: tuple[str, ...]
    algorithm: str
    k_values: tuple[int, ...] | None
    classical_only: bool
    strings: tuple[str, ...] | None
    n_values: tuple[int, ...]
    delta_values: tuple[float, ...]
    eta_values: tuple[float, ...] | None
    cover_strategy: str
    seeds: tuple[int, ...]
    n_test: int
    epsilon: float
    out: str

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            fields = parse_key_values(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        unknown = set(fields) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        missing = {"source", "algorithm", "n", "delta", "seeds", "out"} - set(fields)
        if missing:
            raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
        algorithm = fields["algorithm"].strip()
        if algorithm not in ("qld", "junta"):
            raise ConfigError(f"{path}: algorithm must be 'qld' or 'junta', got {algorithm!r}")
        k_values = tuple(_parse_list(fields["k"], int)) if "k" in fields else None
        strings = tuple(_parse_list(fields["strings"], str)) if "strings" in fields else None
        if strings is not None and k_values is not None:
            raise ConfigError(f"{path}: give either 'k' or 'strings', not both")
        if strings is None and k_values is None:
            raise ConfigError(f"{path}: one of 'k' or 'strings' is required")
        if algorithm == "junta" and k_values is None:
            raise ConfigError(f"{path}: the junta algorithm needs 'k'")
        classical_only = _parse_bool(fields.get("classical_only", "false"))
        if classical_only and (algorithm != "qld" or k_values is None):
            raise ConfigError(f"{path}: classical_only needs the qld algorithm and 'k'")
        seeds = parse_seeds(fields["seeds"])
        n_values = tuple(_parse_list(fields["n"], int))
        if any(n < 1 for n in n_values):
            raise ConfigError("sample budgets must be positive")
        delta_values = tuple(_parse_list(fields["delta"], float))
        if any(not 0.0 < dl < 1.0 for dl in delta_values):
            raise ConfigError("delta values must lie in (0, 1)")
        eta_values = tuple(_parse_list(fields["eta"], float)) if "eta" in fields else None
        if eta_values is not None and any(not 0.0 <= e < 0.5 for e in eta_values):
            raise ConfigError("eta values must lie in [0, 0.5)")
        n_test = _parse_number("n_test", fields.get("n_test", "0"), int)
        if n_test < 0:
            raise ConfigError("n_test must be nonnegative")
        epsilon = _parse_number("epsilon", fields.get("epsilon", "0"), float)
        if not (math.isfinite(epsilon) and epsilon >= 0.0):
            raise ConfigError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
        sources = tuple(_parse_list(fields["source"], str))
        for rel in sources:
            if not (path.parent / rel).is_file():
                raise ConfigError(f"source file not found: {path.parent / rel}")
        return cls(
            base_dir=path.parent,
            sources=sources,
            algorithm=algorithm,
            k_values=k_values,
            classical_only=classical_only,
            strings=strings,
            n_values=n_values,
            delta_values=delta_values,
            eta_values=eta_values,
            # checked against the degree set when the points are resolved
            cover_strategy=fields.get("cover_strategy", "greedy").strip(),
            seeds=seeds,
            n_test=n_test,
            epsilon=epsilon,
            out=fields["out"].strip(),
        )

    def points(self) -> list[dict]:
        """Cartesian product of all swept axes, in deterministic order."""
        axes = (self.sources, self.k_values or (None,), self.n_values, self.delta_values,
                self.eta_values or (None,))
        return [dict(zip(("source", "k", "n", "delta", "eta"), p)) for p in itertools.product(*axes)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class _Point:
    """A config point, resolved once before any run: its parameters, its
    source with the eta override, its degree set and its checked cover.  The
    runs append their rows and wall time here, and the summary reads them."""

    params: dict
    source: SampleSource
    degree_set: DegreeSet
    cover: Cover
    rows: list[dict] = field(default_factory=list)
    wall_ms: float = 0.0


def _degree_set_for(config: ExperimentConfig, source: SampleSource, k: int | None) -> DegreeSet:
    """The config's strings, or for both learners every string of support
    at most k (diagonal ones only under ``classical_only``), 1 <= k <= d."""
    if config.strings is not None:
        return DegreeSet.of(source.d, [PauliString.from_digits(tok) for tok in config.strings])
    if not 1 <= k <= source.d:
        raise ConfigError(f"k={k} out of range [1, d={source.d}]")
    if config.classical_only:
        return degree_set_classical_upto(source.d, k)
    return degree_set_upto(source.d, k)


def _resolve(config: ExperimentConfig, loaded: dict[str, SampleSource], params: dict) -> _Point:
    """The point of ``params``; each source file is loaded once, into ``loaded``."""
    if params["source"] not in loaded:
        loaded[params["source"]] = load_source(config.base_dir / params["source"])
    source = loaded[params["source"]]
    if params["eta"] is not None:
        if not source.realizable and not source.maximally_mixed:
            raise ConfigError("eta override on a non-maximally-mixed custom source")
        source = source.with_flip_rate(params["eta"])
    degree_set = _degree_set_for(config, source, params["k"])
    # the search checks the cover strategy and the budget, so a mistake exits
    # before any run; the plan is cached for the class, so the runs reuse it
    cover, _ = _plan(degree_set, params["n"], params["delta"], config.cover_strategy)
    return _Point(params, source, degree_set, cover)


def _known_opt(source: SampleSource) -> float | None:
    return source.flip_rate if source.realizable else None


def _run_one(config: ExperimentConfig, point: _Point, seed: int) -> dict:
    params, source = point.params, point.source
    if config.algorithm == "junta":
        _, report = junta_learn(
            source,
            params["k"],
            params["n"],
            params["delta"],
            seed,
            cover_strategy=config.cover_strategy,
            n_test=config.n_test,
        )
    else:
        _, report = qld_learn(
            source,
            point.degree_set,
            params["n"],
            params["delta"],
            seed,
            cover_strategy=config.cover_strategy,
            epsilon=config.epsilon,
            opt_value=_known_opt(source),
            n_test=config.n_test,
        )
    row = {
        "schema_version": CSV_SCHEMA_VERSION,
        "point": None,  # filled by the caller
        "source": params["source"],
        "algorithm": config.algorithm,
        "d": source.d,
        "k": params["k"],
        "classical_only": config.classical_only,
        "strings": "|".join(config.strings) if config.strings else None,
        "eta": source.flip_rate,
        "cover_strategy": config.cover_strategy,
        "n_test": config.n_test,
        "m_subsets": report.cover.m,
        "chosen_coords": "|".join(map(str, report.chosen_coords))
        if report.chosen_coords is not None
        else None,
    }
    # every other column is the report field of that name
    row.update((name, getattr(report, name)) for name in CSV_COLUMNS if name not in row)
    return row


def _mean_std(values: list[float]) -> dict:
    if not values:
        return {"mean": None, "stddev": None}
    mean = statistics.fmean(values)
    stddev = statistics.pstdev(values) if len(values) > 1 else 0.0
    return {"mean": mean, "stddev": stddev}


def run_config(
    config_path,
    *,
    out_dir=None,
    seed_override: tuple[int, ...] | None = None,
) -> tuple[Path, Path]:
    """Execute a config and write ``results.csv`` and ``summary.json``.

    Raises ConfigError on bad input before any run starts, and creates the
    output directory only after every run has returned, so a failure leaves
    no output.  Runs go point by point, then seed by seed, the order of the
    CSV rows; every run derives all randomness from its own seed.
    """
    config = ExperimentConfig.from_file(config_path)
    seeds = _checked_seeds(seed_override) if seed_override else config.seeds
    loaded: dict[str, SampleSource] = {}
    try:
        points = [_resolve(config, loaded, params) for params in config.points()]
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    for pi, point in enumerate(points):
        for seed in seeds:
            t0 = time.perf_counter()
            row = _run_one(config, point, seed)
            point.wall_ms += (time.perf_counter() - t0) * 1000.0
            row["point"] = pi
            point.rows.append(row)

    target = (Path(out_dir) if out_dir is not None else config.base_dir) / config.out
    target.mkdir(parents=True, exist_ok=True)
    csv_path = target / "results.csv"
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for point in points:
        for row in point.rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    csv_path.write_text(buffer.getvalue(), encoding="utf-8")

    summary = {
        "schema_version": CSV_SCHEMA_VERSION,
        "config": str(Path(config_path)),
        "algorithm": config.algorithm,
        "seeds": list(seeds),
        "points": [],
        "total_wall_ms": sum(point.wall_ms for point in points),
    }
    for pi, point in enumerate(points):
        bound_checked = [
            r for r in point.rows if r["bound_measured"] is not None and r["exact_loss"] is not None
        ]
        met = [r for r in bound_checked if r["exact_loss"] <= r["bound_measured"]]
        entry = {
            "point": pi,
            "params": point.params,
            "runs": len(point.rows),
            "bound_fraction_met": (len(met) / len(bound_checked)) if bound_checked else None,
            "wall_ms": point.wall_ms,
        }
        for key in ("exact_loss", "empirical_loss", "optimal_exact_loss", "beta_measured"):
            entry[key] = _mean_std([r[key] for r in point.rows if r[key] is not None])
        entry["m"] = point.cover.m
        entry["max_clique"] = max(point.cover.sizes())
        entry["r"] = [_checked_reduction(b).rank for b in point.cover.subsets]
        summary["points"].append(entry)
    json_path = target / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path
