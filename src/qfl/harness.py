"""Reproducible experiment runner: config parsing, sweeps, and result files.

A config is line-oriented ``key = value`` text with ``#`` comments.  Comma
lists turn a key into a sweep axis; the run executes the cartesian product of
all swept axes, once per seed, and writes a CSV of per-run rows plus a JSON
summary with per-point aggregates.  Identical config and seeds produce a
byte-identical CSV; wall-clock timings live only in the JSON summary.

Each point's source (with its eta override) and degree set are resolved once,
before any run, and reused by every seed.  Bad input, including a non-integer
``QFL_THREADS``, a cover strategy that cannot search the degree set, or a
budget ``n`` below the number of cover subsets, raises :class:`ConfigError`
then; the output directory is created only after every run has returned, so a
failed run leaves no output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .compatibility import best_cover, check_strategy
from .learner import LearnReport, junta_learn, qld_learn
from .pauli import DegreeSet, PauliString, degree_set_classical_upto, degree_set_upto
from .simulator import SampleSource, load_source, parse_key_values

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
        seeds = parse_seeds(fields["seeds"])
        cover_strategy = fields.get("cover_strategy", "greedy").strip()
        if cover_strategy not in ("greedy", "exhaustive"):
            raise ConfigError(f"{path}: cover_strategy must be greedy or exhaustive")
        config = cls(
            base_dir=path.parent,
            sources=tuple(_parse_list(fields["source"], str)),
            algorithm=algorithm,
            k_values=k_values,
            classical_only=_parse_bool(fields.get("classical_only", "false")),
            strings=strings,
            n_values=tuple(_parse_list(fields["n"], int)),
            delta_values=tuple(_parse_list(fields["delta"], float)),
            eta_values=tuple(_parse_list(fields["eta"], float)) if "eta" in fields else None,
            cover_strategy=cover_strategy,
            seeds=seeds,
            n_test=_parse_number("n_test", fields.get("n_test", "0"), int),
            epsilon=_parse_number("epsilon", fields.get("epsilon", "0"), float),
            out=fields["out"].strip(),
        )
        config.validate()
        return config

    def validate(self) -> None:
        if any(n < 1 for n in self.n_values):
            raise ConfigError("sample budgets must be positive")
        if any(not 0.0 < dl < 1.0 for dl in self.delta_values):
            raise ConfigError("delta values must lie in (0, 1)")
        if self.eta_values is not None and any(not 0.0 <= e < 0.5 for e in self.eta_values):
            raise ConfigError("eta values must lie in [0, 0.5)")
        if self.n_test < 0:
            raise ConfigError("n_test must be nonnegative")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ConfigError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        for rel in self.sources:
            if not (self.base_dir / rel).is_file():
                raise ConfigError(f"source file not found: {self.base_dir / rel}")

    def points(self) -> list[dict]:
        """Cartesian product of all swept axes, in deterministic order."""
        out = []
        for source in self.sources:
            for k in self.k_values or (None,):
                for n in self.n_values:
                    for delta in self.delta_values:
                        for eta in self.eta_values or (None,):
                            out.append(
                                {
                                    "source": source,
                                    "k": k,
                                    "n": n,
                                    "delta": delta,
                                    "eta": eta,
                                }
                            )
        return out


@dataclass
class PointResult:
    point_index: int
    params: dict
    rows: list[dict] = field(default_factory=list)
    wall_ms: float = 0.0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _degree_set_for(config: ExperimentConfig, source: SampleSource, k: int | None) -> DegreeSet:
    if config.strings is not None:
        strings = [PauliString.from_digits(tok) for tok in config.strings]
        return DegreeSet.of(source.d, strings)
    assert k is not None
    if k > source.d:
        raise ConfigError(f"k={k} exceeds the source's qubit count d={source.d}")
    if config.classical_only:
        return degree_set_classical_upto(source.d, k)
    return degree_set_upto(source.d, k)


def _check_cover_budget(config: ExperimentConfig, params: dict, degree_set: DegreeSet) -> None:
    """Reject a point whose cover search cannot run or whose budget is below
    the cover's subset count m.  m never exceeds the degree set's size, so the
    search runs here only when n is smaller than that size."""
    check_strategy(len(degree_set), config.cover_strategy)
    n = params["n"]
    if n < len(degree_set):
        m = best_cover(degree_set, n, params["delta"], config.cover_strategy).m
        if n < m:
            raise ConfigError(f"need n >= number of cover subsets: n={n} < m={m}")


def _known_opt(source: SampleSource) -> float | None:
    if source.kind in ("realizable", "classical"):
        return source.flip_rate if source.flip_rate > 0 else 0.0
    if source.kind == "noisy":
        return source.flip_rate
    return None


def _run_one(config: ExperimentConfig, params: dict, source: SampleSource,
             degree_set: DegreeSet | None, seed: int) -> dict:
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
            degree_set,
            params["n"],
            params["delta"],
            seed,
            cover_strategy=config.cover_strategy,
            epsilon=config.epsilon,
            opt_value=_known_opt(source),
            n_test=config.n_test,
        )
    return _row_from_report(config, params, seed, source, report)


def _row_from_report(
    config: ExperimentConfig,
    params: dict,
    seed: int,
    source: SampleSource,
    report: LearnReport,
) -> dict:
    return {
        "schema_version": CSV_SCHEMA_VERSION,
        "point": None,  # filled by the caller
        "seed": seed,
        "source": params["source"],
        "algorithm": config.algorithm,
        "d": source.d,
        "k": params["k"],
        "classical_only": config.classical_only,
        "strings": "|".join(config.strings) if config.strings else None,
        "n": params["n"],
        "delta": params["delta"],
        "eta": source.flip_rate,
        "cover_strategy": config.cover_strategy,
        "n_test": config.n_test,
        "m_subsets": report.cover.m,
        "score": report.score,
        "beta_bound": report.beta_bound,
        "beta_measured": report.beta_measured,
        "epsilon": report.epsilon,
        "opt_value": report.opt_value,
        "bound_value": report.bound_value,
        "bound_measured": report.bound_measured,
        "exact_loss": report.exact_loss,
        "empirical_loss": report.empirical_loss,
        "optimal_exact_loss": report.optimal_exact_loss,
        "chosen_coords": "|".join(map(str, report.chosen_coords))
        if report.chosen_coords is not None
        else None,
        "degenerate": report.degenerate,
    }


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
    no output.  The worker pool width is capped by the ``QFL_THREADS``
    environment variable (default 1); scheduling never affects the output
    bytes because every run derives all randomness from its own seed.
    """
    config = ExperimentConfig.from_file(config_path)
    seeds = _checked_seeds(seed_override) if seed_override else config.seeds
    points = config.points()
    # Resolve each point once: its source, loaded once per file, with the eta
    # override, and its degree set (None for junta, whose learner builds it).
    loaded: dict[str, SampleSource] = {}
    resolved = []
    for params in points:
        try:
            if params["source"] not in loaded:
                loaded[params["source"]] = load_source(config.base_dir / params["source"])
            source = loaded[params["source"]]
            if params["eta"] is not None:
                if source.kind == "custom" and not source.maximally_mixed:
                    raise ConfigError("eta override on a non-maximally-mixed custom source")
                source = source.with_flip_rate(params["eta"])
            if config.algorithm == "qld":
                degree_set = _degree_set_for(config, source, params["k"])
                resolved.append((source, degree_set))
            elif not 1 <= params["k"] <= source.d:
                raise ConfigError(f"junta k={params['k']} out of range for d={source.d}")
            else:
                degree_set = degree_set_upto(source.d, params["k"])
                resolved.append((source, None))
            _check_cover_budget(config, params, degree_set)
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from exc
    try:
        threads = max(1, int(os.environ.get("QFL_THREADS", "1")))
    except ValueError as exc:
        raise ConfigError(f"QFL_THREADS must be an integer: {exc}") from exc

    tasks = [(pi, si) for pi in range(len(points)) for si in range(len(seeds))]
    rows: dict[tuple[int, int], dict] = {}
    timings: dict[tuple[int, int], float] = {}

    def work(task):
        pi, si = task
        t0 = time.perf_counter()
        row = _run_one(config, points[pi], *resolved[pi], seeds[si])
        wall = (time.perf_counter() - t0) * 1000.0
        row["point"] = pi
        return task, row, wall

    if threads == 1:
        outcomes = map(work, tasks)
        for task, row, wall in outcomes:
            rows[task] = row
            timings[task] = wall
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for task, row, wall in pool.map(work, tasks):
                rows[task] = row
                timings[task] = wall

    target = (Path(out_dir) if out_dir is not None else config.base_dir) / config.out
    target.mkdir(parents=True, exist_ok=True)
    csv_path = target / "results.csv"
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for task in tasks:
        writer.writerow({k: _fmt(v) for k, v in rows[task].items()})
    csv_path.write_text(buffer.getvalue(), encoding="utf-8")

    summary = {
        "schema_version": CSV_SCHEMA_VERSION,
        "config": str(Path(config_path)),
        "algorithm": config.algorithm,
        "seeds": list(seeds),
        "points": [],
        "total_wall_ms": sum(timings.values()),
    }
    for pi, params in enumerate(points):
        point_rows = [rows[(pi, si)] for si in range(len(seeds))]
        bound_checked = [
            r for r in point_rows if r["bound_measured"] is not None and r["exact_loss"] is not None
        ]
        met = [r for r in bound_checked if r["exact_loss"] <= r["bound_measured"]]
        entry = {
            "point": pi,
            "params": params,
            "runs": len(point_rows),
            "exact_loss": _mean_std([r["exact_loss"] for r in point_rows if r["exact_loss"] is not None]),
            "empirical_loss": _mean_std(
                [r["empirical_loss"] for r in point_rows if r["empirical_loss"] is not None]
            ),
            "optimal_exact_loss": _mean_std(
                [r["optimal_exact_loss"] for r in point_rows if r["optimal_exact_loss"] is not None]
            ),
            "beta_measured": _mean_std(
                [r["beta_measured"] for r in point_rows if r["beta_measured"] is not None]
            ),
            "bound_fraction_met": (len(met) / len(bound_checked)) if bound_checked else None,
            "wall_ms": sum(timings[(pi, si)] for si in range(len(seeds))),
        }
        summary["points"].append(entry)
    json_path = target / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path
