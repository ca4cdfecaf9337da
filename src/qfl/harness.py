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
source pays once for the work on its states.  Each source file is read once
per call and loaded only when its bytes, or those of a file it names, differ
from the last call's: the sources of the last call are kept, memos and all,
so a repeat call on unchanged files pays only for its seeds.  Bad input,
including an ``n``, ``delta``, ``eta`` or ``k`` out of range, a cover
strategy that cannot search the degree set or a budget ``n`` below one sample
per cover subset, raises :class:`ConfigError` then.  The runs then go one
after another, point by point and seed by seed; the output directory is
created only after the last one has returned, so a failed run leaves no
output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .compatibility import Cover
from .learner import _plan, junta_learn, low_degree_set, qld_learn
from .pauli import DegreeSet, PauliString
from .simulator import (
    SampleSource,
    SourceFiles,
    _checked_reduction,
    load_source,
    override_flip_rate,
    parse_key_values,
    read_source_files,
)

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
    """Parsed experiment description.

    ``from_file`` checks the keys, their syntax and how they combine.  The
    ranges of ``n``, ``delta`` and ``eta`` and the cover strategy are
    checked when the points are resolved, by the functions that own them:
    the cover search and allocation, and the source's flip-rate override.
    """

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
        delta_values = tuple(_parse_list(fields["delta"], float))
        eta_values = tuple(_parse_list(fields["eta"], float)) if "eta" in fields else None
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
    at most k (diagonal ones only under ``classical_only``)."""
    if config.strings is not None:
        return DegreeSet.of(source.d, [PauliString.from_digits(tok) for tok in config.strings])
    return low_degree_set(source.d, k, classical_only=config.classical_only)


# The sources the last run_config call resolved, keyed as _resolve_sources
# keys them: by a sha256 digest of the bytes load_source parsed (the
# specification and each file it names), never by a path or an mtime, so an
# edited file is loaded again, and by the exact eta, sign included.  Their
# memos hold the work that no seed changes (prepared batches, exact tables,
# the optimal loss), so a repeat call on unchanged files pays only for its
# seeds; a call on other files gets nothing from it.  Each call replaces the
# whole set, and a call whose sources fail to load leaves it empty.  Between
# calls it holds what the last call held while it ran; at MAX_QUBITS = 12
# that is about 768 MB per source file (two dense 4096 x 4096 complex states
# and the labeling operator), 256 MB more per eta variant (its own labeling
# operator; it shares the states), and at most 0.25 MB of probabilities per
# prepared batch.  A call drops the kept sources it does not use before it
# loads any, so at no time does it hold more than the larger of the two
# calls' sets, plus the bytes of the files it has still to load.
_last_sources: dict[tuple, SampleSource] = {}


def _content_key(files: SourceFiles) -> tuple:
    return tuple((name, hashlib.sha256(data).digest()) for name, data in files.data.items())


def _variant_key(key: tuple, eta: float | None) -> tuple:
    """The key of a file's source under a config ``eta`` (None: the file's
    own flip rate); ``float.hex`` keeps -0.0 apart from 0.0, as the CSV does."""
    return key, None if eta is None else eta.hex()


def _resolve_sources(config: ExperimentConfig, previous: dict) -> tuple[dict, list]:
    """The sources of the config's points, in order, and the set to keep:
    each file's own source and every eta variant of it, by key.  Each file is
    read once.  A source whose key ``previous`` holds is taken from it, memo
    and all; ``previous`` is then emptied, and any other source is loaded
    from the bytes just read.  An eta variant goes through the one flip-rate
    rule, :func:`override_flip_rate`."""
    params = config.points()
    keys: dict[str, tuple] = {}
    to_load: dict[tuple, tuple[str, SourceFiles]] = {}
    for rel in dict.fromkeys(p["source"] for p in params):
        files = read_source_files(config.base_dir / rel)
        key = keys[rel] = _content_key(files)
        if (key, None) not in previous:
            to_load.setdefault(key, (rel, files))
    wanted = [_variant_key(keys[p["source"]], p["eta"]) for p in params]
    used = {(key, None) for key in keys.values()} | set(wanted)
    kept = {k: previous[k] for k in used & previous.keys()}
    previous.clear()
    for key in list(to_load):
        rel, files = to_load.pop(key)
        kept[key, None] = load_source(config.base_dir / rel, files)
    for p, vkey in zip(params, wanted):
        if vkey not in kept:
            kept[vkey] = override_flip_rate(kept[vkey[0], None], p["eta"])
    return kept, [kept[vkey] for vkey in wanted]


def _resolve(config: ExperimentConfig, source: SampleSource, params: dict) -> _Point:
    """The point of ``params`` on its resolved source."""
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
    CSV rows; every run derives all randomness from its own seed.  Sources
    whose files hold the same bytes as in the last call are that call's
    sources, with their memos (see ``_last_sources``).
    """
    global _last_sources
    config = ExperimentConfig.from_file(config_path)
    seeds = _checked_seeds(seed_override) if seed_override else config.seeds
    previous, _last_sources = _last_sources, {}
    try:
        _last_sources, sources = _resolve_sources(config, previous)
        points = [_resolve(config, source, params)
                  for source, params in zip(sources, config.points())]
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
