"""The ``qfl`` command line.

Subcommands:

* ``qfl run <config>`` executes a seeded experiment sweep and writes
  ``results.csv`` plus ``summary.json``.
* ``qfl verify <fast|full>`` runs the named invariant suites.
* ``qfl cover <degree-set file> --n N --delta D`` prints the best commuting
  cover found for a degree set together with its score.

Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compatibility import best_cover, cover_score
from .harness import ConfigError, parse_seeds, run_config
from .pauli import DegreeSet, PauliString


def load_degree_set_file(path) -> DegreeSet:
    """Read a degree set: one or more Pauli digit strings per line, comma separated."""
    tokens = []
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        tokens.extend(tok.strip() for tok in ln.split(",") if tok.strip())
    if not tokens:
        raise ValueError(f"{path}: no Pauli strings found")
    strings = [PauliString.from_digits(tok) for tok in tokens]
    return DegreeSet.of(strings[0].d, strings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a key = value experiment config")
    run_p.add_argument("--seed-override", default=None, help="comma list replacing the config seeds")
    run_p.add_argument("--out-dir", default=None, help="base directory for the output folder")

    verify_p = sub.add_parser("verify", help="run the invariant suites")
    verify_p.add_argument("suite", choices=["fast", "full"])

    cover_p = sub.add_parser("cover", help="search a compatibility cover for a degree set")
    cover_p.add_argument("degree_set", help="file of Pauli digit strings")
    cover_p.add_argument("--n", type=int, required=True, help="sample budget the score assumes")
    cover_p.add_argument("--delta", type=float, required=True, help="confidence parameter in (0,1)")
    # best_cover checks the strategy, so a bad one exits 2 like any other input
    cover_p.add_argument("--strategy", default="greedy", help="greedy (default) or exhaustive")
    return parser


def _cmd_run(args) -> int:
    try:
        seeds = parse_seeds(args.seed_override) if args.seed_override else None
        csv_path, json_path = run_config(args.config, out_dir=args.out_dir, seed_override=seeds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(csv_path)
    print(json_path)
    return 0


def _cmd_verify(args) -> int:
    from .checks import run_suite

    try:
        return run_suite(args.suite)
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def _cmd_cover(args) -> int:
    try:
        nodes = load_degree_set_file(args.degree_set)
        cover = best_cover(nodes, args.n, args.delta, strategy=args.strategy)
        score = cover_score(cover, args.n, args.delta)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(cover.to_text())
    print(f"subsets: {cover.m}")
    print(f"score: {score!r}")
    print(f"beta_bound: {(8.0 * score) ** 0.5!r}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "cover":
        return _cmd_cover(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
