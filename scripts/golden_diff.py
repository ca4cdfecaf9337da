"""Compare two ``results.csv`` files column by column.

    python3 scripts/golden_diff.py old/results.csv new/results.csv

Both files must have the same header and the same number of rows, and rows
are compared in order.  A column is a float column when every nonempty cell
of it, in both files, reads as a float and at least one is not an integer
literal; every other column (cover sizes, plans, seeds, ``chosen_coords``,
``degenerate``, integer fields and text) is discrete and must be equal cell
for cell, and so must the empty cells of a float column.  For each float
column the script prints the largest absolute and relative difference over
its rows.  It exits 0 when the discrete columns are equal and no float
column differs by more than ``TOL`` (absolute), else 1.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

# the largest absolute difference a float column may show and still agree
TOL = 1e-12


@dataclass
class Comparison:
    """The differences between two results files."""

    # column -> (largest absolute, largest relative difference)
    floats: dict[str, tuple[float, float]] = field(default_factory=dict)
    # (column, row, old cell, new cell) of every discrete cell that differs
    mismatches: list[tuple[str, int, str, str]] = field(default_factory=list)

    def agrees(self) -> bool:
        return not self.mismatches and all(a <= TOL for a, _ in self.floats.values())


def _read(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path}: no header")
    return rows[0], rows[1:]


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _difference(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference; equal values (NaNs included) differ by 0."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    if math.isnan(diff):
        return math.inf, math.inf
    return diff, diff / max(abs(a), abs(b))


def compare(old_path, new_path) -> Comparison:
    """Compare two results files; raises ValueError when their headers or
    row counts differ."""
    header, old = _read(old_path)
    new_header, new = _read(new_path)
    if header != new_header:
        raise ValueError(f"headers differ: {header} vs {new_header}")
    if len(old) != len(new):
        raise ValueError(f"row counts differ: {len(old)} vs {len(new)}")
    if any(len(row) != len(header) for row in old + new):
        raise ValueError("a row does not have one cell per column")
    result = Comparison()
    for j, name in enumerate(header):
        cells = [(a[j], b[j]) for a, b in zip(old, new)]
        values = [c for pair in cells for c in pair if c != ""]
        is_float = bool(values) and all(map(_is_float, values)) and not all(map(_is_int, values))
        if not is_float:
            result.mismatches.extend((name, i, a, b) for i, (a, b) in enumerate(cells) if a != b)
            continue
        largest = (0.0, 0.0)
        for i, (a, b) in enumerate(cells):
            if (a == "") != (b == ""):
                result.mismatches.append((name, i, a, b))
            elif a:
                diff = _difference(float(a), float(b))
                largest = (max(largest[0], diff[0]), max(largest[1], diff[1]))
        result.floats[name] = largest
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    result = compare(args.old, args.new)
    for name, i, a, b in result.mismatches:
        print(f"discrete {name} row {i}: {a!r} != {b!r}")
    width = max((len(name) for name in result.floats), default=0)
    for name, (absolute, relative) in result.floats.items():
        print(f"float {name:<{width}}  max_abs {absolute:.3e}  max_rel {relative:.3e}")
    agrees = result.agrees()
    print(f"{'agree' if agrees else 'DIFFER'}: {len(result.mismatches)} discrete mismatches, "
          f"float tolerance {TOL:g}")
    return 0 if agrees else 1


if __name__ == "__main__":
    sys.exit(main())
