"""The results comparator of ``scripts/golden_diff.py``, on hand-made CSV pairs."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("golden_diff", REPO / "scripts" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
# registered first, so the dataclass can resolve its module
sys.modules["golden_diff"] = golden_diff
_spec.loader.exec_module(golden_diff)

HEADER = "seed,n,exact_loss,opt_value,chosen_coords,degenerate\n"
ROWS = ["1,4000,0.25280754063811706,,1|3,false\n", "2,4000,0.0,0.5,0|2,true\n"]


def write_pair(tmp_path, old_rows, new_rows, header=HEADER):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(header + "".join(old_rows))
    new.write_text(header + "".join(new_rows))
    return old, new


def test_identical_files_agree_with_zero_differences(tmp_path, capsys):
    old, new = write_pair(tmp_path, ROWS, ROWS)
    result = golden_diff.compare(old, new)
    assert result.mismatches == []
    assert result.floats == {"exact_loss": (0.0, 0.0), "opt_value": (0.0, 0.0)}
    assert golden_diff.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "float exact_loss" in out and "max_abs 0.000e+00  max_rel 0.000e+00" in out
    assert "agree: 0 discrete mismatches" in out


def test_float_columns_report_largest_differences(tmp_path):
    new_rows = ["1,4000,0.2528075406381171,,1|3,false\n", "2,4000,1e-13,0.5000000001,0|2,true\n"]
    old, new = write_pair(tmp_path, ROWS, new_rows)
    result = golden_diff.compare(old, new)
    assert result.mismatches == []
    absolute, relative = result.floats["exact_loss"]
    assert absolute == 1e-13 and relative == 1.0  # against an exact zero
    assert result.floats["opt_value"][0] == pytest.approx(1e-10)
    assert result.floats["opt_value"][1] == pytest.approx(2e-10)
    assert not result.agrees()
    assert golden_diff.main([str(old), str(new)]) == 1


def test_last_ulp_difference_agrees(tmp_path):
    new_rows = ["1,4000,0.2528075406381171,,1|3,false\n", ROWS[1]]
    old, new = write_pair(tmp_path, ROWS, new_rows)
    result = golden_diff.compare(old, new)
    assert 0.0 < result.floats["exact_loss"][0] <= 1e-16
    assert result.agrees()


@pytest.mark.parametrize(
    "column, new_row",
    [
        ("seed", "3,4000,0.0,0.5,0|2,true\n"),
        ("n", "2,4001,0.0,0.5,0|2,true\n"),
        ("chosen_coords", "2,4000,0.0,0.5,0|1,true\n"),
        ("degenerate", "2,4000,0.0,0.5,0|2,false\n"),
        ("opt_value", "2,4000,0.0,,0|2,true\n"),  # a float present in one file only
    ],
)
def test_discrete_cells_must_be_equal(tmp_path, column, new_row, capsys):
    old, new = write_pair(tmp_path, ROWS, [ROWS[0], new_row])
    result = golden_diff.compare(old, new)
    assert [(name, row) for name, row, _, _ in result.mismatches] == [(column, 1)]
    assert not result.agrees()
    assert golden_diff.main([str(old), str(new)]) == 1
    assert f"discrete {column} row 1" in capsys.readouterr().out


def test_nan_cells_are_equal_to_nan_only(tmp_path):
    rows = ["1,4000,nan,,1|3,false\n", ROWS[1]]
    old, new = write_pair(tmp_path, rows, rows)
    assert golden_diff.compare(old, new).floats["exact_loss"] == (0.0, 0.0)
    old, new = write_pair(tmp_path, rows, ROWS)
    assert golden_diff.compare(old, new).floats["exact_loss"][0] == float("inf")


def test_shape_mismatches_raise(tmp_path):
    old, new = write_pair(tmp_path, ROWS, ROWS[:1])
    with pytest.raises(ValueError, match="row counts"):
        golden_diff.compare(old, new)
    old.write_text(HEADER.replace("seed", "point") + "".join(ROWS))
    with pytest.raises(ValueError, match="headers"):
        golden_diff.compare(old, new)


def test_bundled_golden_files_agree_with_themselves(capsys):
    for path in sorted((REPO / "tests" / "golden").glob("*.csv")):
        assert golden_diff.main([str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "float beta_measured" in out and "float exact_loss" in out
        assert not any(line.startswith("discrete") for line in out.splitlines())
