"""Experiment configs, the runner's output files, and the command line."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfl import checks, harness
from qfl.cli import main
from qfl.harness import CSV_COLUMNS, ConfigError, ExperimentConfig, run_config

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def write_parity_setup(tmp_path: Path, *, seeds="1, 2", n=2000) -> Path:
    (tmp_path / "parity.src").write_text(
        "kind = classical\nd = 2\ntruth_table = 0110\n", encoding="utf-8"
    )
    config = tmp_path / "parity.cfg"
    config.write_text(
        "source = parity.src\n"
        "algorithm = qld\n"
        "k = 2\n"
        "classical_only = true\n"
        f"n = {n}\n"
        "delta = 0.05\n"
        f"seeds = {seeds}\n"
        "out = out\n",
        encoding="utf-8",
    )
    return config


class TestConfigParsing:
    def test_parses_bundled_bell_config(self):
        config = ExperimentConfig.from_file(CONFIGS / "bell.cfg")
        assert config.algorithm == "qld"
        assert config.k_values == (2,)
        assert config.seeds == (1, 2, 3)
        assert len(config.points()) == 1

    def test_sweep_points_order(self, tmp_path):
        (tmp_path / "parity.src").write_text("kind = classical\nd = 2\ntruth_table = 0110\n")
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(
            "source = parity.src\nalgorithm = qld\nk = 1, 2\nn = 100, 200\n"
            "delta = 0.1\nseeds = 1\nout = out\n"
        )
        points = ExperimentConfig.from_file(config_path).points()
        assert [(p["k"], p["n"]) for p in points] == [(1, 100), (1, 200), (2, 100), (2, 200)]

    def test_missing_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("source = x.src\nalgorithm = qld\nk = 1\nn = 10\ndelta = 0.1\nout = o\n")
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_file(bad)

    def test_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wat = 1\n")
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_file(bad)

    def test_duplicate_seeds(self, tmp_path):
        (tmp_path / "parity.src").write_text("kind = classical\nd = 2\ntruth_table = 0110\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "source = parity.src\nalgorithm = qld\nk = 1\nn = 10\ndelta = 0.1\n"
            "seeds = 1, 1\nout = o\n"
        )
        with pytest.raises(ConfigError, match="distinct"):
            ExperimentConfig.from_file(bad)

    def test_missing_source_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "source = nope.src\nalgorithm = qld\nk = 1\nn = 10\ndelta = 0.1\n"
            "seeds = 1\nout = o\n"
        )
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file(bad)


class TestRunConfig:
    def test_writes_csv_and_summary(self, tmp_path):
        config = write_parity_setup(tmp_path)
        csv_path, json_path = run_config(config)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3  # header + 2 seeds
        summary = json.loads(json_path.read_text())
        assert summary["points"][0]["runs"] == 2
        assert summary["points"][0]["optimal_exact_loss"]["mean"] == 0.0

    def test_seed_override_and_out_dir(self, tmp_path):
        config = write_parity_setup(tmp_path)
        out = tmp_path / "elsewhere"
        csv_path, _ = run_config(config, out_dir=out, seed_override=(5,))
        assert csv_path.parent == out / "out"
        assert len(csv_path.read_text().splitlines()) == 2

    def test_byte_identical_reruns(self, tmp_path):
        config = write_parity_setup(tmp_path)
        first, _ = run_config(config, out_dir=tmp_path / "a")
        second, _ = run_config(config, out_dir=tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()

    def test_thread_pool_matches_serial(self, tmp_path, monkeypatch):
        config = write_parity_setup(tmp_path, seeds="1, 2, 3")
        serial, _ = run_config(config, out_dir=tmp_path / "serial")
        monkeypatch.setenv("QFL_THREADS", "3")
        pooled, _ = run_config(config, out_dir=tmp_path / "pooled")
        assert serial.read_bytes() == pooled.read_bytes()

    def test_bound_dominates_loss_on_realizable_rows(self, tmp_path):
        config = write_parity_setup(tmp_path, seeds="1, 2, 3, 4", n=4000)
        csv_path, json_path = run_config(config)
        header, *rows = csv_path.read_text().splitlines()
        cols = header.split(",")
        for row in rows:
            rec = dict(zip(cols, row.split(",")))
            assert float(rec["bound_measured"]) >= float(rec["exact_loss"])
        assert json.loads(json_path.read_text())["points"][0]["bound_fraction_met"] == 1.0

    def test_explicit_string_list(self, tmp_path):
        (tmp_path / "parity.src").write_text("kind = classical\nd = 2\ntruth_table = 0110\n")
        config_path = tmp_path / "strings.cfg"
        config_path.write_text(
            "source = parity.src\nalgorithm = qld\nstrings = 33, 30, 03\n"
            "n = 3000\ndelta = 0.05\nseeds = 1\nout = out\n"
        )
        csv_path, _ = run_config(config_path)
        header, row = csv_path.read_text().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["strings"] == "33|30|03"
        assert float(rec["exact_loss"]) <= 0.05

    def test_eta_sweep(self, tmp_path):
        (tmp_path / "parity.src").write_text("kind = classical\nd = 2\ntruth_table = 0110\n")
        config_path = tmp_path / "noise.cfg"
        config_path.write_text(
            "source = parity.src\nalgorithm = qld\nk = 2\nclassical_only = true\n"
            "n = 3000\ndelta = 0.05\neta = 0.0, 0.1\nseeds = 1\nout = out\n"
        )
        csv_path, _ = run_config(config_path)
        header, *rows = csv_path.read_text().splitlines()
        cols = header.split(",")
        etas = [dict(zip(cols, r.split(",")))["eta"] for r in rows]
        assert etas == ["0.0", "0.1"]


class TestGoldenBytes:
    """``results.csv`` bytes of the bundled configs, as recorded in ``tests/golden``.

    A change that alters these bytes regenerates the files (``run_config``
    with the seeds below, copying each ``results.csv`` to
    ``tests/golden/<config stem>.csv``) and says why in CHANGES.md.
    """

    @pytest.mark.parametrize(
        "config, seeds",
        [("bell.cfg", None), ("parity_qld.cfg", (1, 2)), ("junta_d5.cfg", (1,))],
    )
    def test_results_match_golden(self, tmp_path, config, seeds):
        csv_path, _ = run_config(CONFIGS / config, out_dir=tmp_path, seed_override=seeds)
        golden = REPO / "tests" / "golden" / f"{Path(config).stem}.csv"
        assert csv_path.read_bytes() == golden.read_bytes()


class TestCli:
    def test_run_bundled_bell(self, tmp_path):
        code = main(
            [
                "run",
                str(CONFIGS / "bell.cfg"),
                "--out-dir",
                str(tmp_path),
                "--seed-override",
                "1,2",
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "bell_results" / "summary.json").read_text())
        point = summary["points"][0]
        assert point["optimal_exact_loss"]["mean"] == pytest.approx(0.25, abs=1e-9)
        assert point["optimal_exact_loss"]["stddev"] == 0.0

    def test_parity_config_learns(self, tmp_path):
        code = main(
            [
                "run",
                str(CONFIGS / "parity_qld.cfg"),
                "--out-dir",
                str(tmp_path),
                "--seed-override",
                "1,2,3,4,5",
            ]
        )
        assert code == 0
        csv_lines = (tmp_path / "parity_results" / "results.csv").read_text().splitlines()
        cols = csv_lines[0].split(",")
        losses = [float(dict(zip(cols, r.split(",")))["exact_loss"]) for r in csv_lines[1:]]
        assert sum(1 for v in losses if v <= 0.05) >= 4

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("algorithm = qld\n")
        out_dir = tmp_path / "results"
        code = main(["run", str(bad), "--out-dir", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("seeds", ["abc", "-1", "1,x"])
    def test_bad_seed_override_exits_2_without_output(self, tmp_path, seeds):
        out_dir = tmp_path / "results"
        args = ["run", str(CONFIGS / "bell.cfg"), "--out-dir", str(out_dir)]
        assert main(args + [f"--seed-override={seeds}"]) == 2
        assert not out_dir.exists()

    def test_runtime_failure_leaves_no_output(self, tmp_path, monkeypatch):
        config = write_parity_setup(tmp_path)

        def failing_learner(*args, **kwargs):
            raise RuntimeError("learner failed")

        monkeypatch.setattr(harness, "qld_learn", failing_learner)
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 3
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "settings",
        [
            "algorithm = qld\nk = 2\nn = 3\n",  # fewer samples than cover subsets
            "algorithm = junta\nk = 2\nn = 3\n",
            "algorithm = qld\nk = 2\nn = 2000\ncover_strategy = exhaustive\n",  # 67 strings
            "algorithm = qld\nk = 1\nn = 2000\nn_test = abc\n",
            "algorithm = qld\nk = 1\nn = 2000\nepsilon = x\n",
            "algorithm = qld\nk = 1\nn = 2000\nepsilon = -0.1\n",
            "algorithm = qld\nk = 1\nn = 2000\nepsilon = nan\n",
        ],
        ids=["n-below-cover", "junta-n-below-cover", "exhaustive-over-cap", "n_test-text",
             "epsilon-text", "epsilon-negative", "epsilon-nan"],
    )
    def test_config_mistake_exits_2_without_output(self, tmp_path, settings):
        shutil.copy(CONFIGS / "parity_d4.src", tmp_path)
        config = tmp_path / "bad.cfg"
        config.write_text(
            "source = parity_d4.src\ndelta = 0.05\nseeds = 1\nout = out\n" + settings
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_bad_thread_count_exits_2_without_output(self, tmp_path, monkeypatch):
        config = write_parity_setup(tmp_path)
        monkeypatch.setenv("QFL_THREADS", "abc")
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_short_truth_table_exits_2_without_output(self, tmp_path):
        config = write_parity_setup(tmp_path)
        (tmp_path / "parity.src").write_text(
            "kind = classical\nd = 2\ntruth_table = 01\n", encoding="utf-8"
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_missing_referenced_table_exits_2_without_output(self, tmp_path):
        config = write_parity_setup(tmp_path)
        (tmp_path / "parity.src").write_text(
            "kind = realizable\nd = 2\nftab = nope.ftab\n", encoding="utf-8"
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_wrong_length_string_exits_2_without_output(self, tmp_path):
        write_parity_setup(tmp_path)
        config = tmp_path / "strings.cfg"
        config.write_text(
            "source = parity.src\nalgorithm = qld\nstrings = 33, 333\nn = 100\n"
            "delta = 0.05\nseeds = 1\nout = out\n"
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_cover_command(self, capsys):
        code = main(
            ["cover", str(CONFIGS / "weight1_d2.degreeset"), "--n", "600", "--delta", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score:" in out and "subsets:" in out

    def test_cover_command_bad_file(self, tmp_path):
        empty = tmp_path / "empty.degreeset"
        empty.write_text("# nothing\n")
        assert main(["cover", str(empty), "--n", "10", "--delta", "0.1"]) == 2

    def test_console_script_entry(self):
        # the installed console script when there is one, else the module's
        # __main__ guard run from the source tree
        exe = shutil.which("qfl")
        command = [exe] if exe else [sys.executable, "-m", "qfl.cli"]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            command + ["cover", str(CONFIGS / "weight1_d2.degreeset"), "--n", "100", "--delta", "0.2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "score:" in proc.stdout


class TestVerifySuites:
    def test_fast_suite_passes(self):
        import time

        start = time.perf_counter()
        lines = []
        assert checks.run_suite("fast", log=lines.append) == 0
        assert all(ln.startswith("ok") for ln in lines)
        assert time.perf_counter() - start < 60

    def test_full_suite_passes_within_budget(self):
        import time

        start = time.perf_counter()
        lines = []
        assert checks.run_suite("full", log=lines.append) == 0
        assert time.perf_counter() - start < 900

    def test_fault_injection_names_failing_property(self, monkeypatch):
        import qfl.operators as operators_module

        true_sign = operators_module.sign_operator

        def corrupted(h, zero_tol=1e-12):
            g = true_sign(h, zero_tol)
            g = g.copy()
            g[0, 0] += 0.5  # break the +-1 structure
            return g

        monkeypatch.setattr(operators_module, "sign_operator", corrupted)
        lines = []
        assert checks.run_suite("fast", log=lines.append) != 0
        assert any(ln.startswith("FAIL sign-involution") for ln in lines)
        assert any("first failing property" in ln for ln in lines)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            checks.run_suite("medium")
