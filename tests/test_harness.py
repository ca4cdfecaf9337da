"""Experiment configs, the runner's output files, and the command line."""

import collections
import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from qfl import checks, compatibility, harness, learner, operators, simulator
from qfl.cli import main
from qfl.harness import CSV_COLUMNS, ConfigError, ExperimentConfig, run_config
from qfl.pauli import FourierTable, PauliString, degree_set_upto
from qfl.simulator import _reduce_batch, load_source, save_matrix

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


def write_d4_config(tmp_path: Path, settings: str) -> Path:
    """A config on the bundled four-qubit parity source with ``settings``
    added, and ``delta = 0.05`` unless ``settings`` gives a delta."""
    shutil.copy(CONFIGS / "parity_d4.src", tmp_path)
    config = tmp_path / "d4.cfg"
    delta = "" if "delta =" in settings else "delta = 0.05\n"
    config.write_text("source = parity_d4.src\n" + delta + "out = out\n" + settings)
    return config


def write_pure_custom_setup(tmp_path: Path, *, src_eta: str = "", cfg_eta: str = "") -> Path:
    """A custom d=1 source whose states are both |0><0|, so its feature
    marginal is not I / 2, and a qld config on it."""
    for name in ("rho0.mat", "rho1.mat"):
        save_matrix(tmp_path / name, np.diag([1.0, 0.0]))
    (tmp_path / "pure.src").write_text(
        "kind = custom\nd = 1\np0 = 0.5\nrho0 = rho0.mat\nrho1 = rho1.mat\n" + src_eta,
        encoding="utf-8",
    )
    config = tmp_path / "pure.cfg"
    config.write_text(
        "source = pure.src\nalgorithm = qld\nk = 1\nn = 2000\ndelta = 0.05\nseeds = 1\n"
        "out = out\n" + cfg_eta,
        encoding="utf-8",
    )
    return config


def fresh_process_bytes(config: Path, out_dir: Path) -> bytes:
    """``results.csv`` of ``qfl run`` on the config in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-m", "qfl.cli", "run", str(config), "--out-dir", str(out_dir)],
                   env=env, capture_output=True, check=True, timeout=120)
    return (out_dir / "out" / "results.csv").read_bytes()


def write_source_setup(tmp_path: Path, spec: str) -> Path:
    """``source.src`` holding ``spec``, a two-qubit table and the bell
    matrices beside it, and a qld config on the source."""
    FourierTable.of(2, {PauliString.from_digits("33"): 1.0}).save(tmp_path / "zz.ftab")
    for name, rho in zip(("rho0.mat", "rho1.mat"), checks.bell_states()):
        save_matrix(tmp_path / name, rho)
    (tmp_path / "source.src").write_text(spec, encoding="utf-8")
    config = tmp_path / "source.cfg"
    config.write_text(
        "source = source.src\nalgorithm = qld\nk = 2\nn = 2000\ndelta = 0.05\n"
        "seeds = 1, 2\nn_test = 500\nout = out\n",
        encoding="utf-8",
    )
    return config


def count_calls(monkeypatch, module, name: str, calls: collections.Counter) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


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

    def test_stale_thread_count_changes_no_byte(self, tmp_path, monkeypatch):
        qld = write_parity_setup(tmp_path, seeds="1, 2, 3")
        # the seeds of a junta point share one source and its memo
        junta = write_d4_config(tmp_path, "algorithm = junta\nk = 2\nn = 3000\nseeds = 1, 2, 3\n")
        for config in (qld, junta):
            monkeypatch.delenv("QFL_THREADS", raising=False)
            plain, _ = run_config(config, out_dir=tmp_path / "plain")
            monkeypatch.setenv("QFL_THREADS", "3")
            stale, _ = run_config(config, out_dir=tmp_path / "stale")
            assert plain.read_bytes() == stale.read_bytes()

    def test_runs_in_one_serial_loop(self, tmp_path, monkeypatch):
        def no_threads(self):
            raise AssertionError("run_config started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        config = write_d4_config(tmp_path, "algorithm = qld\nk = 2\nn = 3000, 4000\nseeds = 1, 2\n")
        csv_path, json_path = run_config(config, out_dir=tmp_path)
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        # point-major, then by seed
        assert [(r["point"], r["n"], r["seed"]) for r in rows] == [
            ("0", "3000", "1"), ("0", "3000", "2"), ("1", "4000", "1"), ("1", "4000", "2"),
        ]
        summary = json.loads(json_path.read_text())
        assert summary["total_wall_ms"] == sum(p["wall_ms"] for p in summary["points"])

    def test_point_searches_its_cover_once(self, tmp_path, monkeypatch):
        # n = 40 is below the 67 strings of the degree set, so the budget
        # check searches the cover before the runs; the runs reuse it
        config = write_d4_config(tmp_path, "algorithm = qld\nk = 2\nn = 40\nseeds = 1, 2, 3\n")
        calls = []
        real = learner.best_cover
        monkeypatch.setattr(learner, "best_cover", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        csv_path, _ = run_config(config, out_dir=tmp_path)
        assert len(csv_path.read_text().splitlines()) == 4
        assert len(calls) == 1

    def test_eta_sweep_searches_its_cover_once(self, tmp_path, monkeypatch):
        # three points, three sources, one measurement class: one search, one
        # reduction per batch, and one spectrum of each of its own states
        config = write_d4_config(
            tmp_path, "algorithm = qld\nk = 2\nn = 3000\neta = 0.05, 0.1, 0.2\nseeds = 1, 2\n"
        )
        calls = collections.Counter()
        count_calls(monkeypatch, learner, "best_cover", calls)
        count_calls(monkeypatch, simulator, "_reduce_batch", calls)
        count_calls(monkeypatch, simulator, "spectral_traces", calls)
        serial, summary = run_config(config, out_dir=tmp_path / "serial")
        points = json.loads(summary.read_text())["points"]
        assert [p["params"]["eta"] for p in points] == [0.05, 0.1, 0.2]
        m = points[0]["m"]
        assert calls == {"best_cover": 1, "_reduce_batch": m, "spectral_traces": 3 * 2}
        cover = learner._plan(degree_set_upto(4, 2), 3000, 0.05, "greedy")[0]
        assert all(p["r"] == [len(_reduce_batch(b)[0]) for b in cover.subsets] for p in points)
        # a rerun under a stale QFL_THREADS gives the same bytes, searches no
        # cover again and reuses the kept eta variants and their spectra
        monkeypatch.setenv("QFL_THREADS", "3")
        rerun, _ = run_config(config, out_dir=tmp_path / "rerun")
        assert serial.read_bytes() == rerun.read_bytes()
        assert calls == {"best_cover": 1, "_reduce_batch": m, "spectral_traces": 3 * 2}

    def test_summary_reports_cover_structure(self, tmp_path):
        config = write_d4_config(tmp_path, "algorithm = junta\nk = 2\nn = 3000\nseeds = 1, 2\n")
        csv_path, json_path = run_config(config, out_dir=tmp_path)
        (point,) = json.loads(json_path.read_text())["points"]
        cover = learner.junta_learn(load_source(tmp_path / "parity_d4.src"), 2, 3000, 0.05, 1)[1].cover
        assert point["m"] == cover.m == len(point["r"])
        assert point["max_clique"] == max(cover.sizes())
        assert point["r"] == [len(_reduce_batch(b)[0]) for b in cover.subsets]
        assert max(point["r"]) <= 4
        # structure stays out of the byte-gated CSV
        assert csv_path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

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

    @pytest.mark.parametrize("where", ["source", "config"])
    def test_custom_source_under_eta_has_no_known_optimum(self, tmp_path, where):
        # label flips on the bell states leave an optimum of 0.3, not eta = 0.1,
        # so a custom source's rows carry no opt_value and no bound
        for name in ("bell.src", "bell_rho0.mat", "bell_rho1.mat"):
            shutil.copy(CONFIGS / name, tmp_path)
        eta = "eta = 0.1\n"
        if where == "source":
            with open(tmp_path / "bell.src", "a", encoding="utf-8") as spec:
                spec.write(eta)
        config = tmp_path / "bell.cfg"
        config.write_text(
            "source = bell.src\nalgorithm = qld\nk = 2\nn = 2000\ndelta = 0.05\nseeds = 1\n"
            "out = out\n" + (eta if where == "config" else ""),
            encoding="utf-8",
        )
        csv_path, _ = run_config(config)
        with open(csv_path, encoding="utf-8") as rows:
            (row,) = csv.DictReader(rows)
        assert row["eta"] == "0.1"
        assert row["opt_value"] == row["bound_value"] == row["bound_measured"] == ""
        assert float(row["optimal_exact_loss"]) == pytest.approx(0.3, abs=1e-12)


class TestSourceCache:
    """``run_config`` keeps the sources of its last call, keyed on the bytes
    of each source file and of the files it names."""

    @pytest.mark.parametrize(
        "spec, rewrite",
        [
            ("kind = classical\nd = 2\ntruth_table = 0110\n",
             ("source.src", "kind = classical\nd = 2\ntruth_table = 0011\n")),
            ("kind = realizable\nd = 2\nftab = zz.ftab\n", ("zz.ftab", 'd=2\n"30" 1.0\n')),
            ("kind = custom\nd = 2\np0 = 0.5\nrho0 = rho0.mat\nrho1 = rho1.mat\n",
             ("rho1.mat", simulator.matrix_to_text(np.eye(4) / 4))),
        ],
        ids=["src", "ftab", "mat"],
    )
    def test_rewritten_file_gives_fresh_process_bytes(self, tmp_path, spec, rewrite):
        config = write_source_setup(tmp_path, spec)
        before, _ = run_config(config, out_dir=tmp_path / "before")
        before = before.read_bytes()
        name, text = rewrite
        (tmp_path / name).write_text(text, encoding="utf-8")
        after, _ = run_config(config, out_dir=tmp_path / "after")
        fresh = fresh_process_bytes(config, tmp_path / "fresh")
        assert after.read_bytes() == fresh != before

    def test_signed_zero_eta_gives_fresh_process_bytes(self, tmp_path):
        # 0.0 == -0.0, but each eta is its own variant and prints as written,
        # after a call on 0.0 and within one call on both
        config = write_parity_setup(tmp_path, seeds="1")
        settings = config.read_text(encoding="utf-8")
        config.write_text(settings + "eta = 0.0\n", encoding="utf-8")
        run_config(config, out_dir=tmp_path / "zero")
        for etas in ("-0.0", "0.0, -0.0"):
            config.write_text(settings + f"eta = {etas}\n", encoding="utf-8")
            warm, _ = run_config(config, out_dir=tmp_path / "warm")
            fresh = fresh_process_bytes(config, tmp_path / "fresh")
            assert warm.read_bytes() == fresh
            rows = csv.DictReader(fresh.decode("utf-8").splitlines())
            assert [row["eta"] for row in rows] == etas.split(", ")

    def test_repeat_call_loads_and_prepares_nothing(self, tmp_path, monkeypatch):
        config = write_d4_config(tmp_path, "algorithm = junta\nk = 2\nn = 3000\nseeds = 1, 2\n")
        calls = collections.Counter()
        count_calls(monkeypatch, harness, "load_source", calls)
        count_calls(monkeypatch, simulator, "prepare_batches", calls)
        count_calls(monkeypatch, learner, "sign_operator", calls)
        first, _ = run_config(config, out_dir=tmp_path / "first")
        assert calls["load_source"] == calls["prepare_batches"] == 1
        signs = calls["sign_operator"]
        second, _ = run_config(config, out_dir=tmp_path / "second")
        assert first.read_bytes() == second.read_bytes()
        # only the seeds' predictors take a sign again; the optimum's is kept
        assert calls == {"load_source": 1, "prepare_batches": 1, "sign_operator": signs + 2}

    def test_failing_load_stores_nothing(self, tmp_path, monkeypatch):
        config = write_parity_setup(tmp_path)
        run_config(config, out_dir=tmp_path)
        assert harness._last_sources
        (tmp_path / "parity.src").write_text("kind = classical\nd = 2\ntruth_table = 01\n")
        calls = collections.Counter()
        count_calls(monkeypatch, harness, "load_source", calls)
        for attempt in (1, 2):
            with pytest.raises(ConfigError, match="truth table length"):
                run_config(config, out_dir=tmp_path)
            assert harness._last_sources == {}
            assert calls["load_source"] == attempt

    def test_other_config_drops_the_first_source(self, tmp_path, monkeypatch):
        parity = write_parity_setup(tmp_path)
        other = write_d4_config(tmp_path, "algorithm = qld\nk = 1\nn = 2000\nseeds = 1\n")
        run_config(parity, out_dir=tmp_path)
        (first,) = harness._last_sources.values()
        first = weakref.ref(first)
        real = harness.load_source
        alive_at_load = []

        def load(*args, **kwargs):
            gc.collect()
            alive_at_load.append(first() is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "load_source", load)
        run_config(other, out_dir=tmp_path)
        # the first source was gone before the other one was loaded
        assert alive_at_load == [False]
        (second,) = harness._last_sources.values()
        assert second.d == 4
        monkeypatch.setattr(harness, "load_source", real)
        calls = collections.Counter()
        count_calls(monkeypatch, harness, "load_source", calls)
        run_config(parity, out_dir=tmp_path)
        assert calls["load_source"] == 1

    def test_same_bytes_under_two_names_load_once(self, tmp_path, monkeypatch):
        write_parity_setup(tmp_path)
        shutil.copy(tmp_path / "parity.src", tmp_path / "copy.src")
        config = tmp_path / "both.cfg"
        config.write_text(
            "source = parity.src, copy.src\nalgorithm = qld\nk = 2\nn = 2000\ndelta = 0.05\n"
            "eta = 0.0, 0.1\nseeds = 1\nout = out\n"
        )
        calls = collections.Counter()
        count_calls(monkeypatch, harness, "load_source", calls)
        csv_path, _ = run_config(config, out_dir=tmp_path)
        with csv_path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["source"] for r in rows] == ["parity.src"] * 2 + ["copy.src"] * 2
        assert calls["load_source"] == 1
        # one base source and its two eta variants
        assert len(harness._last_sources) == 3


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
        golden = REPO / "tests" / "golden" / f"{Path(config).stem}.csv"
        # the second call runs on the source, memos and all, the first kept
        for call in ("cold", "warm"):
            csv_path, _ = run_config(CONFIGS / config, out_dir=tmp_path / call, seed_override=seeds)
            assert csv_path.read_bytes() == golden.read_bytes(), call


class TestBundledPayloads:
    def test_make_sources_reproduces_configs(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location("make_sources", REPO / "scripts" / "make_sources.py")
        make_sources = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_sources)
        monkeypatch.setattr(make_sources, "CONFIG_DIR", tmp_path)
        make_sources.main()
        written = sorted(p.name for p in tmp_path.iterdir())
        # every bundled file but the experiment configs is a generated payload
        bundled = sorted(p.name for p in CONFIGS.iterdir() if p.is_file() and p.suffix != ".cfg")
        assert written == bundled
        for name in written:
            assert (tmp_path / name).read_bytes() == (CONFIGS / name).read_bytes(), name


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
            "algorithm = junta\nk = 2\nn = 2000\nclassical_only = true\n",
            "algorithm = qld\nstrings = 0033, 3300\nn = 2000\nclassical_only = true\n",
            "algorithm = qld\nk = 1\nn = 2000\ncover_strategy = bogus\n",
            "algorithm = qld\nk = 0\nn = 2000\n",  # one k range, 1..d, for both learners
            "algorithm = junta\nk = 5\nn = 2000\n",
            # the ranges of n, delta and eta are checked by their owners,
            # the cover search and the flip-rate override, as the points resolve
            "algorithm = qld\nk = 1\nn = 0\n",
            "algorithm = qld\nk = 1\nn = 2000\ndelta = 1.5\n",
            "algorithm = qld\nk = 1\nn = 2000\neta = 0.5\n",
        ],
        ids=["n-below-cover", "junta-n-below-cover", "exhaustive-over-cap", "n_test-text",
             "epsilon-text", "epsilon-negative", "epsilon-nan", "junta-classical-only",
             "strings-classical-only", "bogus-strategy", "qld-k-zero", "junta-k-over-d",
             "n-zero", "delta-over-one", "eta-half"],
    )
    def test_config_mistake_exits_2_without_output(self, tmp_path, settings):
        config = write_d4_config(tmp_path, "seeds = 1\n" + settings)
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

    def test_qubit_count_over_cap_exits_2_before_any_matrix(self, tmp_path, monkeypatch):
        import qfl.simulator as simulator_module

        def no_signs(truth_table):
            raise AssertionError("a 13-qubit source was about to be built")

        monkeypatch.setattr(simulator_module, "label_signs", no_signs)
        config = write_parity_setup(tmp_path)
        (tmp_path / "parity.src").write_text(
            "kind = classical\nd = 13\ntruth_table = " + "01" * (1 << 12) + "\n", encoding="utf-8"
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("kind = classical\nd = 2\n", "truth_table"),
            ("kind = realizable\nd = 2\n", "ftab"),
            ("kind = noisy\nd = 2\nftab = parity.ftab\n", "eta"),
            ("kind = custom\nd = 2\nrho0 = rho0.mat\nrho1 = rho1.mat\n", "p0"),
            ("kind = custom\nd = 2\np0 = 0.5\nrho1 = rho1.mat\n", "rho0"),
            ("kind = custom\nd = 2\np0 = 0.5\nrho0 = rho0.mat\n", "rho1"),
        ],
        ids=["truth_table", "ftab", "eta", "p0", "rho0", "rho1"],
    )
    def test_missing_source_field_exits_2_without_output(self, tmp_path, capsys, spec, field):
        config = write_parity_setup(tmp_path)
        table = FourierTable.of(2, {PauliString.from_digits("33"): 1.0})
        table.save(tmp_path / "parity.ftab")
        for name, rho in zip(("rho0.mat", "rho1.mat"), checks.bell_states()):
            save_matrix(tmp_path / name, rho)
        (tmp_path / "parity.src").write_text(spec, encoding="utf-8")
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert f"missing required field '{field}'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_referenced_table_exits_2_without_output(self, tmp_path):
        config = write_parity_setup(tmp_path)
        (tmp_path / "parity.src").write_text(
            "kind = realizable\nd = 2\nftab = nope.ftab\n", encoding="utf-8"
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_repeated_table_string_exits_2_without_output(self, tmp_path, capsys):
        # the last value would make a valid +-1 operator, Z Z; the table is
        # refused instead of read as it
        config = write_parity_setup(tmp_path)
        (tmp_path / "parity.ftab").write_text('d=2\n"33" 0.5\n"33" 1.0\n', encoding="utf-8")
        (tmp_path / "parity.src").write_text(
            "kind = realizable\nd = 2\nftab = parity.ftab\n", encoding="utf-8"
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert "'33' twice" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_eta_on_custom_source_not_maximally_mixed_exits_2(self, tmp_path, capsys):
        config = write_pure_custom_setup(tmp_path, cfg_eta="eta = 0.1\n")
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert "non-maximally-mixed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_source_eta_on_custom_source_not_maximally_mixed_exits_2(self, tmp_path, capsys):
        # the flip rate written in the .src obeys the config's rule
        config = write_pure_custom_setup(tmp_path, src_eta="eta = 0.1\n")
        out_dir = tmp_path / "results"
        assert main(["run", str(config), "--out-dir", str(out_dir)]) == 2
        assert "non-maximally-mixed" in capsys.readouterr().err
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

    def test_cover_command_bad_strategy(self, capsys):
        args = ["cover", str(CONFIGS / "weight1_d2.degreeset"), "--n", "600", "--delta", "0.1"]
        assert main(args + ["--strategy", "bogus"]) == 2
        assert "unknown cover strategy 'bogus'" in capsys.readouterr().err

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


def unsigned(g):
    g = g.copy()
    g[0, 0] += 0.5  # break the +-1 structure
    return g


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

    @pytest.mark.parametrize(
        "module, name, corrupt, failing",
        [
            (operators, "sign_operator", unsigned, "sign-involution"),
            (compatibility, "commutation_matrix", np.logical_not, "commutation-oracle"),
        ],
        ids=["sign_operator", "commutation_matrix"],
    )
    def test_fault_injection_names_failing_property(self, monkeypatch, module, name, corrupt, failing):
        true_fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda arg: corrupt(true_fn(arg)))
        lines = []
        assert checks.run_suite("fast", log=lines.append) != 0
        assert any(ln.startswith(f"FAIL {failing}") for ln in lines)
        assert any("first failing property" in ln for ln in lines)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            checks.run_suite("medium")
