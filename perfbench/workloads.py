"""Workloads of the qfl benchmark.

Each workload builds its inputs from the workload seed, then runs learning
calls in a closed loop (one call starts when the previous one returns) and
checks every call's output.  A *unit* is the smallest piece of work the loop
runs: one ``junta_learn`` call for ``junta-d6``, ``harness.run_config`` on a
generated config for one learner seed for ``qld-d6``, and ``run_config`` on
every shipped config for ``bundled``.  A *pass* is
the fixed list of units a seed defines; the loop repeats passes, so the first
pass always runs whole and the quality figures it yields depend on the seed
alone.

Checks, for every call at any seed: the plan sums to n, the cover partitions
the degree set into commuting cliques (tested here on the digit strings, not
with the program's own helpers) and ``exact_loss`` lies in [0, 1].  At
``DEFAULT_SEED`` the outputs are also compared with ``reference.json``, which
``record.py`` writes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qfl import harness, learner, simulator  # noqa: E402
from qfl.pauli import degree_set_upto  # noqa: E402

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
SCRATCH_DIR = ROOT / ".perfbench_tmp"

DELTA = 0.05
JUNTA_ETA = 0.1
# Reference tolerances.  Estimates are means of +-1 outcomes, so they are the
# exact rationals sum/n_j; losses pass through an eigendecomposition.
ESTIMATE_TOL = 1e-12
LOSS_TOL = 1e-9
# A planted 2-qubit sign whose single-qubit restrictions keep at most this
# trace norm cannot be mistaken for a 1-junta, so selection has a clear winner.
MARGINAL_NORM_MAX = 0.7


@dataclass(frozen=True)
class Spec:
    """Size of a workload; the tests shrink it, the benchmark uses the defaults."""

    name: str
    d: int = 6
    n: int = 20000
    learner_seeds: int = 8
    configs: tuple[str, ...] = ()


# BENCHMARK.json lists qld-d6 and junta-d6.  bundled is bound by pure-Python
# code, whose speed on a shared 2-vCPU VM swings by up to 1.6x for tens of
# seconds at a time, so its latencies are too unsteady to gate there; it still
# runs from run.py.
SPECS = {
    "qld-d6": Spec("qld-d6", learner_seeds=16),
    "junta-d6": Spec("junta-d6", learner_seeds=4),
    "bundled": Spec("bundled", configs=("bell.cfg", "parity_qld.cfg", "junta_d5.cfg")),
}


@dataclass
class Call:
    """One learning call: its budget, wall time, quality and check result."""

    n: int
    seconds: float
    exact_loss: float | None = None
    bound_measured: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _commute(a: str, b: str) -> bool:
    return sum(x != "0" and y != "0" and x != y for x, y in zip(a, b)) % 2 == 0


def _support_upto(d: int, k: int) -> set[str]:
    return {
        "".join(p) for p in itertools.product("0123", repeat=d)
        if sum(c != "0" for c in p) <= k
    }


def check_report(report, strings: set[str], n: int) -> list[str]:
    """Invariants every learning call must satisfy, at any seed."""
    problems = []
    if sum(report.plan.sizes) != n:
        problems.append(f"plan sums to {sum(report.plan.sizes)}, not n={n}")
    subsets = [[str(s) for s in b] for b in report.cover.subsets]
    flat = [s for b in subsets for s in b]
    if len(flat) != len(set(flat)) or set(flat) != strings:
        problems.append("cover is not a partition of the degree set")
    for b in subsets:
        if not all(_commute(x, y) for x, y in itertools.combinations(b, 2)):
            problems.append(f"cover subset {','.join(b)} does not commute")
    if report.exact_loss is None or not 0.0 <= report.exact_loss <= 1.0:
        problems.append(f"exact_loss {report.exact_loss!r} outside [0, 1]")
    return problems


def estimate_sums(report) -> list[int]:
    """Outcome sums behind each estimate, in cover order (exact integers)."""
    return [
        round(report.estimates.get(s) * size)
        for subset, size in zip(report.cover.subsets, report.plan.sizes)
        for s in subset
    ]


def check_reference(report, ref: dict, learner_seed: int) -> list[str]:
    """Compare a call at the default seed with the recorded reference."""
    problems = []
    if report.cover.to_text() != ref["cover"]:
        problems.append("cover differs from reference")
    if list(report.plan.sizes) != ref["plan"]:
        problems.append("plan differs from reference")
    call = ref["calls"].get(str(learner_seed))
    if call is None:
        return problems + [f"no reference for learner seed {learner_seed}"]
    sizes = [size for subset, size in zip(report.cover.subsets, report.plan.sizes) for _ in subset]
    got = [report.estimates.get(s) for subset in report.cover.subsets for s in subset]
    if len(got) != len(call["sums"]) or any(
        abs(g - c / size) > ESTIMATE_TOL for g, c, size in zip(got, call["sums"], sizes)
    ):
        problems.append("estimates differ from reference")
    if abs(report.exact_loss - call["exact_loss"]) > LOSS_TOL:
        problems.append(f"exact_loss {report.exact_loss!r} != reference {call['exact_loss']!r}")
    coords = list(report.chosen_coords) if report.chosen_coords is not None else None
    if coords != call["chosen_coords"]:
        problems.append(f"chosen_coords {coords} != reference {call['chosen_coords']}")
    return problems


# ---------------------------------------------------------------------------
# Inputs made from the workload seed.
# ---------------------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def learner_seed_list(seed: int, count: int) -> list[int]:
    return [int(s) for s in _rng(seed, 0).choice(1 << 31, size=count, replace=False)]


def parity_truth_table(d: int, coords: tuple[int, ...]) -> str:
    return "".join(
        str(sum((x >> (d - 1 - c)) & 1 for c in coords) & 1) for x in range(1 << d)
    )


def embed(op: np.ndarray, coords: tuple[int, ...], d: int) -> np.ndarray:
    """``op`` acting on ``coords`` (qubit 0 most significant), identity elsewhere."""
    order = list(coords) + [q for q in range(d) if q not in coords]
    full = np.kron(op, np.eye(1 << (d - len(coords)))).reshape([2] * (2 * d))
    inv = list(np.argsort(order))
    return full.transpose(inv + [d + i for i in inv]).reshape(1 << d, 1 << d)


def _marginal_norms(f: np.ndarray) -> tuple[float, float]:
    """Maximally-mixed trace norms of a two-qubit operator restricted to each qubit."""
    t = f.reshape(2, 2, 2, 2)
    first = np.einsum("ajbj->ab", t) / 2.0
    second = np.einsum("iaib->ab", t) / 2.0
    return tuple(float(np.abs(np.linalg.eigvalsh(m)).mean()) for m in (first, second))


def planted_two_qubit_sign(seed: int) -> np.ndarray:
    """Sign of a seeded random 4x4 Hermitian that is not close to a 1-junta."""
    rng = _rng(seed, 2)
    while True:
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, v = np.linalg.eigh(a + a.conj().T)
        f = (v * np.sign(w)) @ v.conj().T
        if max(_marginal_norms(f)) <= MARGINAL_NORM_MAX:
            return f


def planted_coords(seed: int, d: int) -> tuple[int, int]:
    a, b = sorted(int(c) for c in _rng(seed, 1).choice(d, size=2, replace=False))
    return a, b


def write_parity_config(directory: Path, spec: Spec, coords: tuple[int, ...],
                        learner_seeds: list[int]) -> Path:
    """Source file for the planted parity and a ``qld`` config that learns it."""
    (directory / "parity.src").write_text(
        f"kind = classical\nd = {spec.d}\ntruth_table = {parity_truth_table(spec.d, coords)}\n",
        encoding="utf-8",
    )
    path = directory / "parity.cfg"
    path.write_text(
        "source = parity.src\nalgorithm = qld\nk = 2\n"
        f"n = {spec.n}\ndelta = {DELTA}\ncover_strategy = greedy\n"
        f"seeds = {', '.join(map(str, learner_seeds))}\nn_test = 0\nout = results\n",
        encoding="utf-8",
    )
    return path


def _scratch_dir() -> Path:
    path = SCRATCH_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH_DIR.rmdir()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Direct:
    """``qld-d6`` and ``junta-d6``: one learning call per learner seed.

    ``junta-d6`` calls ``learner.junta_learn`` itself.  ``qld-d6`` goes through
    the harness: set-up writes the planted parity as a source file with a
    config for it, and each call is ``harness.run_config`` on that config for
    one learner seed, so the harness layer also runs on a workload whose time
    the measurement layer dominates.  The harness passes ``qld_learn`` the same
    arguments the direct call would, so the reports are the same.
    """

    def __init__(self, spec: Spec, seed: int, reference: dict | None, source_span):
        self.spec = spec
        self.qld = spec.name.startswith("qld")
        self.coords = planted_coords(seed, spec.d)
        self.learner_seeds = learner_seed_list(seed, spec.learner_seeds)
        self.reference = reference
        if self.qld:
            # The harness loads the source itself, on every run_config call.
            self.out_dir = _scratch_dir()
            self.config_path = write_parity_config(self.out_dir, spec, self.coords, self.learner_seeds)
        else:
            with source_span():
                f = embed(planted_two_qubit_sign(seed), self.coords, spec.d)
                self.source = simulator.make_noisy_source(f, JUNTA_ETA)
        self.strings = {str(s) for s in degree_set_upto(spec.d, 2)}

    def units(self) -> list:
        return [lambda s=s: [self._call(s)] for s in self.learner_seeds]

    def learn(self, learner_seed: int):
        if not self.qld:
            return learner.junta_learn(self.source, 2, self.spec.n, DELTA, learner_seed)
        out = []
        real = harness.qld_learn

        def capture(*args, **kwargs):
            out.append(real(*args, **kwargs))
            return out[-1]

        harness.qld_learn = capture
        try:
            harness.run_config(self.config_path, out_dir=self.out_dir, seed_override=(learner_seed,))
        finally:
            harness.qld_learn = real
        return out[0]

    def _call(self, learner_seed: int) -> Call:
        n = self.spec.n
        t0 = time.perf_counter()
        try:
            _, report = self.learn(learner_seed)
        except Exception as exc:  # noqa: BLE001 - a failing call is counted, not fatal
            return Call(n, time.perf_counter() - t0, problems=[f"raised {exc!r}"])
        call = Call(n, time.perf_counter() - t0, report.exact_loss, report.bound_measured)
        call.problems = check_report(report, self.strings, n)
        if self.qld:
            if report.optimal_exact_loss > LOSS_TOL:
                call.problems.append(f"optimal_exact_loss {report.optimal_exact_loss!r} != 0")
        else:
            if report.chosen_coords != self.coords:
                call.problems.append(f"chosen_coords {report.chosen_coords} != planted {self.coords}")
            if abs(report.optimal_exact_loss - JUNTA_ETA) > LOSS_TOL:
                call.problems.append(f"optimal_exact_loss {report.optimal_exact_loss!r} != {JUNTA_ETA}")
        if self.reference is not None and not call.problems:
            call.problems = check_reference(report, self.reference, learner_seed)
        return call

    def close(self) -> None:
        if self.qld:
            _remove_scratch(self.out_dir)


class Bundled:
    """``bundled``: ``harness.run_config`` on the shipped configs.

    At the default seed the configs keep their own seeds, so each
    ``results.csv`` must match the sha256 of ``qfl run`` on that config; at
    other seeds the seeds are overridden by ones drawn from the workload seed.
    Learning calls are timed and checked by wrapping the learners in the
    harness's namespace for the length of each config run.
    """

    def __init__(self, spec: Spec, seed: int, reference: dict | None, source_span):
        del source_span  # sources are loaded inside run_config
        self.spec = spec
        self.reference = reference
        self.out_dir = _scratch_dir()
        self.configs = []
        rng = _rng(seed, 3)
        for name in spec.configs:
            path = ROOT / "configs" / name
            count = len(harness.ExperimentConfig.from_file(path).seeds)
            seeds = None
            if reference is None:
                seeds = tuple(int(s) for s in rng.choice(1 << 20, size=count, replace=False))
            self.configs.append((path, seeds))

    def units(self) -> list:
        # One unit runs every config, so a run measures whole bundles and its
        # mix of call sizes does not depend on where the deadline falls.
        return [lambda: [c for config in self.configs for c in self._run(*config)]]

    @staticmethod
    def _degree_strings(name: str, args) -> set[str]:
        if name == "qld_learn":
            return {str(s) for s in args[1]}
        return _support_upto(args[0].d, args[1])

    def _timed(self, fn, calls: list[Call]):
        def wrapper(*args, **kwargs):
            n = args[2]
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                calls.append(Call(n, time.perf_counter() - t0, problems=[f"raised {exc!r}"]))
                raise
            report = out[1]
            call = Call(n, time.perf_counter() - t0, report.exact_loss, report.bound_measured)
            call.problems = check_report(report, self._degree_strings(fn.__name__, args), n)
            calls.append(call)
            return out
        return wrapper

    def _run(self, path: Path, seeds) -> list[Call]:
        calls: list[Call] = []
        saved = {name: getattr(harness, name) for name in ("qld_learn", "junta_learn")}
        for name, fn in saved.items():
            setattr(harness, name, self._timed(fn, calls))
        t0 = time.perf_counter()
        try:
            csv_path, _ = harness.run_config(path, out_dir=self.out_dir, seed_override=seeds)
        except Exception as exc:  # noqa: BLE001 - a failing config is counted, not fatal
            if not (calls and calls[-1].failed):
                calls.append(Call(0, time.perf_counter() - t0, problems=[f"run_config raised {exc!r}"]))
            return calls
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)
        if self.reference is not None:
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            if digest != self.reference[path.name]:
                for call in calls:
                    call.problems.append(f"{path.name} results.csv sha256 differs from reference")
        return calls

    def close(self) -> None:
        _remove_scratch(self.out_dir)


def make(spec: Spec, seed: int, source_span, *, check_reference_values: bool = True):
    """Build a workload's inputs; ``source_span`` wraps source construction."""
    reference = None
    if check_reference_values and seed == DEFAULT_SEED and spec == SPECS[spec.name]:
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[spec.name]
    cls = Bundled if spec.name == "bundled" else Direct
    return cls(spec, seed, reference, source_span)
