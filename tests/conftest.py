"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qfl.checks import (  # noqa: F401
    bell_states,
    make_bell_source,
    make_parity_source,
    random_density,
    random_hermitian,
    random_string,
)
from qfl import learner, pauli, simulator
from qfl.simulator import SampleSource

# Process-wide caches of work that depends only on the measurement class.
CLASS_CACHES = (
    pauli.degree_set_upto,
    pauli.full_degree_set,
    learner._plan,
    learner._subset_blocks,
    simulator._checked_reduction,
)


def clear_class_caches() -> None:
    for cache in CLASS_CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_class_caches():
    """Every test starts with empty class caches, so build counts do not
    depend on which tests ran before it."""
    clear_class_caches()
    yield
    clear_class_caches()


def measure_groups(groups, batch, uniforms) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``(state, label_sign, sample_indices)`` groups, the form the
    dense oracles take, through the engine's sample arrays: the batch is
    prepared on the groups' distinct state objects in order of first use,
    a sample's base is its state's index and its label is 1 where its label
    sign is +1.  Returns the final prefixes and the int8 +-1 outcome matrix,
    row i ``c_i E[p_i]`` with E the batch's eigenvalue table."""
    n = len(uniforms)
    bases = np.full(n, -1, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int8)
    states: dict[int, tuple[int, np.ndarray]] = {}
    for state, c, idx in groups:
        bases[idx] = states.setdefault(id(state), (len(states), state))[0]
        labels[idx] = c > 0
    prepared = simulator.prepare_batches((batch,), [state for _, state in states.values()])[0]
    prefixes = simulator.measure_batch_groups((bases, labels), prepared, uniforms)
    signs = 2 * labels - 1
    return prefixes, signs[:, None] * prepared.reduction.eigenvalues[prefixes]


def joint_state(source: SampleSource) -> np.ndarray:
    """Dense feature-label average state, label qubit last (oracle helper)."""
    e0 = np.zeros((2, 2), dtype=complex)
    e1 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    e1[1, 1] = 1.0
    eta = source.flip_rate
    w0 = source.p0 * (1 - eta) + source.p1 * eta
    w1 = source.p1 * (1 - eta) + source.p0 * eta
    cond0 = (source.p0 * (1 - eta) * source.rho0 + source.p1 * eta * source.rho1) / w0 if w0 else source.rho0
    cond1 = (source.p1 * (1 - eta) * source.rho1 + source.p0 * eta * source.rho0) / w1 if w1 else source.rho1
    return w0 * np.kron(cond0, e0) + w1 * np.kron(cond1, e1)


@pytest.fixture
def bell_source() -> SampleSource:
    return make_bell_source()
