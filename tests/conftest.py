"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qfl.checks import bell_states, make_bell_source, make_parity_source  # noqa: F401
from qfl.pauli import PauliString
from qfl.simulator import SampleSource


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_string(rng: np.random.Generator, d: int) -> PauliString:
    return PauliString(tuple(int(v) for v in rng.integers(0, 4, size=d)))


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
