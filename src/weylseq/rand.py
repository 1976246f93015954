"""Seeded random objects for tests and the verification suites."""

from __future__ import annotations

import numpy as np

from .group import Group
from .instruments import CovariantMeasure


def complex_matrix(rng: np.random.Generator, n: int):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def state(rng: np.random.Generator, n: int) -> np.ndarray:
    a = complex_matrix(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def covariant_measure(rng: np.random.Generator, group: Group) -> CovariantMeasure:
    n = group.order
    stack = np.empty((n, n, n), dtype=complex)
    for k in range(n):
        a = complex_matrix(rng, n)
        stack[k] = a @ a.conj().T
    stack /= np.trace(stack.sum(axis=0)).real
    return CovariantMeasure(group, stack)


def bloch_state(rng: np.random.Generator) -> np.ndarray:
    """Qubit state with Bloch vector drawn uniformly from the unit ball."""
    while True:
        r = rng.uniform(-1.0, 1.0, size=3)
        if r @ r <= 1.0:
            break
    from .spin import pauli_vector

    return (np.eye(2) + pauli_vector(r)) / 2
