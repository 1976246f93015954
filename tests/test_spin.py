"""Spin-1/2 realization: frames, unsharp observables, factorization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import (
    Group,
    SpinFrame,
    kronecker_factorization_check,
    pauli_vector,
    spin_povm,
    tradeoff_check,
    unsharp_spin,
)
from weylseq import rand
from weylseq.suites import run_suite

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_frame_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        SpinFrame((0, 0, 1), (0, 0.5, 1))


def test_frame_rejects_zero_axis():
    with pytest.raises(ValueError):
        SpinFrame((0, 0, 0), (1, 0, 0))


@pytest.mark.parametrize("a", [(np.nan, 0, 1), (0, np.inf, 1), (1e308, 1e308, 0)])
def test_frame_rejects_non_finite_axis(a):
    with np.errstate(all="raise"):  # and no floating-point warning on the way
        for axes in ((a, (0, 0, 1)), ((0, 0, 1), a)):
            with pytest.raises(ValueError, match="finite norm"):
                SpinFrame(*axes)


def test_frame_normalizes():
    f = SpinFrame((0, 0, 3), (2, 0, 0))
    assert_allclose(f.a, [0, 0, 1], atol=1e-15)
    assert_allclose(f.b, [1, 0, 0], atol=1e-15)


def test_frame_gram_schmidt(rng):
    # b is orthogonalized against a when slightly tilted
    f = SpinFrame((0, 0, 1), (1, 0, 1e-11))
    assert abs(np.dot(f.a, f.b)) < 1e-12
    assert_allclose(f.b, [1, 0, 0], atol=1e-10)


def test_pauli_vector():
    assert np.array_equal(pauli_vector((0, 0, 1)), SZ)
    assert np.abs(pauli_vector((1, 1, 0)) - (SX + SY)).max() == 0


def test_basis_maps_frame_to_standard_pair():
    # in the measurement basis, b.sigma acts as the cyclic shift and
    # a.sigma as the modulation: the conjugate pair on Z_2
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        b -= (a @ b) / (a @ a) * a
        if np.linalg.norm(b) < 1e-3:
            continue
        f = SpinFrame(tuple(a), tuple(b))
        p = f.basis
        assert np.abs(p.conj().T @ p - np.eye(2)).max() < 1e-12
        assert np.abs(p.conj().T @ f.b_op @ p - SX).max() < 1e-12
        assert np.abs(p.conj().T @ f.a_op @ p - SZ).max() < 1e-12


def test_basis_z_x_is_identity():
    f = SpinFrame((0, 0, 1), (1, 0, 0))
    assert np.abs(f.basis - np.eye(2)).max() < 1e-14


def test_spin_povm_values():
    pov = spin_povm((0, 0, 1), 0.6)
    up = np.array([[0.8, 0], [0, 0.2]], dtype=complex)
    assert np.abs(pov.effects[0] - up).max() < 1e-14
    assert np.abs(pov.effects[1] - (np.eye(2) - up)).max() < 1e-14
    assert pov.outcomes == (1, -1)


def test_spin_povm_rejects_oversharp():
    with pytest.raises(ValueError):
        spin_povm((0, 0, 1), 1.5)


def test_worked_values_sharp_probe():
    # probe |0><0| with a = z, b = x: the first measurement is sharp in z
    # (s = 1) and the momentum side carries no information (t = 0)
    f = SpinFrame((0, 0, 1), (1, 0, 0))
    omega = np.array([[1, 0], [0, 0]], dtype=complex)
    s, t, pov_a, pov_b = unsharp_spin(f, omega)
    assert abs(s - 1.0) < 1e-12
    assert abs(t) < 1e-12
    assert np.abs(pov_a.effects[0] - np.array([[1, 0], [0, 0]])).max() < 1e-12
    assert np.abs(pov_b.effects[0] - 0.5 * np.eye(2)).max() < 1e-12


def test_sharpness_from_probe_bloch_vector(rng):
    # s and t are the probe's Bloch components along a and b
    f = SpinFrame((0, 1, 0), (0, 0, 1))
    for _ in range(20):
        omega = rand.state(rng, 2)
        s, t, _, _ = unsharp_spin(f, omega)
        want_s = np.trace(omega @ SY).real
        want_t = np.trace(omega @ SZ).real
        assert abs(s - want_s) < 1e-12
        assert abs(t - want_t) < 1e-12


def test_tradeoff_bound(rng):
    f = SpinFrame((1, 0, 0), (0, 1, 0))
    for _ in range(300):
        omega = rand.state(rng, 2)
        assert tradeoff_check(f, omega) <= 1.0 + 1e-12


def test_tradeoff_attained_on_circle(rng):
    # pure probes with Bloch vector in the span of a and b saturate it
    f = SpinFrame((0, 0, 1), (1, 0, 0))
    for theta in np.linspace(0, 2 * np.pi, 17):
        r = (np.sin(theta), 0.0, np.cos(theta))
        omega = 0.5 * (np.eye(2) + pauli_vector(r))
        val = tradeoff_check(f, omega)
        assert abs(val - 1.0) < 1e-12


def test_factorization_random(rng):
    for _ in range(50):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        b -= (a @ b) / (a @ a) * a
        if np.linalg.norm(b) < 1e-3:
            continue
        f = SpinFrame(tuple(a), tuple(b))
        omega = rand.state(rng, 2)
        rho = rand.state(rng, 2)
        assert kronecker_factorization_check(f, omega, rho) < 1e-10


def test_factorization_needs_the_right_basis(rng):
    # a relative phase on the second basis vector breaks the entrywise
    # product form, so the residual detects convention drift
    f = SpinFrame((0, 0, 1), (1, 0, 0))
    omega = rand.state(rng, 2)
    rho = rand.state(rng, 2)
    f.basis = f.basis @ np.diag([1.0, np.exp(0.7j)])
    assert kronecker_factorization_check(f, omega, rho) > 1e-3


def test_spin_suite_builds_one_group(monkeypatch):
    # the frame holds the two-point Weyl system; each of the suite's trials
    # reuses it rather than building a group and its tables anew
    group, built = Group((2,)), []
    init = Group.__post_init__
    monkeypatch.setattr(Group, "__post_init__", lambda g: built.append(g) or init(g))
    results = run_suite("spin", group, 7)
    assert len(built) == 1 and built[0].moduli == (2,)
    assert results["factorization"][0] < 1e-10


def test_factorization_pure_probe(rng):
    f = SpinFrame((0, 1, 0), (1, 0, 0))
    omega = pure_state(rng, 2)
    rho = pure_state(rng, 2)
    assert kronecker_factorization_check(f, omega, rho) < 1e-10


def test_bloch_state_sampler(rng):
    for _ in range(50):
        rho = rand.bloch_state(rng)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho).min() > -1e-14
