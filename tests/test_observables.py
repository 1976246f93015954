import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import (
    DimensionError,
    Group,
    Povm,
    ProbVector,
    WeylSystem,
    WeylseqError,
    cpso_from_state,
    effect_span_dimension,
    ensure_state,
    is_informationally_complete,
    measure,
    povm_from_json,
    povm_to_json,
    smear_momentum,
    smear_position,
    verify_cpso_covariance,
)
from weylseq import rand
from oracles import sub

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def e_state(n, k):
    s = np.zeros((n, n), dtype=complex)
    s[k, k] = 1.0
    return s


def test_prob_vector_validation():
    ProbVector((0, 1), [0.5, 0.5])
    with pytest.raises(ValueError):
        ProbVector((0, 1), [0.7, 0.7])
    with pytest.raises(ValueError):
        ProbVector((0, 1), [1.2, -0.2])
    pv = ProbVector((0, 1), [1.0, -1e-13])  # round-off clipped
    assert pv.weights[1] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prob_vector_rejects_non_finite_weights(bad):
    with pytest.raises(WeylseqError, match="non-finite"):
        ProbVector(((0,), (1,)), np.array([bad, 1.0]))


def test_ensure_state_rejects_non_finite_entries():
    rho = np.eye(2, dtype=complex) / 2
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        t = rho.copy()
        t[0, 1] = t[1, 0] = bad
        with pytest.raises(WeylseqError, match="non-finite"):
            ensure_state(t)


def test_povm_validation():
    Povm((0, 1), np.array([np.eye(2) * 0.3, np.eye(2) * 0.7]))
    with pytest.raises(ValueError):
        Povm((0, 1), np.array([np.eye(2) * 0.3, np.eye(2) * 0.3]))
    with pytest.raises(ValueError):
        Povm((0, 1), np.array([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]))
    with pytest.raises(DimensionError):
        Povm((0,), np.array([np.eye(2), np.eye(2)]))


def test_ensure_state():
    ensure_state(np.eye(3) / 3)
    with pytest.raises(ValueError):
        ensure_state(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        ensure_state(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(DimensionError):
        ensure_state(np.array([np.eye(2) / 2] * 2))  # a stack is no state


def test_measure_distribution(ws2):
    povm = Povm(((0,), (1,)), np.array([e_state(2, 0), e_state(2, 1)]))
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    dist = measure(povm, rho)
    assert_allclose(dist.weights, [0.25, 0.75], atol=1e-12)
    with pytest.raises(DimensionError):
        measure(povm, np.eye(3) / 3)


def test_smear_position_z2(ws2):
    sigma = ProbVector(ws2.group.elements, [0.75, 0.25])
    povm = smear_position(ws2, sigma)
    assert_allclose(povm.effects[0], np.diag([0.75, 0.25]), atol=1e-15)
    assert_allclose(povm.effects[1], np.diag([0.25, 0.75]), atol=1e-15)


def test_smear_point_mass_recovers_sharp(ws3):
    g = ws3.group
    delta = ProbVector(g.elements, [1.0, 0.0, 0.0])
    pos = smear_position(ws3, delta)
    assert np.abs(pos.effects - ws3.position_effects).max() < 1e-14
    mom = smear_momentum(ws3, delta)
    assert np.abs(mom.effects - ws3.momentum_effects).max() < 1e-14


def test_smear_momentum_convolves(ws3, rng):
    g = ws3.group
    w = rng.random(3)
    w /= w.sum()
    tau = ProbVector(g.elements, w)
    povm = smear_momentum(ws3, tau)
    for k, chi in enumerate(g.elements):
        want = sum(
            w[g.index(sub(g, chi, gamma))] * ws3.momentum_effects[j]
            for j, gamma in enumerate(g.elements)
        )
        assert np.abs(povm.effects[k] - want).max() < 1e-13


def test_cpso_z2_point_state(ws2):
    povm = cpso_from_state(ws2, e_state(2, 0))
    # effect(x, chi) = (1/2) U_x |e_0><e_0| U_x^dag, independent of chi
    assert_allclose(povm.effects[0], np.diag([0.5, 0.0]), atol=1e-15)
    assert_allclose(povm.effects[1], np.diag([0.5, 0.0]), atol=1e-15)
    assert_allclose(povm.effects[2], np.diag([0.0, 0.5]), atol=1e-15)
    assert povm.outcomes[1] == ((0,), (1,))


def test_cpso_normalization(ws23, rng):
    s = rand.state(rng, ws23.dim)
    povm = cpso_from_state(ws23, s)  # Povm constructor checks sum = 1
    assert len(povm) == ws23.dim ** 2
    traces = np.einsum("kii->k", povm.effects).real
    assert_allclose(traces, np.full(len(povm), 1.0 / ws23.dim), atol=1e-12)


def test_cpso_covariance(ws3, rng):
    povm = cpso_from_state(ws3, rand.state(rng, 3))
    assert verify_cpso_covariance(ws3, povm) < 1e-12


def test_cpso_covariance_detects_break(ws2, rng):
    povm = cpso_from_state(ws2, rand.state(rng, 2))
    effects = povm.effects.copy()
    n2 = len(effects)
    # swap outcome 0 for I/n^2 and congruence-rescale the rest so the
    # effects still form an exact POVM
    replacement = np.eye(2) / n2
    rest_target = np.eye(2) - replacement
    rest_current = np.eye(2) - effects[0]
    w1, q1 = np.linalg.eigh(rest_target)
    w2, q2 = np.linalg.eigh(rest_current)
    t = (q1 * np.sqrt(w1)) @ q1.conj().T @ (q2 * (1 / np.sqrt(w2))) @ q2.conj().T
    new_effects = np.array([replacement] + [t @ e @ t.conj().T for e in effects[1:]])
    broken = Povm(povm.outcomes, new_effects)
    assert verify_cpso_covariance(ws2, broken) > 1e-3


def test_informational_completeness_rank():
    ws = WeylSystem(Group((2,)))
    p1 = cpso_from_state(ws, e_state(2, 0))
    assert effect_span_dimension(p1) == 2
    assert not is_informationally_complete(p1)
    s = (np.eye(2) + (SX + SY + SZ) / np.sqrt(3)) / 2
    p2 = cpso_from_state(ws, s)
    assert effect_span_dimension(p2) == 4
    assert is_informationally_complete(p2)


def test_ic_recovers_random_states(ws2, rng):
    # an IC phase-space observable determines the state by linear inversion
    s = (np.eye(2) + (SX + SY + SZ) / np.sqrt(3)) / 2
    povm = cpso_from_state(ws2, s)
    flat = povm.effects.reshape(len(povm), -1)
    for _ in range(10):
        rho = rand.state(rng, 2)
        probs = measure(povm, rho)
        sol, *_ = np.linalg.lstsq(flat.conj(), probs.weights.astype(complex),
                                  rcond=None)
        back = sol.reshape(2, 2)
        assert np.abs(back - rho).max() < 1e-9


def test_povm_json_roundtrip(ws3, rng):
    povm = cpso_from_state(ws3, rand.state(rng, 3))
    back = povm_from_json(povm_to_json(povm))
    assert back.outcomes == povm.outcomes
    assert np.array_equal(back.effects, povm.effects)
