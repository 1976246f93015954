import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import (
    CovariantMeasure,
    Group,
    NotCovariantError,
    WeylSystem,
    check_map,
    covariant_instrument,
    cpso_from_state,
    generating_state,
    joint_observable,
    measure,
    noise_measures,
    reconstruct_measure,
    run_sequential,
    sequential_from_cpso,
    smear_momentum,
    smear_position,
    standard_instrument,
    verify_covariance,
    verify_cpso_covariance,
)
from weylseq import rand
from weylseq.sequential import cpso_defect, joint_from_measure, translated_total_density
from oracles import (associated_observable, compose_sequential, from_kraus, instrument_of,
                     map_at, maps_of, trace_norm)


def e_state(n, k):
    s = np.zeros((n, n), dtype=complex)
    s[k, k] = 1.0
    return s


# ==================== check map ====================


def test_check_map_z3_matrix_unit(ws3):
    t = np.zeros((3, 3), dtype=complex)
    t[1, 0] = 1.0
    got = check_map(ws3, t)
    want = np.zeros((3, 3), dtype=complex)
    want[0, 2] = 1.0
    assert np.array_equal(got, want)


def test_check_map_properties(ws23, rng):
    for _ in range(10):
        t = rand.complex_matrix(rng, ws23.dim)
        chk = check_map(ws23, t)
        assert np.array_equal(check_map(ws23, chk), t)  # involution
        assert abs(np.trace(chk) - np.trace(t)) < 1e-14
        assert abs(trace_norm(chk) - trace_norm(t)) < 1e-10
    rho = rand.state(rng, ws23.dim)
    chk = check_map(ws23, rho)
    assert np.abs(chk - chk.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(chk).min() > -1e-12


def test_check_map_linear(ws3, rng):
    a = rand.complex_matrix(rng, 3)
    b = rand.complex_matrix(rng, 3)
    z = 0.3 - 1.2j
    lhs = check_map(ws3, a + z * b)
    rhs = check_map(ws3, a) + z * check_map(ws3, b)
    assert np.array_equal(lhs, rhs)


# ==================== noise measures ====================


def test_noise_measures_point_probe(ws2):
    mm = CovariantMeasure.point_mass(ws2, (0,), e_state(2, 0))
    sigma, tau = noise_measures(ws2, mm)
    assert_allclose(sigma.weights, [1.0, 0.0], atol=1e-14)
    assert_allclose(tau.weights, [0.5, 0.5], atol=1e-14)


def test_noise_measures_match_probe_statistics(ws3, rng):
    # for a point mass at zero, sigma and tau are the position and
    # momentum distributions of the probe itself
    omega = rand.state(rng, 3)
    mm = CovariantMeasure.point_mass(ws3, (0,), omega)
    sigma, tau = noise_measures(ws3, mm)
    assert_allclose(sigma.weights, np.diag(omega).real, atol=1e-12)
    b_probs = [
        float(np.trace(ws3.momentum_effects[ws3.group.neg_table[c]] @ omega).real)
        for c in range(3)
    ]
    assert_allclose(tau.weights, b_probs, atol=1e-12)


# ==================== joint observable ====================


def test_joint_observable_point_probe(ws2):
    mm = CovariantMeasure.point_mass(ws2, (0,), e_state(2, 0))
    joint, defect = joint_observable(ws2, covariant_instrument(ws2, mm), mm)
    assert defect == 0.0
    # effect(x, chi) = (1/2)|e_x><e_x| for every chi
    for x in range(2):
        for c in range(2):
            want = e_state(2, x) / 2
            assert np.abs(joint.effects[x * 2 + c] - want).max() < 1e-14


def test_joint_observable_rejects_non_covariant(ws2):
    om1 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    om2 = np.array([[0.7, -0.1], [-0.1, 0.3]], dtype=complex)
    i1 = standard_instrument(ws2, om1)
    i2 = standard_instrument(ws2, om2)
    hybrid = instrument_of(i1.outcomes, (map_at(i1, 0), map_at(i2, 1)))
    with pytest.raises(NotCovariantError):
        joint_observable(ws2, hybrid, CovariantMeasure.point_mass(ws2, (0,), om1))


def test_joint_observable_reports_the_defect_it_gated(ws2):
    # probes differing by 1e-8 off the diagonal: a defect under the gate
    om1 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    om2 = om1 + np.array([[0.0, 1e-8], [1e-8, 0.0]])
    i1 = standard_instrument(ws2, om1)
    i2 = standard_instrument(ws2, om2)
    hybrid = instrument_of(i1.outcomes, (map_at(i1, 0), map_at(i2, 1)))
    mm = CovariantMeasure.point_mass(ws2, (0,), om1)
    joint, defect = joint_observable(ws2, hybrid, mm)
    assert defect == verify_covariance(ws2, hybrid)
    assert 1e-9 < defect < 1e-7
    assert np.array_equal(joint.effects, joint_from_measure(ws2, mm).effects)


def test_run_sequential_records_covariance_defect(ws3, rng):
    result = run_sequential(ws3, rand.covariant_measure(rng, ws3.group))
    assert result.covariance_defect == 0.0


@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2)])
def test_run_sequential_consistency(moduli, rng):
    g = Group(moduli)
    ws = WeylSystem(g)
    for _ in range(5):
        mm = rand.covariant_measure(rng, g)
        result = run_sequential(ws, mm)
        n = ws.dim
        # marginals really are the sums of the joint
        stack = result.joint.effects.reshape(n, n, n, n)
        assert np.abs(stack.sum(axis=1) - result.marginal_a.effects).max() == 0
        assert np.abs(stack.sum(axis=0) - result.marginal_b.effects).max() == 0
        # margins are the smeared sharp observables
        want_a = smear_position(ws, result.sigma)
        want_b = smear_momentum(ws, result.tau)
        assert np.abs(result.marginal_a.effects - want_a.effects).max() < 1e-9
        assert np.abs(result.marginal_b.effects - want_b.effects).max() < 1e-9
        # joint observable is the phase-space observable of the
        # generating state
        assert cpso_defect(ws, result) < 1e-9
        assert verify_cpso_covariance(ws, result.joint) < 1e-9


def test_generating_state_of_point_mass(ws3, rng):
    omega = rand.state(rng, 3)
    mm = CovariantMeasure.point_mass(ws3, (0,), omega)
    s = generating_state(ws3, mm)
    assert np.abs(s - check_map(ws3, omega)).max() == 0
    assert np.abs(translated_total_density(ws3, mm) - omega).max() < 1e-14


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,)])
def test_sequential_from_cpso_realizes_target(moduli, rng):
    g = Group(moduli)
    ws = WeylSystem(g)
    for _ in range(5):
        s = rand.state(rng, g.order)
        instr, joint = sequential_from_cpso(ws, s)
        ref = cpso_from_state(ws, s)
        assert np.abs(joint.effects - ref.effects).max() < 1e-10
        # round trip back through the instrument's measure
        mm = reconstruct_measure(ws, instr)
        back = generating_state(ws, mm)
        assert np.abs(back - s).max() < 1e-10


def test_one_instrument_is_built_and_gated_per_call(ws23, rng, monkeypatch):
    import weylseq.sequential as sequential

    built, gated = [], []
    build, gate = sequential.covariant_instrument, sequential.require_covariant
    monkeypatch.setattr(sequential, "covariant_instrument",
                        lambda ws, mm: built.append(build(ws, mm)) or built[-1])
    monkeypatch.setattr(sequential, "require_covariant",
                        lambda ws, instr: gated.append(instr) or gate(ws, instr))
    instr, _ = sequential_from_cpso(ws23, rand.state(rng, ws23.dim))
    assert built == [instr] and gated == [instr]
    built.clear(), gated.clear()
    sequential.run_sequential(ws23, rand.covariant_measure(rng, ws23.group))
    assert len(built) == 1 and gated == built


def test_check_roundtrip_probe_and_state(ws23, rng):
    s = rand.state(rng, ws23.dim)
    omega = check_map(ws23, s)
    assert np.array_equal(check_map(ws23, omega), s)


def test_same_total_density_same_joint(ws2, rng):
    # two different measures with equal translated total density share
    # sigma, tau, and the whole joint observable
    omega = rand.state(rng, 2)
    mm1 = CovariantMeasure.point_mass(ws2, (0,), omega)
    u1 = ws2.translations[1]
    mm2 = CovariantMeasure.point_mass(ws2, (1,), u1 @ omega @ u1.conj().T)
    assert np.abs(
        translated_total_density(ws2, mm1) - translated_total_density(ws2, mm2)
    ).max() < 1e-14
    r1 = run_sequential(ws2, mm1)
    r2 = run_sequential(ws2, mm2)
    assert np.abs(r1.joint.effects - r2.joint.effects).max() < 1e-12
    assert np.abs(r1.generating_state - r2.generating_state).max() < 1e-12
    assert np.abs(mm1.m - mm2.m).max() > 0.1  # yet the measures differ


def test_sequential_disturbance_visible(ws2):
    # measuring first genuinely disturbs momentum: with a sharp probe the
    # momentum margin of the joint is uniform even on a sharp momentum state
    joint = run_sequential(ws2, CovariantMeasure.point_mass(ws2, (0,), e_state(2, 0))).joint
    plus = np.full((2, 2), 0.5, dtype=complex)  # B({0}) eigenstate
    dist = measure(joint, plus)
    marg_b = dist.weights.reshape(2, 2).sum(axis=0)
    assert_allclose(marg_b, [0.5, 0.5], atol=1e-12)


def test_probability_law(ws3, rng):
    mm = rand.covariant_measure(rng, ws3.group)
    instr = covariant_instrument(ws3, mm)
    for _ in range(20):
        rho = rand.state(rng, 3)
        probs = np.array(
            [np.trace(m.apply(rho)).real for m in maps_of(instr)]
        )
        assert probs.min() > -1e-12
        assert abs(probs.sum() - 1.0) < 1e-9


# ==================== the literal sequential measurement ====================


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3)])
def test_joint_is_the_literal_sequential_measurement(moduli, rng):
    """Measure the covariant instrument, then the Lüders sharp-momentum
    instrument rho -> B({chi}) rho B({chi}) on its output: the outcome
    statistics of the composite are the joint observable."""
    ws = WeylSystem(Group(moduli))
    mm = rand.covariant_measure(rng, ws.group)
    luders = instrument_of(ws.group.elements,
                           [from_kraus([b]) for b in ws.momentum_effects])
    literal = associated_observable(compose_sequential(covariant_instrument(ws, mm), luders))
    joint = run_sequential(ws, mm).joint
    assert literal.outcomes == joint.outcomes == ws.phase_points
    assert np.abs(joint.effects - literal.effects).max() <= 1e-13
