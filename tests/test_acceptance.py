"""Acceptance gate: one test per core property, one pass/fail line each.

Every claim the library makes is pinned here at desk scale (group order
up to 6) with explicit tolerances. Run with `pytest -v` to get one line
per criterion, or `pytest -s` to also see the worst residuals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylseq import (
    CovariantMeasure,
    Group,
    WeylSystem,
    check_map,
    covariant_instrument,
    cpso_from_state,
    effect_span_dimension,
    generating_state,
    kronecker_factorization_check,
    pauli_vector,
    reconstruct_measure,
    reconstruction_residual,
    run_sequential,
    sequential_from_cpso,
    smear_momentum,
    smear_position,
    snag_residuals,
    tradeoff_check,
    unsharp_spin,
    verify_covariance,
    weyl_relation_residual,
    SpinFrame,
)
from weylseq import rand
from weylseq.sequential import cpso_defect
from conftest import GROUPS_UP_TO_12
from oracles import coupling_unitary, dense_joint_effects, maps_of, sub

GROUPS_ORDER_LE_6 = [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3)]


def _report(name, worst, tol):
    ok = worst <= tol
    print(f"{name}: worst={worst:.3e} tol={tol:.1e} {'PASS' if ok else 'FAIL'}")
    return ok


def test_weyl_relation_and_fourier_reconstruction():
    worst_rel = 0.0
    worst_snag = 0.0
    for moduli in GROUPS_ORDER_LE_6:
        ws = WeylSystem(Group(moduli))
        worst_rel = max(worst_rel, weyl_relation_residual(ws))
        res_u, res_v = snag_residuals(ws)
        worst_snag = max(worst_snag, res_u, res_v)
    ok_rel = _report("weyl-relation (order<=6)", worst_rel, 1e-12)
    ok_snag = _report("snag-reconstruction (order<=6)", worst_snag, 1e-10)
    assert ok_rel and ok_snag


def test_coupling_intertwiners():
    worst = 0.0
    for moduli in [(2,), (3,), (4,), (2, 2)]:
        g = Group(moduli)
        ws = WeylSystem(g)
        ell = coupling_unitary(ws)
        for i in range(g.order):
            for j in range(g.order):
                lhs = ell @ np.kron(ws.translations[i], ws.translations[j])
                rhs = np.kron(
                    ws.translations[i], ws.translations[g.add_table[i, j]]
                ) @ ell
                worst = max(worst, np.abs(lhs - rhs).max())
                lhs = ell @ np.kron(ws.modulations[i], ws.modulations[j])
                diff = g.index(sub(g, g.elements[i], g.elements[j]))
                rhs = np.kron(ws.modulations[diff], ws.modulations[j]) @ ell
                worst = max(worst, np.abs(lhs - rhs).max())
    assert _report("coupling-intertwiners (d<=4)", worst, 1e-12)


def test_instrument_measure_roundtrip():
    rng = np.random.default_rng(202)
    worst_rt = 0.0
    worst_cov = 0.0
    for d in (2, 3, 5):
        g = Group((d,))
        ws = WeylSystem(g)
        for _ in range(50):
            mm = rand.covariant_measure(rng, g)
            instr = covariant_instrument(ws, mm)
            worst_cov = max(worst_cov, verify_covariance(ws, instr))
            back = reconstruct_measure(ws, instr)
            diff = np.abs(back.m - mm.m) ** 2
            per_point = np.sqrt(diff.reshape(g.order, -1).sum(axis=1)).max()
            worst_rt = max(worst_rt, per_point)
    ok_rt = _report("measure-roundtrip (50x d=2,3,5)", worst_rt, 1e-8)
    ok_cov = _report("instrument-covariance (50x d=2,3,5)", worst_cov, 1e-9)
    assert ok_rt and ok_cov


def test_joint_marginals_are_smeared_sharp_observables():
    rng = np.random.default_rng(303)
    worst = 0.0
    for d in (2, 3):
        g = Group((d,))
        ws = WeylSystem(g)
        for _ in range(50):
            mm = rand.covariant_measure(rng, g)
            result = run_sequential(ws, mm)
            want_a = smear_position(ws, result.sigma).effects
            want_b = smear_momentum(ws, result.tau).effects
            worst = max(
                worst,
                np.abs(result.marginal_a.effects - want_a).max(),
                np.abs(result.marginal_b.effects - want_b).max(),
            )
    assert _report("joint-marginals-vs-smears (50x d=2,3)", worst, 1e-9)


def test_joint_observable_is_phase_space_observable():
    rng = np.random.default_rng(404)
    worst_joint = 0.0
    worst_converse = 0.0
    worst_check = 0.0
    for d in (2, 3, 4):
        g = Group((d,))
        ws = WeylSystem(g)
        for _ in range(20):
            mm = rand.covariant_measure(rng, g)
            joint = dense_joint_effects(ws, covariant_instrument(ws, mm))
            s = generating_state(ws, mm)
            ref = cpso_from_state(ws, s)
            worst_joint = max(worst_joint, np.abs(joint - ref.effects).max())

            target = rand.state(rng, g.order)
            _, realized = sequential_from_cpso(ws, target)
            want = cpso_from_state(ws, target)
            worst_converse = max(
                worst_converse, np.abs(realized.effects - want.effects).max()
            )
            worst_check = max(
                worst_check,
                np.abs(check_map(ws, check_map(ws, target)) - target).max(),
            )
    ok_j = _report("joint-is-cpso (20x d=2,3,4)", worst_joint, 1e-9)
    ok_c = _report("cpso-realized-sequentially (20x d=2,3,4)", worst_converse, 1e-9)
    ok_k = _report("probe-state-roundtrip (20x d=2,3,4)", worst_check, 1e-10)
    assert ok_j and ok_c and ok_k


def test_operator_reconstruction_formula():
    rng = np.random.default_rng(505)
    worst = 0.0
    for d in (2, 3, 4):
        ws = WeylSystem(Group((d,)))
        for _ in range(100):
            t = rand.complex_matrix(rng, d)
            f1 = rng.normal(size=d) + 1j * rng.normal(size=d)
            f2 = rng.normal(size=d) + 1j * rng.normal(size=d)
            worst = max(worst, reconstruction_residual(ws, t, f1, f2))
    assert _report("operator-reconstruction (100x d=2,3,4)", worst, 1e-9)


def test_spin_demo():
    rng = np.random.default_rng(606)

    worst_fact = 0.0
    for _ in range(100):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        b -= (a @ b) / (a @ a) * a
        while np.linalg.norm(b) < 1e-6:
            b = rng.normal(size=3)
            b -= (a @ b) / (a @ a) * a
        frame = SpinFrame(tuple(a), tuple(b))
        omega = rand.state(rng, 2)
        rho = rand.state(rng, 2)
        worst_fact = max(
            worst_fact, kronecker_factorization_check(frame, omega, rho)
        )
    ok_fact = _report("spin-factorization (100 pairs)", worst_fact, 1e-10)

    frame = SpinFrame((0, 0, 1), (1, 0, 0))
    worst_trade = 0.0
    for _ in range(1000):
        omega = rand.state(rng, 2)
        worst_trade = max(worst_trade, tradeoff_check(frame, omega))
    ok_trade = _report("spin-tradeoff-bound (1000 probes)", worst_trade, 1 + 1e-12)

    # bound attained when the probe points along the first axis
    attained = 0.5 * (np.eye(2) + pauli_vector(frame.a))
    gap = abs(tradeoff_check(frame, attained) - 1.0)
    ok_att = _report("spin-tradeoff-attained (r=a)", gap, 1e-9)

    s, t, _, _ = unsharp_spin(frame, attained)
    worked = max(abs(s - 1.0), abs(t))
    ok_vals = _report("spin-worked-values (s=1,t=0)", worked, 1e-12)
    assert ok_fact and ok_trade and ok_att and ok_vals


def test_informational_completeness_discrimination():
    ws = WeylSystem(Group((2,)))
    point = np.diag([1.0, 0.0]).astype(complex)
    rank_point = effect_span_dimension(cpso_from_state(ws, point))

    r = np.ones(3) / np.sqrt(3)
    tilted = 0.5 * (np.eye(2) + pauli_vector(r))
    rank_tilted = effect_span_dimension(cpso_from_state(ws, tilted))

    ok = rank_point == 2 and rank_tilted == 4
    print(
        f"ic-discrimination: point-state rank={rank_point} (want 2), "
        f"tilted rank={rank_tilted} (want 4) {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_instrument_probability_law():
    rng = np.random.default_rng(707)
    worst_sum = 0.0
    worst_neg = 0.0
    instruments = []
    for moduli in [(2,), (3,), (2, 2)]:
        g = Group(moduli)
        ws = WeylSystem(g)
        omega = rand.state(rng, g.order)
        instruments.append(
            (ws, covariant_instrument(ws, CovariantMeasure.point_mass(ws, g.zero(), omega)))
        )
        for _ in range(2):
            mm = rand.covariant_measure(rng, g)
            instruments.append((ws, covariant_instrument(ws, mm)))
    for ws, instr in instruments:
        for _ in range(100):
            rho = rand.state(rng, ws.dim)
            probs = np.array([np.trace(m.apply(rho)).real for m in maps_of(instr)])
            worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
            worst_neg = max(worst_neg, -probs.min())
    ok_sum = _report("probability-normalization (9 instruments x 100 states)",
                     worst_sum, 1e-9)
    ok_neg = _report("probability-positivity (9 instruments x 100 states)",
                     worst_neg, 1e-12)
    assert ok_sum and ok_neg


@settings(max_examples=25, deadline=None)
@given(moduli=GROUPS_UP_TO_12, seed=st.integers(0, 2**32 - 1))
def test_paper_identities_on_random_groups(moduli, seed):
    """Prop 4.2, Prop 4.3, Cor 4.4 and the Theorem 4.1 round trip on a
    random group, measure and state, at the gates of the `verify` suites."""
    ws = WeylSystem(Group(moduli))
    rng = np.random.default_rng(seed)
    mm = rand.covariant_measure(rng, ws.group)
    result = run_sequential(ws, mm)
    want_a = smear_position(ws, result.sigma).effects
    want_b = smear_momentum(ws, result.tau).effects
    assert np.abs(result.marginal_a.effects - want_a).max() <= 1e-9
    assert np.abs(result.marginal_b.effects - want_b).max() <= 1e-9
    assert cpso_defect(ws, result) <= 1e-9

    instr = covariant_instrument(ws, mm)
    assert verify_covariance(ws, instr) <= 1e-9
    assert np.abs(reconstruct_measure(ws, instr).m - mm.m).max() <= 1e-8

    s = rand.state(rng, ws.dim)
    instr, joint = sequential_from_cpso(ws, s)
    assert np.abs(joint.effects - cpso_from_state(ws, s).effects).max() <= 1e-9
    back = generating_state(ws, reconstruct_measure(ws, instr))
    assert np.abs(back - s).max() <= 1e-10
