import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import Group, WeylSystem
from weylseq.weyl import snag_residuals, weyl_relation_residual

from conftest import SMALL_MODULI
from oracles import (PhasePoint, modulation, phase_point_product, sharp_momentum,
                     sharp_position, translation, weyl_op)


def test_translation_z3():
    ws = WeylSystem(Group((3,)))
    u1 = translation(ws, (1,))
    want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.abs(u1 - want).max() == 0
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.argmax(np.abs(u1 @ e0)) == 1  # U_1 e_0 = e_1


def test_modulation_z3():
    ws = WeylSystem(Group((3,)))
    v1 = modulation(ws, (1,))
    w = np.exp(2j * np.pi / 3)
    assert_allclose(np.diag(v1), [1, w, w ** 2], atol=1e-15)


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_unitarity(moduli):
    ws = WeylSystem(Group(moduli))
    n = ws.dim
    eye = np.eye(n)
    for i in range(n):
        assert np.abs(ws.translations[i] @ ws.translations[i].conj().T - eye).max() < 1e-14
        assert np.abs(ws.modulations[i] @ ws.modulations[i].conj().T - eye).max() < 1e-14


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_weyl_relation(moduli):
    ws = WeylSystem(Group(moduli))
    assert weyl_relation_residual(ws) < 1e-12


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_snag_formulas(moduli):
    ws = WeylSystem(Group(moduli))
    res_u, res_v = snag_residuals(ws)
    assert res_u < 1e-10
    assert res_v < 1e-10


def test_weyl_op_z2_example():
    ws = WeylSystem(Group((2,)))
    w = weyl_op(ws, PhasePoint((1,), (1,)))
    want = np.array([[0, -1], [1, 0]], dtype=complex)
    assert np.abs(w - want).max() < 1e-15


def test_weyl_op_phase():
    ws = WeylSystem(Group((3,)))
    u = np.exp(0.7j)
    w1 = weyl_op(ws, PhasePoint((1,), (2,), u))
    w2 = weyl_op(ws, PhasePoint((1,), (2,)))
    assert np.abs(w1 - np.conj(u) * w2).max() < 1e-14
    with pytest.raises(ValueError):
        PhasePoint((1,), (2,), 0.5)


@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2)])
def test_projective_composition(moduli):
    g = Group(moduli)
    ws = WeylSystem(g)
    rng = np.random.default_rng(3)
    elems = g.elements
    for _ in range(25):
        p = PhasePoint(elems[rng.integers(len(elems))],
                       elems[rng.integers(len(elems))],
                       np.exp(2j * np.pi * rng.random()))
        q = PhasePoint(elems[rng.integers(len(elems))],
                       elems[rng.integers(len(elems))],
                       np.exp(2j * np.pi * rng.random()))
        prod = phase_point_product(g, p, q)
        lhs = weyl_op(ws, p) @ weyl_op(ws, q)
        assert np.abs(lhs - weyl_op(ws, prod)).max() < 1e-13


def test_conjugation_u_independent(rng):
    ws = WeylSystem(Group((3,)))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for _ in range(10):
        u = np.exp(2j * np.pi * rng.random())
        w1 = weyl_op(ws, PhasePoint((2,), (1,), u))
        w2 = weyl_op(ws, PhasePoint((2,), (1,)))
        assert np.abs(w1 @ a @ w1.conj().T - w2 @ a @ w2.conj().T).max() < 1e-13


def test_sharp_position():
    ws = WeylSystem(Group((2, 2)))
    proj = sharp_position(ws, [(0, 1), (1, 0)])
    assert_allclose(np.diag(proj), [0, 1, 1, 0], atol=0)
    full = sharp_position(ws, ws.group.elements)
    assert np.abs(full - np.eye(4)).max() == 0


def test_sharp_momentum_z2():
    ws = WeylSystem(Group((2,)))
    b0 = sharp_momentum(ws, [(0,)])
    assert_allclose(b0, np.full((2, 2), 0.5), atol=1e-15)
    b1 = sharp_momentum(ws, [(1,)])
    assert_allclose(b0 + b1, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_sharp_observables_are_projections(moduli):
    ws = WeylSystem(Group(moduli))
    for k in range(ws.dim):
        b = ws.momentum_effects[k]
        assert np.abs(b @ b - b).max() < 1e-13
        assert np.abs(b - b.conj().T).max() < 1e-14
    total = ws.momentum_effects.sum(axis=0)
    assert np.abs(total - np.eye(ws.dim)).max() < 1e-13


@pytest.mark.parametrize("moduli", [(3,), (2, 2)])
def test_covariance_of_sharp_observables(moduli):
    g = Group(moduli)
    ws = WeylSystem(g)
    n = ws.dim
    for i, x in enumerate(g.elements):
        u = ws.translations[i]
        for k, y in enumerate(g.elements):
            a = ws.position_effects[k]
            want = ws.position_effects[g.add_table[i, k]]
            assert np.abs(u @ a @ u.conj().T - want).max() < 1e-13
    for j, chi in enumerate(g.elements):
        v = ws.modulations[j]
        for k in range(n):
            b = ws.momentum_effects[k]
            want = ws.momentum_effects[g.add_table[j, k]]
            assert np.abs(v @ b @ v.conj().T - want).max() < 1e-13


def test_fourier_exchanges_position_and_momentum():
    ws = WeylSystem(Group((2, 3)))
    f = ws.fourier
    for k in range(ws.dim):
        a = ws.position_effects[k]
        b = ws.momentum_effects[k]
        assert np.abs(f.conj().T @ a @ f - b).max() < 1e-13
