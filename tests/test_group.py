import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import Group, GroupError

from conftest import SMALL_MODULI


def test_bad_moduli():
    with pytest.raises(GroupError):
        Group((1,))
    with pytest.raises(GroupError):
        Group(())
    with pytest.raises(GroupError):
        Group.from_spec("2xtwo")


def test_from_spec():
    assert Group.from_spec("2").moduli == (2,)
    assert Group.from_spec("2x3").moduli == (2, 3)
    assert Group.from_spec(" 4 x 2 ").moduli == (4, 2)


def test_enumeration_order():
    g = Group((2, 3))
    assert g.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert g.elements[0] == g.zero()
    assert g.index((1, 2)) == 5
    assert g.index((3, 5)) == g.index((1, 2))  # residues reduce


def test_group_axioms():
    g = Group((3, 4))
    for a in g.elements:
        assert g.add(a, g.zero()) == a
        assert g.add(a, g.neg(a)) == g.zero()
        for b in g.elements:
            assert g.add(a, b) == g.add(b, a)
    assert g.sub((2, 1), (1, 3)) == (1, 2)


def test_pairing_values():
    g4 = Group((4,))
    assert abs(g4.pairing((1,), (1,)) - 1j) < 1e-15
    assert abs(g4.pairing((2,), (1,)) + 1.0) < 1e-15
    g23 = Group((2, 3))
    val = g23.pairing((1, 1), (1, 2))
    want = np.exp(2j * np.pi * (1 / 2 + 2 / 3))
    assert abs(val - want) < 1e-14


def test_pairing_bicharacter(rng):
    g = Group((2, 3))
    elems = g.elements
    for _ in range(50):
        chi = elems[rng.integers(len(elems))]
        x = elems[rng.integers(len(elems))]
        y = elems[rng.integers(len(elems))]
        lhs = g.pairing(chi, g.add(x, y))
        rhs = g.pairing(chi, x) * g.pairing(chi, y)
        assert abs(lhs - rhs) < 1e-13
        lhs2 = g.pairing(g.add(chi, x), y)
        rhs2 = g.pairing(chi, y) * g.pairing(x, y)
        assert abs(lhs2 - rhs2) < 1e-13


@pytest.mark.parametrize("moduli", SMALL_MODULI + [(2, 2, 3), (3, 3)])
def test_character_orthogonality(moduli):
    g = Group(moduli)
    table = g.character_table
    gram = table @ table.conj().T
    assert np.abs(gram - g.order * np.eye(g.order)).max() < 1e-12


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_fourier_unitary(moduli):
    g = Group(moduli)
    f = g.fourier_matrix()
    assert np.abs(f @ f.conj().T - np.eye(g.order)).max() < 1e-12


def test_fourier_z3_entries():
    f = Group((3,)).fourier_matrix()
    w = np.exp(-2j * np.pi / 3)
    want = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w ** 4]]) / np.sqrt(3)
    assert_allclose(f, want, atol=1e-14)


def test_index_tables():
    g = Group((2, 3))
    for i, a in enumerate(g.elements):
        assert g.neg_table[i] == g.index(g.neg(a))
        for j, b in enumerate(g.elements):
            assert g.add_table[i, j] == g.index(g.add(a, b))


def test_json_roundtrip():
    g = Group((4, 2))
    assert Group.from_json(g.to_json()) == g
    with pytest.raises(GroupError):
        Group.from_json({"modulus": [2]})


@pytest.mark.parametrize("moduli", ["23", [2.5], [True], [2, 3.0], (2, 3), None])
def test_json_moduli_must_be_a_list_of_integers(moduli):
    with pytest.raises(GroupError, match="not a list of integers"):
        Group.from_json({"moduli": moduli})
