import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weylseq import Group, GroupError

from conftest import SMALL_MODULI
from oracles import add, index, neg, pairing, sub


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
        assert add(g, a, g.zero()) == a
        assert add(g, a, neg(g, a)) == g.zero()
        for b in g.elements:
            assert add(g, a, b) == add(g, b, a)
    assert sub(g, (2, 1), (1, 3)) == (1, 2)


def test_pairing_values():
    g4 = Group((4,))
    assert abs(pairing(g4, (1,), (1,)) - 1j) < 1e-15
    assert abs(pairing(g4, (2,), (1,)) + 1.0) < 1e-15
    g23 = Group((2, 3))
    val = pairing(g23, (1, 1), (1, 2))
    want = np.exp(2j * np.pi * (1 / 2 + 2 / 3))
    assert abs(val - want) < 1e-14


def test_pairing_bicharacter(rng):
    g = Group((2, 3))
    elems = g.elements
    for _ in range(50):
        chi = elems[rng.integers(len(elems))]
        x = elems[rng.integers(len(elems))]
        y = elems[rng.integers(len(elems))]
        lhs = pairing(g, chi, add(g, x, y))
        rhs = pairing(g, chi, x) * pairing(g, chi, y)
        assert abs(lhs - rhs) < 1e-13
        lhs2 = pairing(g, add(g, chi, x), y)
        rhs2 = pairing(g, chi, y) * pairing(g, x, y)
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
        assert g.neg_table[i] == index(g, neg(g, a))
        for j, b in enumerate(g.elements):
            assert g.add_table[i, j] == index(g, add(g, a, b))


@st.composite
def groups_rows_residues(draw):
    """A group of rank 1 to 3 with moduli 2 to 9, a few element indices whose
    table rows are checked, and elements given by unreduced residues."""
    g = Group(tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))))
    rows = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=4))
    residues = st.lists(st.integers(-30, 30), min_size=g.rank, max_size=g.rank)
    return g, rows, draw(st.lists(residues, min_size=1, max_size=5))


@settings(max_examples=40, deadline=None)
@given(case=groups_rows_residues())
def test_tables_match_the_element_arithmetic(case):
    g, rows, raw = case
    elems = g.elements
    assert [g.index(x) for x in elems] == list(range(g.order))
    for x in raw:
        assert g.index(x) == g.index(tuple(x)) == index(g, x)
    for wrong in ((0,) * (g.rank + 1), (0,) * (g.rank - 1)):
        with pytest.raises(GroupError, match="wrong rank"):
            g.index(wrong)
    assert g.neg_table.tolist() == [index(g, neg(g, a)) for a in elems]
    table = g.character_table
    for i in rows:
        a = elems[i]
        assert g.add_table[i].tolist() == [index(g, add(g, a, b)) for b in elems]
        assert g.sub_table[i].tolist() == [index(g, sub(g, a, b)) for b in elems]
        assert np.abs(table[i] - [pairing(g, a, x) for x in elems]).max() <= 1e-15
        # bicharacter: chi(x + y) = chi(x) chi(y) and (chi + gamma)(x) = chi(x) gamma(x)
        assert np.abs(table[i][g.add_table] - np.outer(table[i], table[i])).max() < 1e-13
        assert np.abs(table[g.add_table[i]] - table[i] * table).max() < 1e-13


def test_json_roundtrip():
    g = Group((4, 2))
    assert Group.from_json(g.to_json()) == g
    with pytest.raises(GroupError):
        Group.from_json({"modulus": [2]})


@pytest.mark.parametrize("moduli", ["23", [2.5], [True], [2, 3.0], (2, 3), None])
def test_json_moduli_must_be_a_list_of_integers(moduli):
    with pytest.raises(GroupError, match="not a list of integers"):
        Group.from_json({"moduli": moduli})
