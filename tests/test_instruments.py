import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylseq import (
    CovariantMeasure,
    CpMap,
    DimensionError,
    Group,
    InvalidMeasureError,
    NotCovariantError,
    WeylSystem,
    covariant_instrument,
    instrument_from_json,
    instrument_to_json,
    measure_from_json,
    measure_to_json,
    reconstruct_measure,
    reconstruction_residual,
    smear_position,
    standard_instrument,
    verify_covariance,
)
from weylseq import rand
from weylseq.sequential import noise_measures
from oracles import (
    associated_observable,
    compose_maps,
    compose_sequential,
    coupling_unitary,
    dual_apply,
    from_kraus,
    identity_map,
    instrument_of,
    kraus_operators,
    map_at,
    maps_of,
    partial_trace_second,
    sub,
)


def e_state(n, k):
    s = np.zeros((n, n), dtype=complex)
    s[k, k] = 1.0
    return s


# ==================== CpMap ====================


def test_cpmap_identity(rng):
    phi = identity_map(3)
    t = rand.complex_matrix(rng, 3)
    assert np.abs(phi.apply(t) - t).max() < 1e-14
    assert np.abs(dual_apply(phi, t) - t).max() < 1e-14


def test_cpmap_rejects_non_cp():
    # transpose map: positive but not completely positive
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            choi += np.kron(e.T, e)
    with pytest.raises(ValueError):
        CpMap(2, 2, choi)


def test_cpmap_rejects_trace_increasing():
    with pytest.raises(ValueError):
        from_kraus([np.eye(2) * 1.1])


def test_cpmap_kraus_roundtrip(rng):
    ks = [rand.complex_matrix(rng, 2) * 0.3 for _ in range(3)]
    total = sum(k.conj().T @ k for k in ks)
    w = np.linalg.eigvalsh(total).max()
    ks = [k / np.sqrt(w * 1.01) for k in ks]
    phi = from_kraus(ks)
    back = kraus_operators(phi)
    t = rand.complex_matrix(rng, 2)
    want = sum(k @ t @ k.conj().T for k in ks)
    got = sum(k @ t @ k.conj().T for k in back)
    assert np.abs(want - got).max() < 1e-12
    assert np.abs(phi.apply(t) - want).max() < 1e-12


def test_cpmap_dual_adjointness(rng):
    ks = [rand.complex_matrix(rng, 3) * 0.2]
    phi = from_kraus(ks)
    for _ in range(10):
        t = rand.complex_matrix(rng, 3)
        a = rand.complex_matrix(rng, 3)
        lhs = np.trace(phi.apply(t) @ a)
        rhs = np.trace(t @ dual_apply(phi, a))
        assert abs(lhs - rhs) < 1e-12


def test_cpmap_compose(rng):
    k1 = rand.complex_matrix(rng, 3) * 0.2
    k2 = rand.complex_matrix(rng, 3) * 0.2
    phi1 = from_kraus([k1])
    phi2 = from_kraus([k2])
    comp = compose_maps(phi2, phi1)
    t = rand.complex_matrix(rng, 3)
    assert np.abs(comp.apply(t) - phi2.apply(phi1.apply(t))).max() < 1e-12


# ==================== coupling unitary ====================


def test_coupling_z2_is_cnot(ws2):
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(coupling_unitary(ws2), want)
    # and on two-point groups L is an involution
    assert np.array_equal(coupling_unitary(ws2) @ coupling_unitary(ws2), np.eye(4))


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2)])
def test_coupling_unitary_and_intertwining(moduli):
    g = Group(moduli)
    ws = WeylSystem(g)
    n = g.order
    ell = coupling_unitary(ws)
    assert np.abs(ell @ ell.T - np.eye(n * n)).max() == 0
    for i in range(n):
        for j in range(n):
            lhs = ell @ np.kron(ws.translations[i], ws.translations[j])
            rhs = np.kron(ws.translations[i],
                          ws.translations[g.add_table[i, j]]) @ ell
            assert np.abs(lhs - rhs).max() < 1e-12
            lhs_v = ell @ np.kron(ws.modulations[i], ws.modulations[j])
            diff = g.index(sub(g, g.elements[i], g.elements[j]))
            rhs_v = np.kron(ws.modulations[diff], ws.modulations[j]) @ ell
            assert np.abs(lhs_v - rhs_v).max() < 1e-12


# ==================== standard instrument ====================


def test_standard_instrument_z2_point_probe(ws2):
    instr = standard_instrument(ws2, e_state(2, 0))
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    out0 = map_at(instr, 0).apply(rho)
    out1 = map_at(instr, 1).apply(rho)
    assert_allclose(out0, np.diag([0.6, 0.0]), atol=1e-14)
    assert_allclose(out1, np.diag([0.0, 0.4]), atol=1e-14)


@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2)])
def test_standard_instrument_matches_literal_formula(moduli, rng):
    g = Group(moduli)
    ws = WeylSystem(g)
    n = g.order
    omega = rand.state(rng, n)
    instr = standard_instrument(ws, omega)
    ell = coupling_unitary(ws)
    eye = np.eye(n)
    for _ in range(5):
        rho = rand.state(rng, n)
        coupled = ell @ np.kron(rho, omega) @ ell.conj().T
        for k in range(n):
            proj = np.kron(eye, ws.position_effects[k])
            want = partial_trace_second(proj @ coupled, n, n)
            got = map_at(instr, k).apply(rho)
            assert np.abs(got - want).max() < 1e-12


def test_standard_instrument_observable_is_smeared_position(ws3, rng):
    omega = rand.state(rng, 3)
    instr = standard_instrument(ws3, omega)
    povm = associated_observable(instr)
    sigma, _ = noise_measures(
        ws3, CovariantMeasure.point_mass(ws3, (0,), omega)
    )
    want = smear_position(ws3, sigma)
    assert np.abs(povm.effects - want.effects).max() < 1e-12


def test_standard_instrument_is_covariant(ws23, rng):
    omega = rand.state(rng, ws23.dim)
    instr = standard_instrument(ws23, omega)
    assert verify_covariance(ws23, instr) < 1e-12


# ==================== covariant instruments ====================


def test_point_mass_reduces_to_standard(ws3, rng):
    omega = rand.state(rng, 3)
    mm = CovariantMeasure.point_mass(ws3, (0,), omega)
    instr_a = covariant_instrument(ws3, mm)
    instr_b = standard_instrument(ws3, omega)
    for ma, mb in zip(maps_of(instr_a), maps_of(instr_b)):
        assert np.abs(ma.choi - mb.choi).max() < 1e-12


def test_covariant_instrument_linear_in_measure(ws2, rng):
    m1 = rand.covariant_measure(rng, ws2.group)
    m2 = rand.covariant_measure(rng, ws2.group)
    mix = CovariantMeasure(ws2.group, 0.3 * m1.m + 0.7 * m2.m)
    ia = covariant_instrument(ws2, mix)
    i1 = covariant_instrument(ws2, m1)
    i2 = covariant_instrument(ws2, m2)
    for k in range(2):
        want = 0.3 * map_at(i1, k).choi + 0.7 * map_at(i2, k).choi
        assert np.abs(map_at(ia, k).choi - want).max() < 1e-12


def test_covariant_instrument_matches_normalized_translates(ws3, rng):
    # same construction routed through probe states: weight each translated
    # standard instrument by the trace of its density
    mm = rand.covariant_measure(rng, ws3.group)
    instr = covariant_instrument(ws3, mm)
    n = ws3.dim
    eye = np.eye(n)
    total = np.zeros((n, n * n, n * n), dtype=complex)
    for y in range(n):
        nu = float(np.trace(mm.m[y]).real)
        if nu <= 1e-14:
            continue
        uy = ws3.translations[y]
        omega_y = uy.conj().T @ mm.m[y] @ uy / nu
        part = standard_instrument(ws3, omega_y)
        rot = np.kron(uy.conj().T, eye)
        for k in range(n):
            total[k] += nu * (rot @ map_at(part, k).choi @ rot.conj().T)
    for k in range(n):
        assert np.abs(map_at(instr, k).choi - total[k]).max() < 1e-12


def test_covariant_instrument_with_zero_point(ws2, rng):
    m = np.zeros((2, 2, 2), dtype=complex)
    m[0] = rand.state(rng, 2)  # all weight at outcome 0
    mm = CovariantMeasure(ws2.group, m)
    instr = covariant_instrument(ws2, mm)
    assert verify_covariance(ws2, instr) < 1e-12
    back = reconstruct_measure(ws2, instr)
    assert np.abs(back.m - mm.m).max() < 1e-10


def test_measure_validation(ws2):
    good = np.zeros((2, 2, 2), dtype=complex)
    good[0] = np.eye(2) * 0.5
    CovariantMeasure(ws2.group, good)
    with pytest.raises(InvalidMeasureError):
        CovariantMeasure(ws2.group, good * 0.9)  # total trace 0.9
    bad = good.copy()
    bad[1] = np.diag([0.1, -0.1])
    with pytest.raises(InvalidMeasureError):
        CovariantMeasure(ws2.group, bad)


def test_instrument_validation(ws2):
    half = from_kraus([np.eye(2) / np.sqrt(2)])
    instrument_of(((0,), (1,)), (half, half))
    with pytest.raises(ValueError):
        instrument_of(((0,), (1,)), (half, from_kraus([np.eye(2) * 0.1])))


def test_label_swap_stays_covariant(ws2):
    # relabeling outcomes by a constant shift maps the covariant family to
    # itself: the swapped instrument is the standard one with probe
    # U_1 omega U_1, so its measure moves rather than its covariance
    omega = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    instr = standard_instrument(ws2, omega)
    swapped = instrument_of(instr.outcomes, (map_at(instr, 1), map_at(instr, 0)))
    assert verify_covariance(ws2, swapped) < 1e-12
    back = reconstruct_measure(ws2, swapped)
    u1 = ws2.translations[1]
    assert np.abs(back.m[0] - u1 @ omega @ u1.conj().T).max() < 1e-10
    assert np.abs(back.m[1]).max() < 1e-10


def test_covariance_detects_mismatched_probes(ws2):
    # outcome 0 served by one probe, outcome 1 by another with the same
    # diagonal (so the total map stays trace preserving) but a different
    # off-diagonal: genuinely outside the covariant family
    om1 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    om2 = np.array([[0.7, -0.1], [-0.1, 0.3]], dtype=complex)
    i1 = standard_instrument(ws2, om1)
    i2 = standard_instrument(ws2, om2)
    hybrid = instrument_of(i1.outcomes, (map_at(i1, 0), map_at(i2, 1)))
    assert verify_covariance(ws2, hybrid) > 1e-3
    with pytest.raises(NotCovariantError):
        reconstruct_measure(ws2, hybrid)


@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2)])
def test_reconstruct_measure_roundtrip(moduli, rng):
    g = Group(moduli)
    ws = WeylSystem(g)
    for _ in range(5):
        mm = rand.covariant_measure(rng, g)
        instr = covariant_instrument(ws, mm)
        back = reconstruct_measure(ws, instr)
        diff = back.m - mm.m
        per_point = np.sqrt((np.abs(diff) ** 2).sum(axis=(1, 2)))
        assert per_point.max() < 1e-10


def test_reconstruction_identity(ws23, rng):
    n = ws23.dim
    for _ in range(10):
        t = rand.complex_matrix(rng, n)
        f1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert reconstruction_residual(ws23, t, f1, f2) < 1e-10


# ==================== composition ====================


def test_compose_sequential_marginal_law(ws2, rng):
    first = standard_instrument(ws2, rand.state(rng, 2))
    second = standard_instrument(ws2, rand.state(rng, 2))
    seq = compose_sequential(first, second)
    assert seq.outcomes == (
        ((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,)),
    )
    first_obs = associated_observable(first)
    eye = np.eye(2)
    for i in range(2):
        total = sum(
            dual_apply(map_at(seq, i * 2 + j), eye) for j in range(2)
        )
        assert np.abs(total - first_obs.effects[i]).max() < 1e-12
    # probability consistency in a state
    rho = rand.state(rng, 2)
    for i in range(2):
        for j in range(2):
            p_seq = np.trace(map_at(seq, i * 2 + j).apply(rho)).real
            p_two = np.trace(
                map_at(second, j).apply(map_at(first, i).apply(rho))
            ).real
            assert abs(p_seq - p_two) < 1e-12


# ==================== JSON ====================


def test_instrument_json_roundtrip(ws3, rng):
    mm = rand.covariant_measure(rng, ws3.group)
    instr = covariant_instrument(ws3, mm)
    group, back = instrument_from_json(instrument_to_json(ws3, instr))
    assert group == ws3.group
    for ma, mb in zip(maps_of(instr), maps_of(back)):
        assert np.array_equal(ma.choi, mb.choi)


def test_measure_json_roundtrip(ws23, rng):
    mm = rand.covariant_measure(rng, ws23.group)
    back = measure_from_json(measure_to_json(mm))
    assert back.group == mm.group
    assert np.array_equal(back.m, mm.m)
