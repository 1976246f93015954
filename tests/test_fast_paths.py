"""The closed-form instrument, the sector-expanded covariance defect, the
stacked joint observable, the Weyl-operator gathers and the checks and
joint observable read off the measure against the dense constructions in
`oracles`, and the checks of whole stacks of densities and effects."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylseq import (
    CovariantMeasure,
    CpMap,
    Group,
    HermiticityError,
    Instrument,
    InvalidInstrumentError,
    NotCovariantError,
    Povm,
    WeylSystem,
    covariant_instrument,
    cpso_from_state,
    instrument_from_json,
    instrument_to_json,
    is_psd,
    joint_observable,
    reconstruct_measure,
    reconstruction_residual,
    run_sequential,
    standard_instrument,
    verify_covariance,
    verify_cpso_covariance,
    weyl_relation_residual,
)
from weylseq import codec, instruments, rand
from weylseq.sequential import translated_total_density
from conftest import GROUPS_UP_TO_12
from oracles import (
    dense_covariance_defect,
    dense_covariant_chois,
    dense_cpso_covariance,
    dense_cpso_effects,
    dense_instrument_failure,
    dense_joint_effects,
    dense_reconstruct_measure,
    dense_reconstruction_residual,
    dense_translated_total_density,
    dense_weyl_relation_residual,
    dual_apply,
    instrument_of,
    map_at,
    maps_of,
)

LADDER = [(2,), (3,), (2, 2), (5,), (2, 3), (8,), (2, 2, 2), (3, 3), (10,), (12,),
          (2, 6), (2, 2, 3)]
ORDER_LE_8 = [m for m in LADDER if np.prod(m) <= 8]


def chois_of(instr):
    return instr.maps.choi


def random_instrument_chois(rng, n, kraus_per_outcome=2):
    """Choi stack of a random instrument: Kraus operators cut from one
    random isometry C^n -> C^(n * r * n)."""
    rows = n * kraus_per_outcome * n
    q, _ = np.linalg.qr(rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    vecs = q.reshape(n, kraus_per_outcome, n * n)  # [k, s, (a, i)]
    return np.einsum("ksa,ksb->kab", vecs, vecs.conj())


def translation_twirl(ws, chois):
    """(1/n) sum_y U_y I_{k-y}(U_y^dag . U_y) U_y^dag: covariant under
    translations, not under modulations."""
    n = ws.dim
    sub = ws.group.sub_table
    c5 = chois.reshape((n,) * 5)
    out = np.zeros_like(c5)
    for y in range(n):
        s = sub[:, y]
        out += c5[np.ix_(s, s, s, s, s)]
    return out.reshape(chois.shape) / n


def modulation_twirl(ws, chois):
    """(1/n) sum_chi V_chi I_k(V_chi^dag . V_chi) V_chi^dag, which keeps the
    entries with a - i - b + j = 0: covariant under modulations only."""
    n = ws.dim
    sub = ws.group.sub_table
    a, i, b, j = np.ix_(*(np.arange(n),) * 4)
    keep = sub[sub[a, i], sub[b, j]] == 0
    return (chois.reshape((n,) * 5) * keep).reshape(chois.shape)


def outcome_swap(chois):
    """Outcomes 0 and 1 trade Choi matrices: still an instrument, and on a
    covariant one of order > 2 the defect sits at the pairs of outcomes
    that meet 0 or 1."""
    out = chois.copy()
    out[[0, 1]] = out[[1, 0]]
    return out


# each takes (ws, covariant Choi stack, random instrument's Choi stack)
PERTURBATIONS = {
    "random": lambda ws, base, c: c,
    "modulation_violation": lambda ws, base, c: translation_twirl(ws, c),
    "translation_violation": lambda ws, base, c: modulation_twirl(ws, c),
    "outcome_swap": lambda ws, base, c: outcome_swap(base),
}


def perturbed(ws, rng, kind, eps):
    """A covariant instrument mixed with weight eps into a perturbation."""
    n = ws.dim
    base = chois_of(covariant_instrument(ws, rand.covariant_measure(rng, ws.group)))
    other = PERTURBATIONS[kind](ws, base, random_instrument_chois(rng, n))
    mix = (1 - eps) * base + eps * other
    return Instrument(ws.group.elements, CpMap(n, n, mix)), mix


@pytest.mark.parametrize("moduli", LADDER)
def test_closed_form_choi_matches_dense_oracle(moduli, rng):
    ws = WeylSystem(Group(moduli))
    mm = rand.covariant_measure(rng, ws.group)
    instr = covariant_instrument(ws, mm)
    assert np.abs(chois_of(instr) - dense_covariant_chois(ws, mm)).max() <= 1e-15
    assert verify_covariance(ws, instr) == 0.0
    assert math.copysign(1.0, verify_covariance(ws, instr)) == 1.0  # never -0.0


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
@pytest.mark.parametrize("moduli", ORDER_LE_8)
def test_sector_defect_matches_dense_oracle(moduli, kind, rng):
    ws = WeylSystem(Group(moduli))
    instr, mix = perturbed(ws, rng, kind, 1e-3)
    want = dense_covariance_defect(ws, mix)
    if kind == "outcome_swap" and ws.dim == 2:
        # the exchange of the only two outcomes is the translation by 1,
        # which keeps a covariant instrument covariant
        assert max(want, verify_covariance(ws, instr)) <= 1e-15
        return
    assert want > 1e-5
    assert abs(verify_covariance(ws, instr) - want) <= 1e-12 * want


@pytest.mark.parametrize("moduli", ORDER_LE_8)
def test_joint_observable_matches_dual_map_oracle(moduli, rng):
    ws = WeylSystem(Group(moduli))
    mm = rand.covariant_measure(rng, ws.group)
    instr = covariant_instrument(ws, mm)
    joint, defect = joint_observable(ws, instr, mm)
    assert defect == 0.0
    assert np.abs(joint.effects - dense_joint_effects(ws, instr)).max() <= 1e-15


SMALL_GROUPS = st.sampled_from([(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3)])


@settings(max_examples=40, deadline=None)
@given(
    moduli=SMALL_GROUPS,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(PERTURBATIONS)),
    log_eps=st.floats(-12.0, -1.0),
)
def test_sector_defect_property(moduli, seed, kind, log_eps):
    ws = WeylSystem(Group(moduli))
    rng = np.random.default_rng(seed)
    mm = rand.covariant_measure(rng, ws.group)
    exact = covariant_instrument(ws, mm)
    assert np.abs(chois_of(exact) - dense_covariant_chois(ws, mm)).max() <= 1e-15
    assert verify_covariance(ws, exact) == 0.0

    instr, mix = perturbed(ws, rng, kind, 10.0**log_eps)
    want = dense_covariance_defect(ws, mix)
    # 1e-15 absolute: the dense oracle's own rounding floor
    assert abs(verify_covariance(ws, instr) - want) <= 1e-12 * want + 1e-15


# ==================== the exact exit ahead of the pair form ====================


def same_float(a, b):
    """Equal values of the same sign, so that +0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def hybrid(ws2, om2):
    """Outcome 0 of the standard instrument with one Z_2 probe and outcome 1
    of the one with another, as in the instrument and sequential tests."""
    om1 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    i1, i2 = standard_instrument(ws2, om1), standard_instrument(ws2, om2)
    return instrument_of(i1.outcomes, (map_at(i1, 0), map_at(i2, 1)))


def with_entries(ws, instr, changes):
    """A copy of instr with Choi_k[row, col] += delta for each
    ((k, row, col), delta) of changes, checked as a new instrument."""
    c = instr.maps.choi.copy()
    for at, delta in changes:
        c[at] += delta
    return Instrument(ws.group.elements, CpMap(ws.dim, ws.dim, c))


@pytest.fixture
def pair_calls(monkeypatch):
    """The id of the instrument of each call of the pair form behind
    verify_covariance."""
    calls = []
    pair = instruments._pair_defect

    def counted(ws, instr):
        calls.append(id(instr))
        return pair(ws, instr)

    monkeypatch.setattr(instruments, "_pair_defect", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    moduli=SMALL_GROUPS,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(PERTURBATIONS)),
    log_eps=st.floats(-16.0, -1.0),
)
def test_exit_returns_the_pair_form_bitwise(moduli, seed, kind, log_eps):
    ws = WeylSystem(Group(moduli))
    rng = np.random.default_rng(seed)
    exact = covariant_instrument(ws, rand.covariant_measure(rng, ws.group))
    instr, _ = perturbed(ws, rng, kind, 10.0**log_eps)
    for one in (exact, instr):
        assert same_float(verify_covariance(ws, one), instruments._pair_defect(ws, one))


@pytest.mark.parametrize("moduli", LADDER)
def test_closed_forms_never_reach_the_pair_form(moduli, rng, pair_calls):
    ws = WeylSystem(Group(moduli))
    mm = rand.covariant_measure(rng, ws.group)
    instr = covariant_instrument(ws, mm)
    assert same_float(verify_covariance(ws, instr), 0.0)
    assert same_float(run_sequential(ws, mm).covariance_defect, 0.0)
    reconstruct_measure(ws, instr)
    # floats round-trip bit-exactly, so a built instrument's file takes the exit too
    _, loaded = instrument_from_json(codec.loads(codec.dumps(instrument_to_json(ws, instr))))
    assert same_float(verify_covariance(ws, loaded), 0.0)
    assert not pair_calls


def test_the_z2_outcome_swap_is_a_translation_and_takes_the_exit(rng, pair_calls):
    ws = WeylSystem(Group((2,)))
    instr, _ = perturbed(ws, rng, "outcome_swap", 0.3)
    assert same_float(verify_covariance(ws, instr), 0.0)
    assert not pair_calls


@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2), (2, 3), (8,)])
def test_one_entry_off_the_exact_structure_reaches_the_pair_form(moduli, rng, pair_calls):
    ws = WeylSystem(Group(moduli))
    n = ws.dim
    exact = covariant_instrument(ws, rand.covariant_measure(rng, ws.group))
    # Choi_0[(0, 0), (0, 1)] and its mirror: i - a = 0 but j - b = 1
    off = with_entries(ws, exact, [((0, 0, 1), 1e-300), ((0, 1, 0), 1e-300)])
    # 1e-12 of the orbit entry m(0)[0, 0] moved from Choi_1[(1, 1), (1, 1)]
    # to Choi_0[(0, 0), (0, 0)]: the pair (0, 1) differs by 2e-12
    moved = with_entries(ws, exact, [((0, 0, 0), 1e-12), ((1, n + 1, n + 1), -1e-12)])
    for instr in (off, moved):
        assert same_float(verify_covariance(ws, instr), instruments._pair_defect(ws, instr))
    assert pair_calls == [id(off), id(off), id(moved), id(moved)]
    assert abs(verify_covariance(ws, moved) - 2e-12) <= 1e-15
    assert abs(dense_covariance_defect(ws, moved.maps.choi) - 2e-12) <= 1e-15


@pytest.mark.parametrize("om2, gated", [
    (np.array([[0.7, -0.1], [-0.1, 0.3]]), True),
    (np.array([[0.7, 0.1 + 1e-8], [0.1 + 1e-8, 0.3]]), False),
])
def test_hybrid_instruments_reach_the_pair_form(ws2, om2, gated, pair_calls):
    instr = hybrid(ws2, om2)
    mm = CovariantMeasure.point_mass(ws2, (0,), np.array([[0.7, 0.1], [0.1, 0.3]]))
    if gated:
        with pytest.raises(NotCovariantError):
            joint_observable(ws2, instr, mm)
    else:
        assert joint_observable(ws2, instr, mm)[1] > 1e-9
    assert pair_calls == [id(instr)]


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
@pytest.mark.parametrize("moduli", ORDER_LE_8)
def test_perturbed_instruments_reach_the_pair_form(moduli, kind, rng, pair_calls):
    ws = WeylSystem(Group(moduli))
    instr, _ = perturbed(ws, rng, kind, 1e-3)
    defect = verify_covariance(ws, instr)
    if kind == "outcome_swap" and ws.dim == 2:
        assert not pair_calls  # a translation, see the test above
    else:
        assert pair_calls == [id(instr)]
        assert defect > 1e-5


def test_negative_zeros_off_the_support_give_the_pair_forms_sign(rng):
    ws = WeylSystem(Group((2, 3)))
    n = ws.dim
    exact = covariant_instrument(ws, rand.covariant_measure(rng, ws.group))
    y = ws.group.sub_table.T.reshape(-1)  # i - a of the row or column (a, i)
    c = exact.maps.choi.copy()
    c[:, y[:, None] != y] = complex(-0.0, -0.0)
    instr = Instrument(ws.group.elements, CpMap(n, n, c))
    assert np.signbit(instr.maps.choi.real).any() and np.signbit(instr.maps.choi.imag).any()
    got = verify_covariance(ws, instr)
    assert same_float(got, instruments._pair_defect(ws, instr))
    assert same_float(got, 0.0)


# ==================== Weyl operators as gathers ====================


def check_gathers(ws, rng):
    """Every gather against its dense oracle on one random measure and state."""
    n = ws.dim
    assert weyl_relation_residual(ws) == dense_weyl_relation_residual(ws)

    s = rand.state(rng, n)
    povm = cpso_from_state(ws, s)
    assert np.abs(povm.effects - dense_cpso_effects(ws, s)).max() <= 1e-15
    assert verify_cpso_covariance(ws, povm) < 1e-12
    # a non-covariant POVM: two effects trade places
    swapped = povm.effects.copy()
    swapped[[0, n + 1]] = swapped[[n + 1, 0]]
    broken = Povm(povm.outcomes, swapped)
    want = dense_cpso_covariance(ws, swapped)
    assert want > 1e-3
    assert abs(verify_cpso_covariance(ws, broken) - want) <= 1e-12 * want

    mm = rand.covariant_measure(rng, ws.group)
    total = translated_total_density(ws, mm)
    assert np.abs(total - dense_translated_total_density(ws, mm.m)).max() <= 1e-15

    instr = covariant_instrument(ws, mm)
    back = reconstruct_measure(ws, instr).m
    assert np.abs(back - dense_reconstruct_measure(ws, chois_of(instr))).max() <= 1e-15
    assert np.abs(back - mm.m).max() <= 1e-15

    t = rand.complex_matrix(rng, n)
    f1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert reconstruction_residual(ws, t, f1, f2) < 1e-12
    assert dense_reconstruction_residual(ws, t, f1, f2) < 1e-12


@pytest.mark.parametrize("moduli", LADDER)
def test_gathers_match_dense_oracles(moduli, rng):
    check_gathers(WeylSystem(Group(moduli)), rng)


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
@pytest.mark.parametrize("moduli", [(2,), (2, 3), (8,), (3, 3)])
def test_reconstruction_is_the_dense_projection_off_covariance(moduli, kind, rng):
    ws = WeylSystem(Group(moduli))
    for eps in (1e-9, 1e-8, 1e-7):
        instr, mix = perturbed(ws, rng, kind, eps)
        got = reconstruct_measure(ws, instr).m
        assert np.abs(got - dense_reconstruct_measure(ws, mix)).max() <= 1e-15


def gated_then_gathered(ws, instr):
    """`reconstruct_measure`'s densities as two passes compute them: the
    covariance gate, then a second orbit gather for the mean."""
    instruments.require_covariant(ws, instr)
    mstack = instruments._orbits(ws, instr).sum(axis=0) / ws.dim
    return (mstack + mstack.conj().transpose(0, 2, 1)) / 2


@pytest.mark.parametrize("moduli", LADDER)
def test_reconstruction_reuses_the_gates_gather_bitwise(moduli, rng):
    ws = WeylSystem(Group(moduli))
    closed = covariant_instrument(ws, rand.covariant_measure(rng, ws.group))
    swapped, _ = perturbed(ws, rng, "outcome_swap", 1e-8)  # within the gate, off the exit
    for instr in (closed, swapped):
        want = gated_then_gathered(ws, instr)
        assert reconstruct_measure(ws, instr).m.view(np.uint64).tolist() == \
            want.view(np.uint64).tolist()
    if ws.dim > 2:  # order 2: the swap is a translation
        far, _ = perturbed(ws, rng, "outcome_swap", 0.3)
        with pytest.raises(NotCovariantError):
            reconstruct_measure(ws, far)


@settings(max_examples=25, deadline=None)
@given(moduli=GROUPS_UP_TO_12, seed=st.integers(0, 2**32 - 1))
def test_gathers_property(moduli, seed):
    check_gathers(WeylSystem(Group(moduli)), np.random.default_rng(seed))


def test_computations_never_build_the_dense_stacks(rng):
    ws = WeylSystem(Group((2, 3)))
    mm = rand.covariant_measure(rng, ws.group)
    s = rand.state(rng, ws.dim)
    run_sequential(ws, mm)
    verify_cpso_covariance(ws, cpso_from_state(ws, s))
    reconstruct_measure(ws, covariant_instrument(ws, mm))
    t = rand.complex_matrix(rng, ws.dim)
    reconstruction_residual(ws, t, s[0], s[1])
    weyl_relation_residual(ws)
    assert "translations" not in ws.__dict__
    assert "modulations" not in ws.__dict__


# ==================== the measure as the working form ====================


def check_measure_native(ws, rng):
    """The joint read off the measure against the dense route through the
    Choi stack, and each Choi spectrum against the densities' spectra."""
    mm = rand.covariant_measure(rng, ws.group)
    instr = covariant_instrument(ws, mm)
    dense = dense_joint_effects(ws, instr)
    assert np.abs(run_sequential(ws, mm).joint.effects - dense).max() <= 1e-15
    union = np.sort(np.linalg.eigvalsh(mm.hermitian).reshape(-1))
    for choi in instr.maps.choi:
        assert np.abs(np.linalg.eigvalsh(choi) - union).max() <= 1e-14


@pytest.mark.parametrize("moduli", LADDER)
def test_measure_native_joint_and_spectra_match_the_dense_route(moduli, rng):
    check_measure_native(WeylSystem(Group(moduli)), rng)


@settings(max_examples=25, deadline=None)
@given(moduli=GROUPS_UP_TO_12, seed=st.integers(0, 2**32 - 1))
def test_measure_native_property(moduli, seed):
    check_measure_native(WeylSystem(Group(moduli)), np.random.default_rng(seed))


def unchecked_measure(group, m):
    """A CovariantMeasure that skipped its own checks, as a caller could build it."""
    mm = object.__new__(CovariantMeasure)
    mm.group, mm.m = group, m
    return mm


def dense_instrument_error(ws, mm):
    """The message of the full CpMap and Instrument checks on the dense stack."""
    n = ws.dim
    with pytest.raises(InvalidInstrumentError) as exc:
        Instrument(ws.group.elements, CpMap(n, n, dense_covariant_chois(ws, mm)))
    return str(exc.value)


def below_floor(rng, group):
    """Density 1 gets the eigenvalue -1e-6, far below is_psd's floor."""
    m = rand.covariant_measure(rng, group).m.copy()
    w, q = np.linalg.eigh(m[1])
    w[0] = -1e-6
    m[1] = (q * w) @ q.conj().T
    return m


def excess_trace(rng, group):
    """0.8 |e_y><e_y| at y = 0 and 1: map k takes |e_k><e_k| to trace 1.6,
    and the reduced maps' diagonals, sums along i - a = y, tell i - a
    from a - i on groups with elements of order > 2."""
    m = np.zeros((group.order,) * 3, dtype=complex)
    m[0, 0, 0] = m[1, 1, 1] = 0.8
    return m


def total_trace_off(rng, group):
    """Trace 1 - 1e-6: each map is fine, their sum is not a channel."""
    return rand.covariant_measure(rng, group).m * (1 - 1e-6)


@pytest.mark.parametrize("make, message", [
    (below_floor, "not positive semidefinite"),
    (excess_trace, "map increases trace"),
    (total_trace_off, "not trace preserving"),
])
@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2)])
def test_checks_from_the_measure_raise_as_the_dense_checks(moduli, make, message, rng):
    ws = WeylSystem(Group(moduli))
    mm = unchecked_measure(ws.group, make(rng, ws.group))
    with pytest.raises(InvalidInstrumentError) as exc:
        covariant_instrument(ws, mm)
    assert message in str(exc.value)
    assert str(exc.value) == dense_instrument_error(ws, mm)


def test_density_just_above_the_floor_is_accepted(rng):
    ws = WeylSystem(Group((2, 2)))
    m = rand.covariant_measure(rng, ws.group).m.copy()
    w, q = np.linalg.eigh(m[1])
    w[-1] += w[0] + 1e-11  # same trace
    w[0] = -1e-11  # the floor is -1e-9 (1 + max|m|)
    m[1] = (q * w) @ q.conj().T
    mm = unchecked_measure(ws.group, m)
    instr = covariant_instrument(ws, mm)
    n = ws.dim
    Instrument(ws.group.elements, CpMap(n, n, chois_of(instr)))


def test_total_trace_check_is_kept_for_a_valid_measure():
    # 5e-10 passes the measure's own |trace - 1| <= 1e-9, but the total
    # map's Frobenius defect is sqrt(16) * 5e-10 = 2e-9 > 1e-9
    ws = WeylSystem(Group((16,)))
    base = rand.covariant_measure(np.random.default_rng(5), ws.group).m
    mm = CovariantMeasure(ws.group, base / np.trace(base.sum(axis=0)).real * (1 + 5e-10))
    with pytest.raises(InvalidInstrumentError, match="not trace preserving"):
        covariant_instrument(ws, mm)


def eigensolves(monkeypatch):
    """The order of each matrix (stack) that numpy's eigensolvers and SVD
    are asked for from now on, one entry per call."""
    sizes = []
    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
        def spy(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return sizes


def test_run_sequential_eigensolves_no_matrix_larger_than_n(rng, monkeypatch):
    ws = WeylSystem(Group((2, 3)))
    mm = rand.covariant_measure(rng, ws.group)
    sizes = eigensolves(monkeypatch)
    run_sequential(ws, mm)
    assert sizes and max(sizes) == ws.dim


def test_run_sequential_makes_as_many_eigensolves_at_every_order(monkeypatch):
    # each stack of densities or effects is checked by one batched call, so
    # the count cannot grow with n as a loop over effects would make it
    counts = []
    for n in (2, 8):
        ws = WeylSystem(Group((n,)))
        mm = rand.covariant_measure(np.random.default_rng(n), ws.group)
        sizes = eigensolves(monkeypatch)
        run_sequential(ws, mm)
        counts.append(len(sizes))
        monkeypatch.undo()
    assert counts[0] == counts[1]


# ==================== checks of whole stacks ====================


def perturb_middle(stack, kind):
    """The stack with its middle matrix perturbed; the next one takes the
    opposite change, so that sums and traces stay put."""
    t = stack.copy()
    k = len(t) // 2
    w, q = np.linalg.eigh(t[k])
    if kind == "zero":
        delta = -t[k]
    elif kind == "non_hermitian":
        delta = np.zeros_like(t[k])
        delta[0, 1] = 1e-3
    else:
        lowest = {"below_floor": -1e-6, "above_floor": -1e-11}[kind]
        delta = (lowest - w[0]) * np.outer(q[:, 0], q[:, 0].conj())
    t[k] += delta
    t[k + 1] -= delta
    return t, k


@pytest.mark.parametrize("kind", ["below_floor", "above_floor", "non_hermitian", "zero"])
def test_stack_checks_treat_each_matrix_as_alone(kind, rng):
    ws = WeylSystem(Group((5,)))
    n = ws.dim
    dens = rand.covariant_measure(rng, ws.group).m
    w, q = np.linalg.eigh(dens.sum(axis=0))
    root = (q / np.sqrt(w)) @ q.conj().T
    effects = root @ dens @ root  # a POVM; effects / n is a measure
    cases = [
        (effects, lambda t: Povm(ws.group.elements, t),
         "effect {k} is not positive semidefinite", "matrix is not Hermitian"),
        (effects / n, lambda t: CovariantMeasure(ws.group, t),
         "density at outcome {k} is not positive semidefinite",
         "density {k}: matrix is not Hermitian"),
    ]
    for base, build, not_psd, not_hermitian in cases:
        t, k = perturb_middle(base, kind)
        try:
            alone = [is_psd(m) for m in t]
        except HermiticityError as exc:
            with pytest.raises(HermiticityError) as whole:
                is_psd(t)
            assert str(whole.value) == str(exc) and whole.value.index == k
            with pytest.raises(ValueError, match=f"^{not_hermitian.format(k=k)}: defect 1.000e-03 > "):
                build(t)
            continue
        assert is_psd(t).tolist() == alone
        assert alone.count(False) == (kind == "below_floor")
        if kind == "below_floor":
            with pytest.raises(ValueError) as exc:
                build(t)
            assert str(exc.value) == not_psd.format(k=k)
        else:
            build(t)


# ==================== one Choi stack per instrument ====================


def one_defect(stack, k, kind):
    """The Choi stack with map k given one defect of the given kind."""
    t = stack.copy()
    if kind in ("below_floor", "above_floor"):
        w, q = np.linalg.eigh(t[k])
        lowest = {"below_floor": -1e-6, "above_floor": -1e-11}[kind]
        t[k] += (lowest - w[0]) * np.outer(q[:, 0], q[:, 0].conj())
    elif kind == "trace_excess":
        n = math.isqrt(t.shape[-1])
        red = np.einsum("aiaj->ij", t[k].reshape(n, n, n, n))
        t[k] *= 1.5 / np.linalg.eigvalsh(red).max()
    else:  # the total map loses trace 1e-6 times map k's reduced map
        t[k] *= 1 - 1e-6
    return t


@settings(max_examples=40, deadline=None)
@given(
    moduli=GROUPS_UP_TO_12.filter(lambda m: math.prod(m) <= 8),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(["first", "middle", "last"]),
    kind=st.sampled_from(["below_floor", "above_floor", "trace_excess", "total_trace"]),
)
def test_stack_checks_decide_as_the_per_map_checks(moduli, seed, where, kind):
    group = Group(moduli)
    n = group.order
    k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    stack = one_defect(random_instrument_chois(np.random.default_rng(seed), n), k, kind)
    want = dense_instrument_failure(stack, n, n)
    assert (want is None) == (kind == "above_floor")
    if want is None:
        Instrument(group.elements, CpMap(n, n, stack))
        return
    with pytest.raises(InvalidInstrumentError) as exc:
        Instrument(group.elements, CpMap(n, n, stack))
    assert str(exc.value) == want


@pytest.mark.parametrize("moduli", [(2,), (3,), (2, 2), (2, 3)])
def test_stack_apply_matches_each_map(moduli, rng):
    ws = WeylSystem(Group(moduli))
    n = ws.dim
    instr = Instrument(ws.group.elements, CpMap(n, n, random_instrument_chois(rng, n)))
    t = rand.complex_matrix(rng, n)
    out, dual = instr.maps.apply(t), dual_apply(instr.maps, t)
    assert out.shape == dual.shape == (n, n, n)
    for k, phi in enumerate(maps_of(instr)):
        assert np.abs(out[k] - phi.apply(t)).max() <= 1e-15
        assert np.abs(dual[k] - dual_apply(phi, t)).max() <= 1e-15


@pytest.mark.parametrize("moduli", [(2,), (2, 3), (8,)])
def test_covariant_instrument_is_one_contiguous_stack(moduli, rng):
    ws = WeylSystem(Group(moduli))
    n = ws.dim
    choi = covariant_instrument(ws, rand.covariant_measure(rng, ws.group)).maps.choi
    assert choi.shape == (n, n * n, n * n)
    assert choi.flags.c_contiguous
