"""Dense reference implementations that the fast paths are tested against.

These are the literal constructions: the covariant instrument as a sum of
translated pointer instruments, each obtained by coupling to the probe
through L and reading the probe out, and the covariance defect by
conjugating every Choi matrix with W (x) conj(W) for every phase-space
point W = U_x V_chi. Both cost O(n^9) and are meant for small groups.
The rest multiply the dense U and V stacks where the package gathers:
the Weyl relation, phase-space observables and their covariance, M'(G),
the expansion identity and the measure reconstruction by Weyl probes.

The group arithmetic one element at a time is the reference for the
package's index and character tables, which it computes on whole arrays
of element coordinates. The measurement model is here too, since the
package computes only its closed forms: the coupling L, partial traces, CP maps from and
to Kraus operators and their composition, instruments run one after the
other, Weyl operators of phase-space points and sharp projections.
"""

import math
from dataclasses import dataclass

import numpy as np

from weylseq import (CovariantMeasure, CpMap, DimensionError, Group, GroupError, Instrument,
                     Povm, WeylSystem)

KRAUS_CUTOFF = 1e-12  # relative Choi eigenvalue cutoff of kraus_operators


# ==================== the measurement model ====================


def coupling_unitary(ws: WeylSystem) -> np.ndarray:
    """Permutation L with L(e_a (x) e_b) = e_a (x) e_{a+b}.

    It intertwines the Weyl pairs as
        L (U_x (x) U_y) = (U_x (x) U_{x+y}) L,
        L (V_chi (x) V_gamma) = (V_{chi - gamma} (x) V_gamma) L.
    """
    n = ws.dim
    add = ws.group.add_table
    out = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            out[a * n + add[a, b], a * n + b] = 1.0
    return out


def _check_product_shape(t: np.ndarray, dim1: int, dim2: int) -> None:
    if t.shape != (dim1 * dim2, dim1 * dim2):
        raise DimensionError(
            f"matrix shape {t.shape} does not factor as ({dim1}*{dim2})^2"
        )


def partial_trace_second(t: np.ndarray, dim1: int, dim2: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dim1*dim2)-square matrix,
    in np.kron's index convention (i1, i2) -> i1 * dim2 + i2."""
    t = np.asarray(t)
    _check_product_shape(t, dim1, dim2)
    return np.einsum("ikjk->ij", t.reshape(dim1, dim2, dim1, dim2))


def partial_trace_first(t: np.ndarray, dim1: int, dim2: int) -> np.ndarray:
    """Trace out the first tensor factor of a (dim1*dim2)-square matrix."""
    t = np.asarray(t)
    _check_product_shape(t, dim1, dim2)
    return np.einsum("kikj->ij", t.reshape(dim1, dim2, dim1, dim2))


def trace_norm(t: np.ndarray) -> float:
    """Sum of singular values, computed from the eigenvalues of t^dag t
    with negative round-off clipped to zero."""
    t = np.asarray(t, dtype=complex)
    w = np.linalg.eigvalsh(t.conj().T @ t)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def from_kraus(kraus) -> CpMap:
    """CP map with Kraus operators `kraus`: choi = sum vec(K) vec(K)^dag."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d_out, d_in = ks[0].shape
    vecs = np.array([k.reshape(-1) for k in ks])
    return CpMap(d_in, d_out, np.einsum("ka,kb->ab", vecs, vecs.conj()))


def identity_map(dim: int) -> CpMap:
    return from_kraus([np.eye(dim)])


def kraus_operators(phi: CpMap) -> list:
    """Kraus operators of phi from its Choi eigendecomposition."""
    w, q = np.linalg.eigh((phi.choi + phi.choi.conj().T) / 2)
    top = w.max(initial=0.0)
    return [np.sqrt(val) * vec.reshape(phi.dim_out, phi.dim_in)
            for val, vec in zip(w, q.T) if val > KRAUS_CUTOFF * max(top, 1.0)]


def compose_maps(second: CpMap, first: CpMap) -> CpMap:
    """second after first, as a Choi matrix."""
    def choi4(phi):
        return phi.choi.reshape(phi.dim_out, phi.dim_in, phi.dim_out, phi.dim_in)

    c = np.einsum("xayb,aibj->xiyj", choi4(second), choi4(first), optimize=True)
    d = second.dim_out * first.dim_in
    return CpMap(first.dim_in, second.dim_out, c.reshape(d, d))


def dual_apply(phi: CpMap, a: np.ndarray) -> np.ndarray:
    """Heisenberg dual of phi, or of each map of a stack:
    tr[Phi(t) a] = tr[t Phi^*(a)] for all t."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (phi.dim_out, phi.dim_out):
        raise DimensionError(
            f"input shape {a.shape}, expected ({phi.dim_out}, {phi.dim_out})"
        )
    choi4 = phi.choi.reshape(phi.choi.shape[:-2] + (phi.dim_out, phi.dim_in) * 2)
    return np.einsum("...aibj,ba->...ji", choi4, a)


def map_at(instr: Instrument, k: int) -> CpMap:
    """The map of outcome k alone, checked as a CpMap of its own."""
    return CpMap(instr.dim_in, instr.dim_out, instr.maps.choi[k])


def maps_of(instr: Instrument) -> list:
    """Every map of an instrument, one CpMap each, in outcome order."""
    return [map_at(instr, k) for k in range(len(instr))]


def instrument_of(outcomes, maps) -> Instrument:
    """The instrument whose outcome k has the separate CpMap maps[k]."""
    first = maps[0]
    return Instrument(outcomes, CpMap(first.dim_in, first.dim_out,
                                      np.array([m.choi for m in maps])))


def associated_observable(instr: Instrument) -> Povm:
    """POVM recording only the outcome statistics of an instrument."""
    eye = np.eye(instr.dim_out)
    return Povm(instr.outcomes, np.array([dual_apply(m, eye) for m in maps_of(instr)]))


def compose_sequential(first: Instrument, second: Instrument) -> Instrument:
    """Run `first`, then `second` on the output. Outcomes are pairs,
    first-outcome major."""
    outcomes = tuple((a, b) for a in first.outcomes for b in second.outcomes)
    maps = [compose_maps(s, f) for f in maps_of(first) for s in maps_of(second)]
    return instrument_of(outcomes, maps)


def dense_instrument_failure(chois: np.ndarray, dim_in: int, dim_out: int) -> str | None:
    """The message of the first check that the instrument with Choi stack
    `chois` fails, None if it passes, from the literal checks one map at a
    time: finite entries, the full spectrum of the Hermitian part against
    -1e-9 (1 + max|entry|), the spectrum of the reduced map tr_out Choi_k
    against 1 + 1e-9; then the total map's Frobenius distance from the
    identity channel's reduced map, against 1e-9. Input maps are taken to
    be Hermitian."""
    total = np.zeros((dim_in, dim_in), dtype=complex)
    for c in chois:
        if not np.all(np.isfinite(c)):
            return "Choi matrix has non-finite entries"
        if np.linalg.eigvalsh((c + c.conj().T) / 2).min() < -1e-9 * (1 + np.abs(c).max()):
            return "Choi matrix is not positive semidefinite (map not CP)"
        red = partial_trace_first(c, dim_out, dim_in)
        excess = np.linalg.eigvalsh((red + red.conj().T) / 2).max() - 1.0
        if excess > 1e-9:
            return f"map increases trace: max eigenvalue excess {excess:.3e}"
        total += red
    defect = float(np.linalg.norm(total - np.eye(dim_in)))
    if defect > 1e-9:
        return f"total map is not trace preserving: defect {defect:.3e}"
    return None


# ==================== group arithmetic on element tuples ====================


def coerce(group: Group, x) -> tuple:
    """The element x as a tuple of residues reduced mod the moduli."""
    t = tuple(int(v) for v in x)
    if len(t) != group.rank:
        raise GroupError(f"element {t} has wrong rank for moduli {group.moduli}")
    return tuple(v % d for v, d in zip(t, group.moduli))


def index(group: Group, x) -> int:
    """Position of x in the enumeration, by search."""
    return group.elements.index(coerce(group, x))


def add(group: Group, a, b) -> tuple:
    a, b = coerce(group, a), coerce(group, b)
    return tuple((u + v) % d for u, v, d in zip(a, b, group.moduli))


def neg(group: Group, a) -> tuple:
    return tuple((-u) % d for u, d in zip(coerce(group, a), group.moduli))


def sub(group: Group, a, b) -> tuple:
    return add(group, a, neg(group, b))


def pairing(group: Group, chi, x) -> complex:
    """chi(x), computed with exact integer phase reduction."""
    chi, x = coerce(group, chi), coerce(group, x)
    big = math.lcm(*group.moduli)
    k = sum(c * v * (big // d) for c, v, d in zip(chi, x, group.moduli)) % big
    return complex(np.exp(2j * np.pi * k / big))


# ==================== Weyl operators of phase-space points ====================


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, chi, u) of the finite Weyl-Heisenberg group."""

    x: tuple
    chi: tuple
    u: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        object.__setattr__(self, "chi", tuple(int(v) for v in self.chi))
        u = complex(self.u)
        if abs(abs(u) - 1.0) > 1e-12:
            raise ValueError(f"phase u must be unimodular, got |u| = {abs(u)}")
        object.__setattr__(self, "u", u)


def phase_point_product(group: Group, p: PhasePoint, q: PhasePoint) -> PhasePoint:
    """Group law (x, chi, u)(y, gamma, v) = (x+y, chi*gamma, conj(chi(y)) u v)."""
    x = add(group, p.x, q.x)
    chi = add(group, p.chi, q.chi)
    u = np.conj(pairing(group, p.chi, q.x)) * p.u * q.u
    return PhasePoint(x, chi, u)


def translation(ws: WeylSystem, x) -> np.ndarray:
    return ws.translations[ws.group.index(x)]


def modulation(ws: WeylSystem, chi) -> np.ndarray:
    return ws.modulations[ws.group.index(chi)]


def weyl_op(ws: WeylSystem, p: PhasePoint) -> np.ndarray:
    """W(x, chi, u) = conj(u) * U_x V_chi."""
    return np.conj(p.u) * (translation(ws, p.x) @ modulation(ws, p.chi))


def sharp_position(ws: WeylSystem, subset) -> np.ndarray:
    """Projection A(X) = sum_{x in X} |e_x><e_x|."""
    out = np.zeros((ws.dim, ws.dim), dtype=complex)
    for x in subset:
        i = ws.group.index(x)
        out[i, i] = 1.0
    return out


def sharp_momentum(ws: WeylSystem, subset) -> np.ndarray:
    """Projection B(Y) = F^dag A(Y) F, the momentum observable."""
    out = np.zeros((ws.dim, ws.dim), dtype=complex)
    for chi in subset:
        out += ws.momentum_effects[ws.group.index(chi)]
    return out


# ==================== dense routes to the closed forms ====================


def pointer_chois(ws: WeylSystem, probe: np.ndarray) -> np.ndarray:
    """Choi stack of rho -> tr_2[(1 (x) A({k})) L (rho (x) probe) L^dag].

    Linear in `probe`, which may be any matrix, not only a state. Returns
    shape (n, n^2, n^2), one Choi matrix per pointer outcome k.
    """
    n = ws.dim
    lr = coupling_unitary(ws).reshape(n, n, n, n).astype(complex)
    # Phi_k(E_ij)[a, b] = sum_{c,e} L[(a,k),(i,c)] probe[c,e] conj(L[(b,k),(j,e)])
    chois = np.einsum("akic,ce,bkje->kaibj", lr, probe, lr.conj(), optimize=True)
    return chois.reshape(n, n * n, n * n)


def dense_covariant_chois(ws: WeylSystem, mm: CovariantMeasure) -> np.ndarray:
    """I_k = sum_y U_y^dag Phi^{M'(y)}_k U_y with M'(y) = U_y^dag m(y) U_y,
    one rotated pointer instrument per point y; shape (n, n^2, n^2)."""
    n = ws.dim
    eye = np.eye(n)
    total = np.zeros((n, n * n, n * n), dtype=complex)
    for y in range(n):
        if float(np.abs(mm.m[y]).max()) == 0.0:
            continue
        uy = ws.translations[y]
        mprime = uy.conj().T @ mm.m[y] @ uy
        rot = np.kron(uy.conj().T, eye)
        total += rot @ pointer_chois(ws, mprime) @ rot.conj().T
    return (total + total.conj().transpose(0, 2, 1)) / 2


def dense_covariance_defect(ws: WeylSystem, chois: np.ndarray) -> float:
    """max_{k,x,chi,(i,j)} || I_{k+x}(E_ij) - W I_k(W^dag E_ij W) W^dag ||_F
    by conjugating the Choi stack with W (x) conj(W), W = U_x V_chi."""
    n = ws.dim
    add = ws.group.add_table
    res = 0.0
    for i in range(n):
        for j in range(n):
            w = ws.translations[i] @ ws.modulations[j]
            ww = np.kron(w, w.conj())
            moved = np.einsum("ab,kbc,dc->kad", ww, chois, ww.conj(), optimize=True)
            d4 = (chois[add[i]] - moved).reshape(n, n, n, n, n)  # [k, a, i, b, j]
            res = max(res, float(np.sqrt((np.abs(d4) ** 2).sum(axis=(1, 3))).max()))
    return res


def dense_joint_effects(ws: WeylSystem, instr) -> np.ndarray:
    """effect(x, chi) = I_x^*(B({chi})), one dual map call per outcome pair."""
    n = ws.dim
    maps = maps_of(instr)
    return np.array([
        dual_apply(maps[x], ws.momentum_effects[c])
        for x in range(n) for c in range(n)
    ])


def dense_weyl_relation_residual(ws: WeylSystem) -> float:
    """max over all (x, chi) of || U_x V_chi - conj(chi(x)) V_chi U_x ||_max."""
    res = 0.0
    table = ws.group.character_table
    for i in range(ws.dim):
        for j in range(ws.dim):
            lhs = ws.translations[i] @ ws.modulations[j]
            rhs = np.conj(table[j, i]) * ws.modulations[j] @ ws.translations[i]
            res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def dense_cpso_effects(ws: WeylSystem, s: np.ndarray) -> np.ndarray:
    """effect(x, chi) = (1/n) W s W^dag with W = U_x V_chi, x-major."""
    n = ws.dim
    effects = np.empty((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            w = ws.translations[i] @ ws.modulations[j]
            effects[i * n + j] = w @ s @ w.conj().T / n
    return effects


def dense_cpso_covariance(ws: WeylSystem, effects: np.ndarray) -> float:
    """max || effect(x+y, chi+gamma) - W_{x,chi} effect(y, gamma) W_{x,chi}^dag ||_F."""
    n = ws.dim
    e = effects.reshape(n, n, n, n)
    add = ws.group.add_table
    res = 0.0
    for i in range(n):
        for j in range(n):
            w = ws.translations[i] @ ws.modulations[j]
            moved = np.einsum("ab,ygbd,cd->ygac", w, e, w.conj(), optimize=True)
            diff = e[np.ix_(add[i], add[j])] - moved
            res = max(res, float(np.sqrt((np.abs(diff) ** 2).sum(axis=(2, 3))).max()))
    return res


def dense_translated_total_density(ws: WeylSystem, m: np.ndarray) -> np.ndarray:
    """M'(G) = sum_x U_x^dag m(x) U_x."""
    u = ws.translations
    return np.einsum("xba,xbc,xcd->ad", u.conj(), m, u, optimize=True)


def dense_reconstruct_measure(ws: WeylSystem, chois: np.ndarray) -> np.ndarray:
    """The measure stack of a covariant instrument from its action alone:
    probe every outcome map with T_{y,beta} = U_y V_beta^dag, isolate the
    Fourier coefficients of the translated densities M'(x) through

        n * tr[V_gamma U_y FM'(chi)]
            = sum_x gamma(x) tr[V_chi U_y^dag I_x(U_y V_{chi+gamma}^dag)],

    reassemble FM'(chi) over the orthogonal basis {V_gamma U_y} and invert
    back to m(x) = U_x M'(x) U_x^dag, Hermitian part. O(n^7)."""
    n = ws.dim
    u, v = ws.translations, ws.modulations
    table = ws.group.character_table
    add = ws.group.add_table
    c5 = chois.reshape((n,) * 5)
    probes = np.einsum("yab,tcb->ytac", u, v.conj(), optimize=True)
    pushed = np.einsum("xaibj,ytij->xytab", c5, probes, optimize=True)
    udag = u.conj().transpose(0, 2, 1)
    vdag = v.conj().transpose(0, 2, 1)
    basis_dag = np.einsum("yab,gbc->ygac", udag, vdag, optimize=True)
    fm_prime = np.empty((n, n, n), dtype=complex)
    for c in range(n):
        sel = pushed[:, :, add[c]]  # [x, y, g, a, b] with beta = c + g
        summed = np.einsum("gx,xygab->ygab", table, sel, optimize=True)
        front = np.einsum("ab,ybc->yac", v[c], udag, optimize=True)
        coeff = np.einsum("yac,ygca->yg", front, summed, optimize=True) / n
        fm_prime[c] = np.einsum("yg,ygab->ab", coeff, basis_dag, optimize=True) / n
    mprime = np.einsum("cx,cab->xab", table, fm_prime, optimize=True) / n
    mstack = np.einsum("xab,xbc,xdc->xad", u, mprime, u.conj(), optimize=True)
    return (mstack + mstack.conj().transpose(0, 2, 1)) / 2


def dense_reconstruction_residual(ws: WeylSystem, t, f1, f2) -> float:
    """| sum_{x,chi} tr[V_chi U_x T] <U_x^dag V_chi^dag f1, f2> - n <T f1, f2> |."""
    n = ws.dim
    acc = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            d = ws.modulations[j] @ ws.translations[i]
            coeff = np.einsum("ab,ba->", d, t)
            acc += coeff * (f2.conj() @ (d.conj().T @ f1))
    return float(abs(acc - n * (f2.conj() @ (t @ f1))))
