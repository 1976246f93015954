"""Quantum instruments covariant under phase-space translations.

Completely positive maps are stored in Choi form with the output factor
first:

    choi = sum_{ij} Phi(E_ij) (x) E_ij,

so choi.reshape(n_out, n_in, n_out, n_in)[a, i, b, j] = Phi(E_ij)[a, b].

The measurement model behind everything here couples the system to a
probe through the unitary

    L (e_a (x) e_b) = e_a (x) e_{a+b}

and reads the probe out sharply in position. With probe state omega this
gives the standard instrument

    Phi_k(rho) = tr_2[(1 (x) A({k})) L (rho (x) omega) L^dag],

and the general covariant instrument is a sum of translates of standard
ones, parametrized by an operator-valued measure x -> m(x) with m(x) >= 0
and sum_x tr m(x) = 1:

    I_k(rho) = sum_y U_y^dag Phi^{M'(y)}_k(rho) U_y,
    M'(y) = U_y^dag m(y) U_y.

L and the readout are permutations, so summing over y leaves one term
per Choi entry (the literal construction is the test oracle in
`tests/oracles.py`), and `covariant_instrument` fills the stack in O(n^5):

    Choi_k[a, i, b, j] = delta(i - a = j - b) m(i - a)[k - a, k - b].

A translation shifts k with every index; a modulation multiplies an
entry by chi(a - i - b + j), which is 1 on the support i - a = j - b.
So the closed form is exactly covariant, and by Theorem 4.1 it is all the
action fixes. `verify_covariance` tests that exactly in O(n^5); any other
instrument gets the pair form, which compares every pair of outcomes by
character sectors, with one Gram product per sector and one product with
the character table, O(n^6) flops in BLAS and O(n^5) work and memory.

An instrument keeps its n Choi matrices as one (n, n^2, n^2) stack, a
single `CpMap`, and every instrument's trace checks read that stack's
reduced maps sum_a Choi_k[a, i, a, j]. Only the finiteness and complete
positivity of the closed form are checked from m: each Choi_k is a
permutation of blockdiag_y m(y)[k - a, k - b], so its spectrum is the
union of the spectra of the densities and max|Choi_k| = max_y max|m(y)|,
which puts is_psd's floor in the same place: one batched O(n^4)
eigensolve in place of n eigensolves of n^2 x n^2 matrices.

`reconstruct_measure` inverts the closed form: each m(y)[p, q] sits in
n Choi entries, one per outcome k, and their mean is the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import ABS_EPS, is_psd, slack
from .errors import (DimensionError, HermiticityError, InvalidInstrumentError,
                     InvalidMeasureError, NotCovariantError)
from .group import Group
from .observables import ensure_state
from .weyl import WeylSystem

COVARIANCE_GATE = 1e-6
_NOT_CP = "Choi matrix is not positive semidefinite (map not CP)"


def _require_finite(c: np.ndarray) -> None:
    if not np.all(np.isfinite(c)):
        raise InvalidInstrumentError("Choi matrix has non-finite entries")


def _prechecked(**fields) -> CpMap:
    """A CpMap stack whose finiteness and complete positivity the caller
    has checked in an equivalent form; its __post_init__ makes the shape
    and trace checks. The only way to skip the former: every other map,
    those decoded from JSON included, is checked in full."""
    obj = object.__new__(CpMap)
    vars(obj).update(fields)
    obj.__post_init__(prechecked=True)
    return obj


@dataclass
class CpMap:
    """Completely positive, trace-non-increasing map in Choi form, or a
    stack (k, d, d) of them, each checked as it would be alone."""

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self, prechecked: bool = False):
        c = np.asarray(self.choi, dtype=complex)
        want = self.dim_in * self.dim_out
        if c.ndim not in (2, 3) or c.shape[-2:] != (want, want):
            raise DimensionError(
                f"Choi matrix shape {c.shape}, expected ({want}, {want})"
            )
        self.choi = c
        if not prechecked:
            # one map at a time: the peak stays at one map's temporaries
            for one in c.reshape(-1, want, want):
                _require_finite(one)
                if not is_psd(one):
                    raise InvalidInstrumentError(_NOT_CP)
        red = self.reduced
        excess = np.linalg.eigvalsh((red + red.conj().swapaxes(-1, -2)) / 2 - np.eye(self.dim_in))
        if excess.max(initial=0.0) > ABS_EPS:
            raise InvalidInstrumentError(
                f"map increases trace: max eigenvalue excess {excess.max():.3e}")

    @cached_property
    def _choi4(self) -> np.ndarray:
        return self.choi.reshape(self.choi.shape[:-2] + (self.dim_out, self.dim_in) * 2)

    @cached_property
    def reduced(self) -> np.ndarray:
        """sum_a choi[a, i, a, j] of each map, the transpose of Phi^*(1)."""
        return np.einsum("...aiaj->...ij", self._choi4)

    def apply(self, t: np.ndarray) -> np.ndarray:
        """Phi(t) for an arbitrary input matrix t, from each map of a stack."""
        t = np.asarray(t, dtype=complex)
        if t.shape != (self.dim_in, self.dim_in):
            raise DimensionError(
                f"input shape {t.shape}, expected ({self.dim_in}, {self.dim_in})"
            )
        return np.einsum("...aibj,ij->...ab", self._choi4, t)


@dataclass
class Instrument:
    """CP maps labelled by outcomes, summing to a channel: entry k of the
    CpMap stack `maps` is the map of outcome k."""

    outcomes: tuple
    maps: CpMap

    def __post_init__(self):
        self.outcomes = tuple(self.outcomes)
        shape = self.maps.choi.shape
        if len(shape) != 3 or shape[0] != len(self.outcomes):
            raise DimensionError(f"{len(self.outcomes)} outcomes but a Choi stack {shape}")
        if not self.outcomes:
            raise InvalidInstrumentError("instrument needs at least one outcome")
        # the total dual map of 1, transposed, against 1
        defect = float(np.linalg.norm(self.maps.reduced.sum(axis=0) - np.eye(self.dim_in)))
        if defect > ABS_EPS:
            raise InvalidInstrumentError(f"total map is not trace preserving: defect {defect:.3e}")

    @property
    def dim_in(self) -> int:
        return self.maps.dim_in

    @property
    def dim_out(self) -> int:
        return self.maps.dim_out

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass
class CovariantMeasure:
    """Operator-valued measure on G: densities m(x) >= 0, sum_x tr m(x) = 1."""

    group: Group
    m: np.ndarray  # (n, n, n)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        n = self.group.order
        if m.shape != (n, n, n):
            raise InvalidMeasureError(
                f"measure stack has shape {m.shape}, expected ({n}, {n}, {n})"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidMeasureError("measure has non-finite entries")
        try:
            ok = is_psd(m)
        except HermiticityError as exc:
            raise InvalidMeasureError(f"density {exc.index}: {exc}") from exc
        if not ok.all():
            raise InvalidMeasureError(
                f"density at outcome {np.argmin(ok)} is not positive semidefinite"
            )
        total = float(np.trace(m.sum(axis=0)).real)
        if abs(total - 1.0) > ABS_EPS:
            raise InvalidMeasureError(
                f"measure not normalized: total trace {total!r}"
            )
        self.m = m

    @cached_property
    def hermitian(self) -> np.ndarray:
        """Hermitian parts of the densities, the form every closed form reads."""
        return (self.m + self.m.conj().transpose(0, 2, 1)) / 2

    @classmethod
    def point_mass(cls, ws: WeylSystem, x, omega: np.ndarray) -> "CovariantMeasure":
        """The measure delta_x (x) omega concentrated at a single outcome."""
        n = ws.dim
        m = np.zeros((n, n, n), dtype=complex)
        m[ws.group.index(x)] = omega
        return cls(ws.group, m)


# ==================== construction ====================


def standard_instrument(ws: WeylSystem, omega: np.ndarray) -> Instrument:
    """Instrument of the position measurement model with probe state omega:
    the covariant instrument of the point mass at zero, since M'(0) = omega."""
    omega = ensure_state(ws.require_dim(omega, "probe state"))
    return covariant_instrument(
        ws, CovariantMeasure.point_mass(ws, ws.group.zero(), omega)
    )


def covariant_instrument(ws: WeylSystem, mm: CovariantMeasure) -> Instrument:
    """Covariant instrument generated by an operator-valued measure.

    I_k(rho) = sum_y U_y^dag Phi^{M'(y)}_k(rho) U_y with
    M'(y) = U_y^dag m(y) U_y, in the closed form of the module docstring
    with the Hermitian parts of the densities, whose spectra carry the
    finiteness and positivity checks of the maps.
    """
    if mm.group != ws.group:
        raise InvalidMeasureError("measure group does not match the Weyl system")
    n = ws.dim
    add, sub = ws.group.add_table, ws.group.sub_table
    herm = mm.hermitian
    _require_finite(herm)
    if not np.linalg.eigvalsh(herm).min(initial=0.0) >= -slack(herm).max():  # slack(Choi_k)
        raise InvalidInstrumentError(_NOT_CP)
    k, a, b, y = np.ix_(*(np.arange(n),) * 4)
    chois = np.zeros((n,) * 5, dtype=complex)
    chois[k, a, add[a, y], b, add[b, y]] = herm[y, sub[k, a], sub[k, b]]
    maps = _prechecked(dim_in=n, dim_out=n, choi=chois.reshape(n, n * n, n * n))
    return Instrument(ws.group.elements, maps)


# ==================== covariance ====================


def _require_group_instrument(ws: WeylSystem, instr: Instrument) -> None:
    if instr.outcomes != ws.group.elements:
        raise ValueError(
            "instrument outcomes must be the group elements in enumeration order"
        )
    if instr.dim_in != ws.dim or instr.dim_out != ws.dim:
        raise DimensionError("instrument dimension does not match the Weyl system")


def require_covariant(ws: WeylSystem, instr: Instrument) -> float:
    """`verify_covariance`, raising NotCovariantError beyond COVARIANCE_GATE."""
    return _gated(verify_covariance(ws, instr))


def _gated(defect: float) -> float:
    if defect > COVARIANCE_GATE:
        raise NotCovariantError(f"covariance defect {defect:.3e} exceeds {COVARIANCE_GATE}")
    return defect


def _orbits(ws: WeylSystem, instr: Instrument) -> np.ndarray:
    """[k, y, p, q] -> Choi_k[k - p, k - p + y, k - q, k - q + y]."""
    add, sub = ws.group.add_table, ws.group.sub_table
    k, y, p, q = np.ix_(*(np.arange(ws.dim),) * 4)
    a, b = sub[k, p], sub[k, q]
    return instr.maps.choi.reshape((ws.dim,) * 5)[k, a, add[a, y], b, add[b, y]]


def verify_covariance(ws: WeylSystem, instr: Instrument) -> float:
    """Largest covariance defect of an instrument over G, with W = U_x V_chi:

        max_k,x,chi,(i,j) || I_{k+x}(E_ij) - W I_k(W^dag E_ij W) W^dag ||_F

    A stack with equal entries in each orbit (`_orbits`) and zeros elsewhere
    is fixed by every W and gets +0.0, the pair form's value on it, in
    O(n^5) time and O(n^4) memory. Any other gets `_pair_defect`.
    """
    return _covariance(ws, instr)[0]


def _covariance(ws: WeylSystem, instr: Instrument) -> tuple[float, np.ndarray]:
    """(`verify_covariance`, the `_orbits` gather its exit tests)."""
    _require_group_instrument(ws, instr)
    on = _orbits(ws, instr)
    exact = np.count_nonzero(instr.maps.choi) == np.count_nonzero(on) and (on == on[:1]).all()
    return (0.0 if exact else _pair_defect(ws, instr)), on


def _pair_defect(ws: WeylSystem, instr: Instrument) -> float:
    """`verify_covariance` by every pair of outcomes: conjugation by W moves
    the Choi entries by x and multiplies them by chi(a - i - b + j). With
    F[K, p, d, u, v] = C_K[K - p, K + u, K - q, K + v], q = p + d + u - v,
    the phase is chi(d), the move is K -> K + x, and block (k + x, i, j) is
    (K, u, v) = (k + x, i - K, j - K), whose Frobenius norm is the one
    above. As (K, x) runs over G x G, (K, K - x) runs over every pair
    (K, K'), and for A = F[K], T = F[K'], summed over p and d:

        ||A - chi T||^2 = ||A_0 - T_0||^2 + N[K] + N[K']
                          - 2 Re sum_{d != 0} chi(d) H_d[K, K'],

    N[K] = sum_{d != 0} ||F[K]_d||^2, H_d[K, K'] = sum_p conj(F[K, p, d])
    F[K', p, d]. Per (u, v) that is one batched Gram product of the n x n
    matrices F[., ., d, u, v] and one product with the character table,
    O(n^6) flops in all; sector 0 is differenced pair by pair in O(n^5).

    Rounding: a covariant instrument's mass lies in sector 0, which is
    differenced directly, so nothing cancels there. Averaged over chi the
    sum over d != 0 vanishes, so N[K] + N[K'] is at most the block's defect
    averaged over chi and |sum_d H_d| half of that: the error is O(n eps)
    times the block's largest squared defect. It is clamped at 0 before
    the root. Exactly covariant input, whose F[K] are bitwise equal and
    zero off d = 0, gives exactly +0.0.
    """
    n = ws.dim
    add, sub = ws.group.add_table, ws.group.sub_table
    u, v, d, k, p = np.ix_(*(np.arange(n),) * 5)
    q = add[add[p, d], sub[u, v]]
    at = (sub * n)[k, q]  # flat index of C_K[K - p, K + u, K - q, K + v]
    at += (k * n**4 + sub[k, p] * n**3) + (add[k, u] * n**2 + add[k, v])
    f = instr.maps.choi.reshape(-1).take(at)
    del at  # each n^5 temporary goes once used: at most three are alive
    diff = (f[:, :, 0, :, None] - f[:, :, 0, None]).view(float)  # [u, v, K, K', (p, re/im)]
    same = np.einsum("...p,...p->...", diff, diff)
    del diff
    gram = f[:, :, 1:] @ f[:, :, 1:].conj().swapaxes(-1, -2)  # conj(H_d): [u, v, d, K, K']
    del f
    off = np.einsum("uvdkk->uvk", gram.real)  # N[K]
    # gram is conj(H_d), so row chi holds the sum for conj(chi): over all
    # characters, the same min
    cross = ws.group.character_table[:, 1:] @ gram.reshape(n, n, n - 1, n * n)
    del gram
    lowest = cross.real.min(axis=2).reshape(same.shape)  # over chi
    sq = same + off[..., :, None] + off[..., None, :] - 2.0 * lowest
    return float(np.sqrt(max(float(sq.max()), 0.0)))


# ==================== measure reconstruction ====================


def reconstruct_measure(ws: WeylSystem, instr: Instrument) -> CovariantMeasure:
    """Recover the operator-valued measure of a covariant instrument.

    The closed form of the module docstring puts m(y)[p, q] in one Choi
    entry per outcome k, and the Hermitian part of their mean,

        m(y)[p, q] = (1/n) sum_k Choi_k[k - p, k - p + y, k - q, k - q + y],

    is the measure whose closed-form instrument is Frobenius-nearest.

    Raises NotCovariantError if the covariance defect exceeds 1e-6.
    """
    defect, on = _covariance(ws, instr)
    _gated(defect)
    mstack = on.sum(axis=0) / ws.dim
    mstack = (mstack + mstack.conj().transpose(0, 2, 1)) / 2
    return CovariantMeasure(ws.group, mstack)


def reconstruction_residual(
    ws: WeylSystem, t: np.ndarray, f1: np.ndarray, f2: np.ndarray
) -> float:
    """Defect of the trace-class expansion identity

        sum_{x,chi} tr[V_chi U_x T] <U_x^dag V_chi^dag f1, f2> = n <T f1, f2>

    with the inner product linear in its first argument. V_chi U_x maps
    e_{c-x} to chi(c) e_c, so tr[V_chi U_x T] = sum_c chi(c) T[c-x, c] and
    the inner product is sum_c conj(f2[c-x]) f1[c] conj(chi(c)): two
    products with the character table.
    """
    t = ws.require_dim(t)
    table = ws.group.character_table  # [chi, c]
    back = ws.group.sub_table.T  # back[x, c] = index(c - x)
    coeff = t[back, np.arange(ws.dim)] @ table.T  # [x, chi]
    inner = (f2.conj()[back] * f1) @ table.conj().T
    return float(abs((coeff * inner).sum() - ws.dim * (f2.conj() @ (t @ f1))))


# Re-exported from the JSON codec, which imports this module.
from .codec import instrument_from_json, instrument_to_json  # noqa: E402,F401
from .codec import measure_from_json, measure_to_json  # noqa: E402,F401
