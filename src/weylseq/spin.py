"""Spin-1/2 demonstration of the sequential-measurement machinery.

Two orthogonal spin directions a and b play the roles of position and
momentum for the two-element group. The +1/-1 eigenbasis of a . sigma,
with the phase of the -1 vector fixed by

    e_minus = (b . sigma) e_plus,

carries b . sigma to the translation U_1 and a . sigma to the modulation
V_1 of the two-point Weyl system. In that basis the measurement coupling
acts entrywise, so the measured state factorizes as a Kronecker product
of the input state and the conjugated probe. Measuring a . sigma through
the model and then b . sigma sharply yields unsharp spin observables with
sharpness s = r . a and t = r . b for the probe's Bloch vector r, and
s^2 + t^2 <= 1 always.
"""

from __future__ import annotations

import numpy as np

from .group import Group
from .instruments import standard_instrument
from .observables import Povm, ensure_state
from .weyl import WeylSystem

_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

SPIN_OUTCOMES = (1, -1)


def pauli_vector(v) -> np.ndarray:
    """v . sigma for a real 3-vector v."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.einsum("k,kab->ab", v, _SIGMA)


class SpinFrame:
    """Orthogonal spin axes (a, b) and the measurement basis they induce.

    Axes are normalized; inputs must be orthogonal within 1e-10 after
    normalization (residual overlap is then removed exactly). An axis with
    a non-finite component, or whose norm overflows, is rejected.
    """

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float).reshape(3)
        b = np.asarray(b, dtype=float).reshape(3)
        with np.errstate(over="ignore"):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if not (np.isfinite(na) and np.isfinite(nb)):
            raise ValueError("spin axes must be finite vectors with a finite norm")
        if na == 0.0 or nb == 0.0:
            raise ValueError("spin axes must be nonzero vectors")
        a = a / na
        b = b / nb
        if abs(float(a @ b)) > 1e-10:
            raise ValueError(f"spin axes not orthogonal: a.b = {float(a @ b):.3e}")
        b = b - (a @ b) * a
        b = b / np.linalg.norm(b)
        self.a = a
        self.b = b
        self.a_op = pauli_vector(a)
        self.b_op = pauli_vector(b)
        self.basis = self._measurement_basis()
        self.ws = WeylSystem(Group((2,)))  # the two-point system the frame realizes

    def _measurement_basis(self) -> np.ndarray:
        """Columns (e_plus, e_minus) with e_minus = (b . sigma) e_plus and
        the largest component of e_plus made real positive."""
        w, q = np.linalg.eigh(self.a_op)
        plus = q[:, int(np.argmax(w))].copy()
        k = int(np.argmax(np.abs(plus)))
        plus *= np.conj(plus[k]) / abs(plus[k])
        minus = self.b_op @ plus
        return np.column_stack([plus, minus])


def spin_povm(axis, sharpness: float = 1.0) -> Povm:
    """Two-outcome spin observable (1/2)(I +/- sharpness * axis . sigma)."""
    if abs(sharpness) > 1.0 + 1e-12:
        raise ValueError(f"sharpness {sharpness} outside [-1, 1]")
    op = pauli_vector(axis)
    norm = np.linalg.norm(np.asarray(axis, dtype=float))
    if norm == 0.0:
        raise ValueError("axis must be a nonzero vector")
    op = op / norm
    eye = np.eye(2)
    effects = np.array([(eye + sharpness * op) / 2, (eye - sharpness * op) / 2])
    return Povm(SPIN_OUTCOMES, effects)


def unsharp_spin(frame: SpinFrame, omega: np.ndarray):
    """Sharpnesses and margins of the sequential a-then-b spin measurement.

    Returns (s, t, povm_a, povm_b) where s = tr[omega a.sigma] and
    t = tr[omega b.sigma], and the POVMs are the unsharp spin observables
    along a and b with those sharpnesses.
    """
    omega = ensure_state(np.asarray(omega, dtype=complex))
    s = float(np.einsum("ij,ji->", omega, frame.a_op).real)
    t = float(np.einsum("ij,ji->", omega, frame.b_op).real)
    return s, t, spin_povm(frame.a, s), spin_povm(frame.b, t)


def tradeoff_check(frame: SpinFrame, omega: np.ndarray) -> float:
    """s^2 + t^2 for the probe omega; always <= 1."""
    s, t, _, _ = unsharp_spin(frame, omega)
    return s * s + t * t


def kronecker_factorization_check(frame: SpinFrame, omega: np.ndarray,
                                  rho: np.ndarray) -> float:
    """Entrywise factorization defect of the measurement model.

    In the frame basis the instrument output at pointer value k satisfies

        <e_i| I_k(rho) |e_j> = <e_i| rho |e_j> * <e_i| U_k omega U_k |e_j>

    with U_0 = 1 and U_1 = b . sigma. The left side runs the two-point
    instrument machinery in frame.basis, the right side conjugates by
    b . sigma directly; the returned value is the largest entry mismatch.
    A basis that ignores the phase convention breaks the identity.
    """
    omega = ensure_state(np.asarray(omega, dtype=complex))
    rho = ensure_state(np.asarray(rho, dtype=complex))
    p = frame.basis
    omega_f = p.conj().T @ omega @ p
    rho_f = p.conj().T @ rho @ p
    lhs = standard_instrument(frame.ws, omega_f).maps.apply(rho_f)
    translates = [np.eye(2, dtype=complex), frame.b_op]
    res = 0.0
    for k in range(2):
        moved = translates[k] @ omega @ translates[k].conj().T
        rhs = rho_f * (p.conj().T @ moved @ p)
        res = max(res, float(np.abs(lhs[k] - rhs).max()))
    return res
