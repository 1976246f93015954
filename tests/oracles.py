"""Dense reference implementations that the fast paths are tested against.

These are the literal constructions: the covariant instrument as a sum of
translated pointer instruments, each obtained by coupling to the probe
through L and reading the probe out, and the covariance defect by
conjugating every Choi matrix with W (x) conj(W) for every phase-space
point W = U_x V_chi. Both cost O(n^9) and are meant for small groups.
"""

import numpy as np

from weylseq import CovariantMeasure, WeylSystem, coupling_unitary, kron


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
        rot = kron(uy.conj().T, eye)
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
            ww = kron(w, w.conj())
            moved = np.einsum("ab,kbc,dc->kad", ww, chois, ww.conj(), optimize=True)
            d4 = (chois[add[i]] - moved).reshape(n, n, n, n, n)  # [k, a, i, b, j]
            res = max(res, float(np.sqrt((np.abs(d4) ** 2).sum(axis=(1, 3))).max()))
    return res


def dense_joint_effects(ws: WeylSystem, instr) -> np.ndarray:
    """effect(x, chi) = I_x^*(B({chi})), one dual map call per outcome pair."""
    n = ws.dim
    return np.array([
        instr.maps[x].dual_apply(ws.momentum_effects[c])
        for x in range(n) for c in range(n)
    ])
