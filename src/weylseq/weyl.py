"""Weyl operators and sharp position/momentum observables.

For a finite abelian group G of order n, the translation and modulation
unitaries on C^G are

    (U_x f)(y) = f(y - x)          i.e. U_x e_b = e_{b+x},
    (V_chi f)(y) = chi(y) f(y),

and they satisfy U_x V_chi = conj(chi(x)) V_chi U_x. A phase-space point
(x, chi, u) with |u| = 1 acts through W(x, chi, u) = conj(u) U_x V_chi;
the central phase u cancels in every conjugation A -> W A W^dag, so all
observable-level formulas are u-independent.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionError
from .group import Group


class WeylSystem:
    """All Weyl operators of a group, through the group's tables.

    Each W = U_x V_chi is monomial: U_x permutes by the `add_table` and
    V_chi is the row chi of the `character_table` on the diagonal, so
    W A W^dag is a gather times a phase (`weyl_conjugates`). The dense
    stacks are built on first access only, for `dump-weyl` and
    `snag_residuals`.

    Attributes
    ----------
    group : Group
    fourier : (n, n) unitary with fourier[chi, x] = conj(chi(x)) / sqrt(n)
    """

    def __init__(self, group: Group):
        self.group = group
        self.dim = group.order
        self.fourier = group.fourier_matrix()

    @cached_property
    def translations(self) -> np.ndarray:
        """(n, n, n) stack, translations[i] = U at elements[i]."""
        return np.eye(self.dim, dtype=complex)[self.group.add_table].transpose(0, 2, 1)

    @cached_property
    def modulations(self) -> np.ndarray:
        """(n, n, n) stack, modulations[i] = V at elements[i]."""
        idx = np.arange(self.dim)
        v = np.zeros((self.dim,) * 3, dtype=complex)
        v[:, idx, idx] = self.group.character_table
        return v

    # ---------- sharp observables ----------

    @cached_property
    def position_effects(self) -> np.ndarray:
        """Stack of A({x}) over the group enumeration."""
        n = self.dim
        out = np.zeros((n, n, n), dtype=complex)
        idx = np.arange(n)
        out[idx, idx, idx] = 1.0
        return out

    @cached_property
    def momentum_effects(self) -> np.ndarray:
        """Stack of B({chi}) = F^dag |e_chi><e_chi| F over the enumeration."""
        f = self.fourier
        return np.einsum("ca,cb->cab", f.conj(), f)

    # ---------- phase-space bookkeeping ----------

    @cached_property
    def phase_points(self) -> tuple:
        """(x, chi) pairs, x-major, matching joint-observable outcome order."""
        elems = self.group.elements
        return tuple((x, chi) for x in elems for chi in elems)

    def require_dim(self, t: np.ndarray, what: str = "matrix") -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        if t.shape != (self.dim, self.dim):
            raise DimensionError(
                f"{what} has shape {t.shape}, expected ({self.dim}, {self.dim})"
            )
        return t


def snag_residuals(ws: WeylSystem) -> tuple:
    """Residuals of the two finite Fourier expansion identities

        sum_chi conj(chi(x)) B({chi}) = U_x,
        sum_x chi(x) A({x}) = V_chi,

    returned as (translation_residual, modulation_residual) in max norm.
    """
    table = ws.group.character_table
    lhs_u = np.einsum("cx,cab->xab", table.conj(), ws.momentum_effects)
    res_u = float(np.abs(lhs_u - ws.translations).max())
    lhs_v = np.einsum("cx,xab->cab", table, ws.position_effects)
    res_v = float(np.abs(lhs_v - ws.modulations).max())
    return res_u, res_v


def weyl_conjugates(ws: WeylSystem, t: np.ndarray, x: int) -> np.ndarray:
    """W t W^dag for W = U_x V_chi (x an index) and every chi, on a new
    first axis; t is a matrix or a stack of them on its last two axes:

        out[chi, ..., a, b] = chi(a - x) t[..., a - x, b - x] conj(chi(b - x)).
    """
    back = ws.group.sub_table[:, x]  # index of a - x
    phase = ws.group.character_table[:, back]  # [chi, a]
    return np.einsum("ca,...ab,cb->c...ab", phase, t[..., back[:, None], back],
                     phase.conj())


def weyl_relation_residual(ws: WeylSystem) -> float:
    """max over all (x, chi) of || U_x V_chi - conj(chi(x)) V_chi U_x ||_max.

    Both sides are U_x with phases in column b: chi(b) on the left,
    conj(chi(x)) chi(b + x) on the right, as the dense products give them.
    """
    table = ws.group.character_table  # [chi, b]
    lhs = table[:, None, :]
    rhs = table.conj()[:, :, None] * table[:, ws.group.add_table]  # [chi, x, b]
    return float(np.abs(lhs - rhs).max())
