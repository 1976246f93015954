"""Independent reference formulas used to check the program's outputs.

Numpy only: nothing here imports weylseq, so a defect in the package
cannot hide itself in its own check. Index conventions follow the
package's documented ones: elements of Z_{d_1} x ... x Z_{d_k} are
enumerated lexicographically with the last coordinate fastest,
(U_x f)(y) = f(y - x), (V_chi f)(y) = chi(y) f(y) with
chi(x) = exp(2 pi i sum_j chi_j x_j / d_j).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GATE = 1e-9  # the CLI's default residual gate


def parse_group(spec: str) -> tuple:
    return tuple(int(p) for p in spec.split("x"))


class Tables:
    """Addition, negation and character tables of a finite abelian group."""

    def __init__(self, moduli: tuple):
        self.moduli = tuple(moduli)
        self.n = math.prod(self.moduli)
        elems = np.array(list(itertools.product(*(range(d) for d in moduli))))
        mods = np.array(self.moduli)
        radix = np.array([math.prod(self.moduli[k + 1:]) for k in range(len(mods))])

        def index(e):
            return (np.mod(e, mods) * radix).sum(axis=-1)

        self.add = index(elems[:, None, :] + elems[None, :, :])
        self.neg = index(-elems)
        phase = (elems[:, None, :] * elems[None, :, :] / mods).sum(axis=-1)
        self.chars = np.exp(2j * np.pi * phase)  # chars[chi, x] = chi(x)

    def conjugate_by_weyl(self, s: np.ndarray, x: int, chi: int) -> np.ndarray:
        """W s W^dag with W = U_x V_chi, by permutation and phases."""
        moved = self.chars[chi][:, None] * s * self.chars[chi].conj()[None, :]
        out = np.empty_like(s)
        out[np.ix_(self.add[x], self.add[x])] = moved
        return out

    def translated_total(self, m: np.ndarray) -> np.ndarray:
        """M'(G) = sum_x U_x^dag m(x) U_x, i.e. sum_x m(x)[a + x, b + x]."""
        total = np.zeros(m.shape[1:], dtype=complex)
        for x in range(self.n):
            total += m[x][np.ix_(self.add[x], self.add[x])]
        return total

    def generating_state(self, m: np.ndarray) -> np.ndarray:
        """S[i, j] = M'(G)[-j, -i] (Prop 4.3)."""
        total = self.translated_total(m)
        return total[np.ix_(self.neg, self.neg)].T

    def noise(self, m: np.ndarray) -> tuple:
        """(sigma, tau) of Prop 4.2 from the measure's densities."""
        total = self.translated_total(m)
        sigma = np.diag(total).real
        # B({chi}) = F^dag |chi><chi| F with F[chi, x] = conj(chi(x)) / sqrt(n)
        f = self.chars.conj() / math.sqrt(self.n)
        b = np.einsum("ca,cb->cab", f.conj(), f)
        tau = np.einsum("cab,ba->c", b[self.neg], total).real
        return sigma, tau


def matrix_from_json(obj: dict) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    rows, cols = int(obj["rows"]), int(obj["cols"])
    if data.shape != (rows * cols, 2):
        raise ValueError(f"matrix data shape {data.shape} for {rows}x{cols}")
    return (data[:, 0] + 1j * data[:, 1]).reshape(rows, cols)

