"""Finite abelian groups Z_{d_1} x ... x Z_{d_k} with a fixed self-pairing.

Elements are tuples of residues. The dual group is identified with the
group itself through the pairing

    chi(x) = exp(2*pi*i * sum_j chi_j * x_j / d_j),

so dual elements use the same tuple representation. Enumeration is
lexicographic with the last coordinate fastest and zero first, and that
order fixes every matrix index in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GroupError

Element = tuple  # tuple[int, ...]; dual elements share the representation


@dataclass(frozen=True)
class Group:
    """Direct product of cyclic groups, given by its moduli."""

    moduli: tuple

    def __post_init__(self):
        if not self.moduli:
            raise GroupError("group needs at least one factor")
        mods = tuple(int(d) for d in self.moduli)
        for d in mods:
            if d < 2:
                raise GroupError(f"modulus {d} < 2")
        object.__setattr__(self, "moduli", mods)

    # ---------- construction ----------

    @classmethod
    def from_spec(cls, spec: str) -> "Group":
        """Parse a textual spec like "2", "3x4" or "2x2x3"."""
        parts = [p.strip() for p in str(spec).split("x")]
        try:
            mods = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise GroupError(f"cannot parse group spec {spec!r}") from exc
        return cls(mods)

    # ---------- basic data ----------

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @cached_property
    def order(self) -> int:
        return int(math.prod(self.moduli))

    @property
    def haar_normalizer(self) -> float:
        """The constant c = order**-0.5 entering the Fourier transform."""
        return 1.0 / math.sqrt(self.order)

    @cached_property
    def elements(self) -> tuple:
        """All elements, lexicographic, zero first, last coordinate fastest."""
        return tuple(itertools.product(*(range(d) for d in self.moduli)))

    @cached_property
    def _index(self) -> dict:
        return {x: k for k, x in enumerate(self.elements)}

    def index(self, x: Element) -> int:
        x = self._coerce(x)
        return self._index[x]

    def _coerce(self, x) -> Element:
        t = tuple(int(v) for v in x)
        if len(t) != self.rank:
            raise GroupError(f"element {t} has wrong rank for moduli {self.moduli}")
        return tuple(v % d for v, d in zip(t, self.moduli))

    # ---------- group operations ----------

    def zero(self) -> Element:
        return (0,) * self.rank

    def add(self, a: Element, b: Element) -> Element:
        a = self._coerce(a)
        b = self._coerce(b)
        return tuple((u + v) % d for u, v, d in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        a = self._coerce(a)
        return tuple((-u) % d for u, d in zip(a, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    # ---------- pairing and Fourier data ----------

    @cached_property
    def _phase_lcm(self) -> int:
        return int(math.lcm(*self.moduli))

    def pairing(self, chi: Element, x: Element) -> complex:
        """chi(x), computed with exact integer phase reduction."""
        chi = self._coerce(chi)
        x = self._coerce(x)
        big = self._phase_lcm
        k = sum(c * v * (big // d) for c, v, d in zip(chi, x, self.moduli)) % big
        return complex(np.exp(2j * np.pi * k / big))

    @cached_property
    def character_table(self) -> np.ndarray:
        """table[i, j] = chi_i(x_j) over the fixed enumeration."""
        n = self.order
        big = self._phase_lcm
        elems = np.array(self.elements, dtype=np.int64)  # (n, rank)
        weights = np.array([big // d for d in self.moduli], dtype=np.int64)
        phases = (elems * weights) @ elems.T % big  # (n, n) integer phases
        return np.exp(2j * np.pi * phases / big)

    def fourier_matrix(self) -> np.ndarray:
        """F[chi, x] = c * conj(chi(x)); unitary, F e_x gives the character
        amplitudes of the point mass at x."""
        return self.haar_normalizer * self.character_table.conj()

    # ---------- index tables ----------

    @cached_property
    def add_table(self) -> np.ndarray:
        """table[i, j] = index(x_i + x_j)."""
        n = self.order
        out = np.empty((n, n), dtype=np.intp)
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                out[i, j] = self._index[self.add(a, b)]
        return out

    @cached_property
    def sub_table(self) -> np.ndarray:
        """table[i, j] = index(x_i - x_j)."""
        return self.add_table[:, self.neg_table]

    @cached_property
    def neg_table(self) -> np.ndarray:
        """table[i] = index(-x_i)."""
        return np.array([self._index[self.neg(x)] for x in self.elements],
                        dtype=np.intp)

    # ---------- JSON form ----------

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, obj: dict) -> "Group":
        """Moduli must be a JSON list of integers: a string such as "23",
        a float or a bool is a malformed group, not converted."""
        try:
            mods = obj["moduli"]
        except (KeyError, TypeError) as exc:
            raise GroupError(f"malformed group object: {exc}") from exc
        if type(mods) is not list or any(type(d) is not int for d in mods):
            raise GroupError(
                f"malformed group object: moduli {mods!r:.40} is not a list of integers")
        return cls(tuple(mods))
