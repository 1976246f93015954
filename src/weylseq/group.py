"""Finite abelian groups Z_{d_1} x ... x Z_{d_k} with a fixed self-pairing.

Elements are tuples of residues. The dual group is identified with the
group itself through the pairing

    chi(x) = exp(2*pi*i * sum_j chi_j * x_j / d_j),

so dual elements use the same tuple representation. Enumeration is
lexicographic with the last coordinate fastest and zero first, and that
order fixes every matrix index in the package.
"""

from __future__ import annotations

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

    @cached_property
    def _coords(self) -> np.ndarray:
        """(order, rank) array of the elements' coordinates, in enumeration order."""
        return np.indices(self.moduli).reshape(self.rank, -1).T

    @cached_property
    def elements(self) -> tuple:
        """All elements, lexicographic, zero first, last coordinate fastest."""
        return tuple(map(tuple, self._coords.tolist()))

    def _ravel(self, coords: np.ndarray) -> np.ndarray:
        """Indices of coordinates on the first axis, residues reduced mod the moduli."""
        return np.ravel_multi_index(coords, self.moduli, mode="wrap")

    def index(self, x: Element) -> int:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.rank,):
            raise GroupError(f"element {tuple(x.reshape(-1).tolist())} has wrong rank "
                             f"for moduli {self.moduli}")
        return int(self._ravel(x))

    def zero(self) -> Element:
        return (0,) * self.rank

    # ---------- pairing and Fourier data ----------

    @cached_property
    def character_table(self) -> np.ndarray:
        """table[i, j] = chi_i(x_j) over the fixed enumeration, with the
        integer phases reduced exactly mod the lcm of the moduli."""
        big = math.lcm(*self.moduli)
        weights = np.array([big // d for d in self.moduli], dtype=np.int64)
        phases = (self._coords * weights) @ self._coords.T % big
        return np.exp(2j * np.pi * phases / big)

    def fourier_matrix(self) -> np.ndarray:
        """F[chi, x] = conj(chi(x)) / sqrt(order); unitary, F e_x gives the
        character amplitudes of the point mass at x."""
        # times the reciprocal: dividing by sqrt(order) flips the sign of zero imaginary parts
        return (1.0 / math.sqrt(self.order)) * self.character_table.conj()

    # ---------- index tables ----------

    @cached_property
    def add_table(self) -> np.ndarray:
        """table[i, j] = index(x_i + x_j)."""
        c = self._coords.T
        return self._ravel(c[:, :, None] + c[:, None, :])

    @cached_property
    def sub_table(self) -> np.ndarray:
        """table[i, j] = index(x_i - x_j)."""
        c = self._coords.T
        return self._ravel(c[:, :, None] - c[:, None, :])

    @cached_property
    def neg_table(self) -> np.ndarray:
        """table[i] = index(-x_i)."""
        return self._ravel(-self._coords.T)

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
