"""Sequential position-then-momentum measurements and their joint statistics.

Measuring a covariant instrument and then the sharp momentum observable
defines a joint observable on phase space,

    effect(x, chi) = I_x^*(B({chi})).

Its first margin is the position observable smeared by sigma, its second
the momentum observable smeared by tau, where

    sigma({x}) = <e_x| M'(G) |e_x>,     tau({chi}) = tr[B({-chi}) M'(G)],

and M'(G) = sum_x U_x^dag m(x) U_x is the total translated density of the
instrument's measure. The joint observable is exactly the covariant
phase-space observable generated by S = check(M'(G)), with the check map

    check(T)[i, j] = T[-j, -i]

a linear, involutive, positivity- and trace-preserving reflection.

Theorem 4.1 makes the measure the whole instrument, so `joint_observable`
takes the measure along with the instrument built from it and reads the
effects off m in O(n^5) (`joint_from_measure`), after checking the
instrument's covariance (`verify_covariance`, O(n^5) on a closed form,
O(n^6) on any other instrument). The dense route through the Choi stack
is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import (
    CovariantMeasure,
    Instrument,
    covariant_instrument,
    require_covariant,
)
from .observables import Povm, ProbVector, cpso_from_state, ensure_state
from .weyl import WeylSystem


@dataclass
class SequentialResult:
    """Everything observable about one sequential measurement."""

    joint: Povm
    marginal_a: Povm
    marginal_b: Povm
    sigma: ProbVector
    tau: ProbVector
    generating_state: np.ndarray
    covariance_defect: float  # verify_covariance of the instrument


def joint_observable(ws: WeylSystem, instr: Instrument,
                     mm: CovariantMeasure) -> tuple[Povm, float]:
    """Joint phase-space observable of instrument-then-sharp-momentum, as
    (observable, covariance defect of `instr`).

    Outcomes are (x, chi) pairs, x-major. `mm` must be the measure `instr`
    was built from: the effects are read off it (`joint_from_measure`)
    once `instr` has passed the covariance gate, which raises
    NotCovariantError when its defect exceeds 1e-6.
    """
    defect = require_covariant(ws, instr)
    return joint_from_measure(ws, mm), defect


def joint_from_measure(ws: WeylSystem, mm: CovariantMeasure) -> Povm:
    """`joint_observable` of covariant_instrument(ws, mm), read off the
    measure without the covariance check, which the measure passes by
    construction. Choi_x[a, i, b, j] is nonzero only where i - a = j - b = y, so

        effect(x, chi)[j, i] = sum_y m(y)[x - i + y, x - j + y] B({chi})[j - y, i - y]

    with the Hermitian parts of the densities: n products of n x n
    matrices per (j, i), O(n^5) in place of a contraction of the n^5
    Choi stack with the n^3 momentum effects.
    """
    n = ws.dim
    add, sub = ws.group.add_table, ws.group.sub_table
    r = np.arange(n)
    j, i = r[:, None, None, None], r[:, None, None]
    x, y = r[:, None], r
    dens = mm.hermitian[y, add[sub[x, i], y], add[sub[x, j], y]]  # [j, i, x, y]
    y, chi = r[:, None], r
    moms = ws.momentum_effects[chi, sub[j, y], sub[i, y]]  # [j, i, y, chi]
    effects = np.ascontiguousarray((dens @ moms).transpose(2, 3, 0, 1))  # [x, chi, j, i]
    return Povm(ws.phase_points, effects.reshape(n * n, n, n))


def translated_total_density(ws: WeylSystem, mm: CovariantMeasure) -> np.ndarray:
    """M'(G) = sum_x U_x^dag m(x) U_x, so M'(G)[a, b] = sum_x m(x)[a + x, b + x]."""
    add = ws.group.add_table  # add[x, a] = index(x + a)
    return mm.m[np.arange(ws.dim)[:, None, None], add[:, :, None], add[:, None, :]].sum(axis=0)


def noise_measures(ws: WeylSystem, mm: CovariantMeasure):
    """(sigma, tau): the smearing distributions of the two margins."""
    g = ws.group
    total = translated_total_density(ws, mm)
    sigma = np.diag(total).real.copy()
    b_neg = ws.momentum_effects[g.neg_table]
    tau = np.einsum("cab,ba->c", b_neg, total).real
    return (
        ProbVector(g.elements, sigma),
        ProbVector(g.elements, tau),
    )


def check_map(ws: WeylSystem, t: np.ndarray) -> np.ndarray:
    """Negate-and-transpose involution: check(T)[i, j] = T[-j, -i]."""
    t = ws.require_dim(t)
    neg = ws.group.neg_table
    return t[np.ix_(neg, neg)].T.copy()


def generating_state(ws: WeylSystem, mm: CovariantMeasure) -> np.ndarray:
    """State S with joint observable == cpso_from_state(S): S = check(M'(G))."""
    return check_map(ws, translated_total_density(ws, mm))


def sequential_from_cpso(ws: WeylSystem, s: np.ndarray):
    """Realize the phase-space observable generated by s sequentially.

    Returns (instrument, joint) where the instrument is the standard one
    with probe omega = check(s) and joint is its phase-space observable,
    which reproduces cpso_from_state(ws, s).
    """
    s = ensure_state(ws.require_dim(s, "generating state"))
    mm = CovariantMeasure.point_mass(ws, ws.group.zero(), check_map(ws, s))
    instr = covariant_instrument(ws, mm)
    joint, _ = joint_observable(ws, instr, mm)
    return instr, joint


def run_sequential(ws: WeylSystem, mm: CovariantMeasure) -> SequentialResult:
    """Full sequential-measurement summary for a covariant measure."""
    instr = covariant_instrument(ws, mm)
    joint, defect = joint_observable(ws, instr, mm)
    n = ws.dim
    stack = joint.effects.reshape(n, n, n, n)
    marginal_a = Povm(ws.group.elements, stack.sum(axis=1))
    marginal_b = Povm(ws.group.elements, stack.sum(axis=0))
    sigma, tau = noise_measures(ws, mm)
    state = generating_state(ws, mm)
    return SequentialResult(joint, marginal_a, marginal_b, sigma, tau, state, defect)


def cpso_defect(ws: WeylSystem, result: SequentialResult) -> float:
    """Frobenius defect between the joint observable and the phase-space
    observable generated by result.generating_state."""
    ref = cpso_from_state(ws, result.generating_state)
    diff = result.joint.effects - ref.effects
    return float(np.sqrt((np.abs(diff) ** 2).sum(axis=(1, 2))).max())
