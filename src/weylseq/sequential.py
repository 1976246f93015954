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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCovariantError
from .instruments import (
    COVARIANCE_GATE,
    CovariantMeasure,
    Instrument,
    covariant_instrument,
    standard_instrument,
    verify_covariance,
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


def joint_observable(ws: WeylSystem, instr: Instrument, with_defect: bool = False):
    """Joint phase-space observable of instrument-then-sharp-momentum.

    Outcomes are (x, chi) pairs, x-major. Raises NotCovariantError when
    the instrument's covariance defect exceeds 1e-6. With `with_defect`,
    returns (observable, defect) so the caller can report the defect
    without checking the instrument twice.
    """
    defect = verify_covariance(ws, instr)
    if defect > COVARIANCE_GATE:
        raise NotCovariantError(
            f"covariance defect {defect:.3e} exceeds {COVARIANCE_GATE}"
        )
    n = ws.dim
    chois = np.array([m.choi for m in instr.maps]).reshape((n,) * 5)
    # effect(x, chi)[j, i] = sum_{a,b} Choi_x[a, i, b, j] B({chi})[b, a];
    # C order keeps the sums over the effects, and so the reports, bitwise
    # as they were with one dual_apply per outcome
    effects = np.einsum("xaibj,cba->xcji", chois, ws.momentum_effects, order="C")
    joint = Povm(ws.phase_points, effects.reshape(n * n, n, n))
    return (joint, defect) if with_defect else joint


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
    omega = check_map(ws, s)
    instr = standard_instrument(ws, omega)
    return instr, joint_observable(ws, instr)


def run_sequential(ws: WeylSystem, mm: CovariantMeasure) -> SequentialResult:
    """Full sequential-measurement summary for a covariant measure."""
    instr = covariant_instrument(ws, mm)
    joint, defect = joint_observable(ws, instr, with_defect=True)
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
