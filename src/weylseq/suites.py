"""Named verification suites behind the CLI `verify` command.

Each suite exercises one family of identities and returns a dict mapping
residual names to (value, tolerance) pairs; a suite passes when every
value is within its tolerance.
"""

from __future__ import annotations

import numpy as np

from . import rand
from .algebra import RESIDUAL_GATE
from .group import Group
from .instruments import (
    covariant_instrument,
    reconstruct_measure,
    reconstruction_residual,
    verify_covariance,
)
from .observables import cpso_from_state, smear_momentum, smear_position
from .sequential import (
    cpso_defect,
    generating_state,
    run_sequential,
    sequential_from_cpso,
)
from .spin import SpinFrame, kronecker_factorization_check, tradeoff_check
from .weyl import WeylSystem, snag_residuals, weyl_relation_residual

SUITE_NAMES = ("weyl", "theorem41", "prop42", "prop43", "corollary44", "spin", "all")
TRIALS = 10  # random draws per suite; the spin suite draws qubit states
SPIN_TRIALS = 200


def suite_weyl(group: Group, seed: int) -> dict:
    ws = WeylSystem(group)
    res_u, res_v = snag_residuals(ws)
    return {
        "weyl_relation": (weyl_relation_residual(ws), 1e-12),
        "snag_translation": (res_u, 1e-10),
        "snag_modulation": (res_v, 1e-10),
    }


def suite_theorem41(group: Group, seed: int) -> dict:
    ws = WeylSystem(group)
    rng = np.random.default_rng(seed)
    worst_cov = 0.0
    worst_round = 0.0
    for _ in range(TRIALS):
        mm = rand.covariant_measure(rng, group)
        instr = covariant_instrument(ws, mm)
        worst_cov = max(worst_cov, verify_covariance(ws, instr))
        back = reconstruct_measure(ws, instr)
        worst_round = max(worst_round, float(np.abs(back.m - mm.m).max()))
    return {
        "covariance": (worst_cov, RESIDUAL_GATE),
        "measure_roundtrip": (worst_round, 1e-8),
    }


def suite_prop42(group: Group, seed: int) -> dict:
    ws = WeylSystem(group)
    rng = np.random.default_rng(seed)
    worst_a = 0.0
    worst_b = 0.0
    for _ in range(TRIALS):
        mm = rand.covariant_measure(rng, group)
        result = run_sequential(ws, mm)
        ref_a = smear_position(ws, result.sigma)
        ref_b = smear_momentum(ws, result.tau)
        worst_a = max(
            worst_a, float(np.abs(result.marginal_a.effects - ref_a.effects).max())
        )
        worst_b = max(
            worst_b, float(np.abs(result.marginal_b.effects - ref_b.effects).max())
        )
    return {
        "position_margin": (worst_a, RESIDUAL_GATE),
        "momentum_margin": (worst_b, RESIDUAL_GATE),
    }


def suite_prop43(group: Group, seed: int) -> dict:
    ws = WeylSystem(group)
    rng = np.random.default_rng(seed)
    worst_joint = 0.0
    worst_recon = 0.0
    for _ in range(TRIALS):
        mm = rand.covariant_measure(rng, group)
        result = run_sequential(ws, mm)
        worst_joint = max(worst_joint, cpso_defect(ws, result))
        t = rand.complex_matrix(rng, group.order)
        f1 = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        f2 = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        worst_recon = max(worst_recon, reconstruction_residual(ws, t, f1, f2))
    return {
        "joint_is_cpso": (worst_joint, RESIDUAL_GATE),
        "expansion_identity": (worst_recon, RESIDUAL_GATE),
    }


def suite_corollary44(group: Group, seed: int) -> dict:
    ws = WeylSystem(group)
    rng = np.random.default_rng(seed)
    worst_conv = 0.0
    worst_state = 0.0
    for _ in range(TRIALS):
        s = rand.state(rng, group.order)
        instr, joint = sequential_from_cpso(ws, s)
        ref = cpso_from_state(ws, s)
        worst_conv = max(worst_conv, float(np.abs(joint.effects - ref.effects).max()))
        back = generating_state(ws, reconstruct_measure(ws, instr))
        worst_state = max(worst_state, float(np.abs(back - s).max()))
    return {
        "cpso_realized": (worst_conv, RESIDUAL_GATE),
        "state_roundtrip": (worst_state, 1e-10),
    }


def suite_spin(group: Group, seed: int) -> dict:
    frame = SpinFrame((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    rng = np.random.default_rng(seed)
    worst_fact = 0.0
    worst_trade = 0.0
    for _ in range(SPIN_TRIALS):
        omega = rand.bloch_state(rng)
        rho = rand.bloch_state(rng)
        worst_fact = max(
            worst_fact, kronecker_factorization_check(frame, omega, rho)
        )
        worst_trade = max(worst_trade, tradeoff_check(frame, omega))
    return {
        "factorization": (worst_fact, 1e-10),
        "tradeoff_bound": (worst_trade, 1.0 + 1e-12),
    }


_SUITES = {
    "weyl": suite_weyl,
    "theorem41": suite_theorem41,
    "prop42": suite_prop42,
    "prop43": suite_prop43,
    "corollary44": suite_corollary44,
    "spin": suite_spin,
}


def run_suite(name: str, group: Group, seed: int) -> dict:
    """Run one named suite (or all of them); returns {label: (value, tol)}."""
    if name == "all":
        out = {}
        for key, fn in _SUITES.items():
            for label, pair in fn(group, seed).items():
                out[f"{key}.{label}"] = pair
        return out
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](group, seed)
