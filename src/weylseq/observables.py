"""POVMs, states, smeared marginals, and covariant phase-space observables.

A POVM is a finite list of labelled effects. Covariant phase-space
observables have one effect per phase-space point,

    effect(x, chi) = (1/n) W_{x,chi} S W_{x,chi}^dag,

for a single generating state S, and are informationally complete exactly
when the effects span the full operator space. The rank test below is the
implemented criterion; the equivalent characterization through the
nowhere-vanishing Weyl transform of S is documented but not exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ABS_EPS, is_psd
from .errors import DimensionError, WeylseqError
from .weyl import WeylSystem, weyl_conjugates

PROB_FLOOR = -1e-12
SPAN_REL_CUTOFF = 1e-8  # relative singular-value cutoff of effect_span_dimension


@dataclass
class ProbVector:
    """Probability distribution over explicit outcome labels."""

    outcomes: tuple
    weights: np.ndarray

    def __post_init__(self):
        self.outcomes = tuple(self.outcomes)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(w) != len(self.outcomes):
            raise DimensionError(
                f"{len(self.outcomes)} outcomes but {len(w)} weights"
            )
        if not np.all(np.isfinite(w)):
            raise WeylseqError("probabilities contain non-finite entries")
        if w.min(initial=0.0) < PROB_FLOOR:
            raise WeylseqError(f"negative probability {w.min():.3e}")
        w = np.clip(w, 0.0, None)
        if abs(w.sum() - 1.0) > ABS_EPS:
            raise WeylseqError(f"probabilities sum to {float(w.sum())!r}, not 1")
        self.weights = w

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass
class Povm:
    """Positive operator-valued measure with explicit outcome labels."""

    outcomes: tuple
    effects: np.ndarray  # (k, n, n)

    def __post_init__(self):
        self.outcomes = tuple(self.outcomes)
        e = np.asarray(self.effects, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise DimensionError(f"effects must be a (k, n, n) stack, got {e.shape}")
        if e.shape[0] != len(self.outcomes):
            raise DimensionError(
                f"{len(self.outcomes)} outcomes but {e.shape[0]} effects"
            )
        if not np.all(np.isfinite(e)):
            raise WeylseqError("effects contain non-finite entries")
        ok = is_psd(e)
        if not ok.all():
            raise WeylseqError(f"effect {np.argmin(ok)} is not positive semidefinite")
        total = e.sum(axis=0)
        defect = float(np.linalg.norm(total - np.eye(e.shape[1])))
        if defect > ABS_EPS:
            raise WeylseqError(f"effects sum to identity defect {defect:.3e}")
        self.effects = e

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.outcomes)


def ensure_state(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: finite, Hermitian, PSD, unit trace within ABS_EPS."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise WeylseqError("state has non-finite entries")
    if not is_psd(rho):
        raise WeylseqError("state is not positive semidefinite")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > ABS_EPS:
        raise WeylseqError(f"state trace is {tr!r}, not 1")
    return rho


def measure(povm: Povm, rho: np.ndarray) -> ProbVector:
    """Outcome distribution tr[E_k rho] of a POVM in a state."""
    rho = ensure_state(rho)
    if rho.shape[0] != povm.dim:
        raise DimensionError(
            f"state dim {rho.shape[0]} != POVM dim {povm.dim}"
        )
    w = np.einsum("kij,ji->k", povm.effects, rho).real
    return ProbVector(povm.outcomes, w)


# ==================== smeared sharp observables ====================


def _group_distribution(ws: WeylSystem, dist: ProbVector, name: str) -> np.ndarray:
    if dist.outcomes != ws.group.elements:
        raise ValueError(
            f"{name} must be indexed by the group elements in enumeration order"
        )
    return dist.weights


def smear_position(ws: WeylSystem, sigma: ProbVector) -> Povm:
    """Position observable convolved with sigma:
    effect(x) = sum_y sigma(x - y) |e_y><e_y|."""
    w = _group_distribution(ws, sigma, "sigma")
    g = ws.group
    n = ws.dim
    effects = np.zeros((n, n, n), dtype=complex)
    diag = np.arange(n)
    sub = g.sub_table  # sub[k, y] = index(x_k - x_y)
    for k in range(n):
        effects[k, diag, diag] = w[sub[k]]
    return Povm(g.elements, effects)


def smear_momentum(ws: WeylSystem, tau: ProbVector) -> Povm:
    """Momentum observable convolved with tau:
    effect(chi) = sum_gamma tau(chi - gamma) B({gamma})."""
    w = _group_distribution(ws, tau, "tau")
    g = ws.group
    coeff = w[g.sub_table]  # coeff[k, gamma] = tau(chi_k - gamma)
    effects = np.einsum("kc,cab->kab", coeff, ws.momentum_effects)
    return Povm(g.elements, effects)


# ==================== covariant phase-space observables ====================


def cpso_from_state(ws: WeylSystem, s: np.ndarray) -> Povm:
    """Covariant phase-space observable generated by the state s:
    effect(x, chi) = (1/n) U_x V_chi s V_chi^dag U_x^dag, outcomes x-major,
    each conjugate a gather of s times a phase (`weyl_conjugates`)."""
    s = ensure_state(ws.require_dim(s, "generating state"))
    n = ws.dim
    effects = np.array([weyl_conjugates(ws, s, x) for x in range(n)]) / n
    return Povm(ws.phase_points, effects.reshape(n * n, n, n))


def effect_span_dimension(povm: Povm) -> int:
    """Real-linear dimension of the span of the effects.

    Effects are vectorized into rows [Re, Im] and singular values below
    SPAN_REL_CUTOFF * s_max are discarded.
    """
    k, n = povm.effects.shape[0], povm.dim
    flat = povm.effects.reshape(k, n * n)
    stacked = np.hstack([flat.real, flat.imag])
    s = np.linalg.svd(stacked, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > SPAN_REL_CUTOFF * s[0]))


def is_informationally_complete(povm: Povm) -> bool:
    """Whether the effects span the whole n^2-dimensional operator space."""
    return effect_span_dimension(povm) == povm.dim ** 2


def verify_cpso_covariance(ws: WeylSystem, povm: Povm) -> float:
    """Largest covariance defect of a phase-space POVM:

        max || effect(x+y, chi+gamma)
               - W_{x,chi} effect(y, gamma) W_{x,chi}^dag ||_F

    over all phase-space translations (x, chi) and outcomes (y, gamma).
    """
    n = ws.dim
    if povm.outcomes != ws.phase_points:
        raise ValueError("POVM outcomes must be the phase points, x-major")
    e = povm.effects.reshape(n, n, n, n)  # [x, chi, row, col]
    add = ws.group.add_table
    res = 0.0
    for x in range(n):
        moved = weyl_conjugates(ws, e, x)  # [chi, y, gamma, row, col]
        target = e[add[x][None, :, None], add[:, None, :]]
        norms = np.sqrt((np.abs(target - moved) ** 2).sum(axis=(3, 4)))
        res = max(res, float(norms.max()))
    return res


# Re-exported from the JSON codec, which imports this module.
from .codec import povm_from_json, povm_to_json  # noqa: E402,F401
