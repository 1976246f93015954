"""Dense complex linear algebra helpers.

Matrices are numpy arrays of complex128 in row-major layout. Everything
here is a thin, validated layer over numpy so the rest of the package can
assume square, finite, well-shaped inputs. The checks take one matrix or
a stack (..., n, n) and treat each matrix of a stack as they treat it alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError

ABS_EPS = 1e-9  # allowance of every validation: traces, identity defects, `slack`
RESIDUAL_GATE = 1e-9  # default gate of the residuals of the paper's identities


def slack(t: np.ndarray) -> np.ndarray:
    """The allowance ABS_EPS * (1 + max|t|) of the Hermiticity and
    positivity checks, one per matrix of a stack."""
    return ABS_EPS * (1.0 + np.abs(t).max(axis=(-2, -1), initial=0.0))


def as_cmatrix(t) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(t, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _adjoint_within_slack(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t^dag, slack(t)) if each matrix of t is Hermitian within its slack,
    else raise for the first that is not, at `index` in the stack. The
    adjoint is a fresh array, free for the caller to overwrite."""
    if t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {t.shape}")
    adj = t.conj().swapaxes(-1, -2)
    bound = slack(t)
    defect = np.abs(t - adj).max(axis=(-2, -1), initial=0.0)
    bad = defect > bound
    if bad.any():
        k = int(np.argmax(bad))
        exc = HermiticityError(
            f"matrix is not Hermitian: defect {defect.flat[k]:.3e} > {bound.flat[k]:.3e}")
        exc.index = k
        raise exc
    return adj, bound


def is_psd(t: np.ndarray):
    """Positive semidefiniteness, allowing eigenvalues down to -slack: a
    bool for one matrix, a bool array over a stack, from one batched
    eigensolve. Raises HermiticityError for non-Hermitian input."""
    t = np.asarray(t, dtype=complex)
    h, bound = _adjoint_within_slack(t)
    h += t
    h /= 2.0  # the Hermitian part (t + t^dag) / 2, in the adjoint's buffer
    ok = np.linalg.eigvalsh(h).min(axis=-1, initial=0.0) >= -bound
    return bool(ok) if t.ndim == 2 else ok


# Re-exported from the JSON codec, which imports this module.
from .codec import matrix_from_json, matrix_to_json  # noqa: E402,F401
