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


def require_hermitian(t: np.ndarray) -> np.ndarray:
    """Return t as a complex array if each matrix is Hermitian within its
    `slack`, else raise for the first that is not, at `index` in the stack."""
    t = np.asarray(t, dtype=complex)
    if t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {t.shape}")
    bound = slack(t)
    defect = np.abs(t - t.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = defect > bound
    if bad.any():
        k = int(np.argmax(bad))
        exc = HermiticityError(
            f"matrix is not Hermitian: defect {defect.flat[k]:.3e} > {bound.flat[k]:.3e}")
        exc.index = k
        raise exc
    return t


def is_psd(t: np.ndarray):
    """Positive semidefiniteness, allowing eigenvalues down to -slack: a
    bool for one matrix, a bool array over a stack, from one batched
    eigensolve. Raises HermiticityError for non-Hermitian input."""
    t = require_hermitian(t)
    w = np.linalg.eigvalsh((t + t.conj().swapaxes(-1, -2)) / 2.0)
    ok = w.min(axis=-1, initial=0.0) >= -slack(t)
    return bool(ok) if t.ndim == 2 else ok


# Re-exported from the JSON codec, which imports this module.
from .codec import matrix_from_json, matrix_to_json  # noqa: E402,F401
