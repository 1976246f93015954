"""Dense complex linear algebra helpers.

Matrices are numpy arrays of complex128 in row-major layout. Everything
here is a thin, validated layer over numpy so the rest of the package can
assume square, finite, well-shaped inputs. One absolute tolerance,
ABS_EPS, scaled by the largest entry (`slack`), decides Hermiticity and
positivity everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError

ABS_EPS = 1e-9


def slack(t: np.ndarray) -> float:
    """The allowance ABS_EPS * (1 + max|t|) of the Hermiticity and
    positivity checks."""
    return ABS_EPS * (1.0 + float(np.abs(t).max(initial=0.0)))


def as_cmatrix(t) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(t, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def hermiticity_defect(t: np.ndarray) -> float:
    t = np.asarray(t)
    return float(np.abs(t - t.conj().T).max()) if t.size else 0.0


def require_hermitian(t: np.ndarray) -> np.ndarray:
    """Return t unchanged if it is Hermitian within `slack`, else raise."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {t.shape}")
    bound = slack(t)
    defect = hermiticity_defect(t)
    if defect > bound:
        raise HermiticityError(
            f"matrix is not Hermitian: defect {defect:.3e} > {bound:.3e}"
        )
    return t


def is_psd(t: np.ndarray) -> bool:
    """Positive semidefiniteness, allowing eigenvalues down to -slack(t).
    Raises HermiticityError for non-Hermitian input."""
    t = require_hermitian(t)
    w = np.linalg.eigvalsh((t + t.conj().T) / 2.0)
    return bool(w.min(initial=0.0) >= -slack(t))


# Re-exported from the JSON codec, which imports this module.
from .codec import matrix_from_json, matrix_to_json  # noqa: E402,F401
