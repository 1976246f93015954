"""Dense complex linear algebra helpers.

Matrices are numpy arrays of complex128 in row-major layout. Everything
here is a thin, validated layer over numpy so the rest of the package can
assume square, finite, well-shaped inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative comparison thresholds."""

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9


DEFAULT_TOL = Tolerance()


def as_cmatrix(t) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(t, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major index convention
    (i1, i2) -> i1 * dim2 + i2."""
    return np.kron(a, b)


def _check_product_shape(t: np.ndarray, dim1: int, dim2: int) -> None:
    if t.shape != (dim1 * dim2, dim1 * dim2):
        raise DimensionError(
            f"matrix shape {t.shape} does not factor as ({dim1}*{dim2})^2"
        )


def partial_trace_second(t: np.ndarray, dim1: int, dim2: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dim1*dim2)-square matrix."""
    t = np.asarray(t)
    _check_product_shape(t, dim1, dim2)
    return np.einsum("ikjk->ij", t.reshape(dim1, dim2, dim1, dim2))


def partial_trace_first(t: np.ndarray, dim1: int, dim2: int) -> np.ndarray:
    """Trace out the first tensor factor of a (dim1*dim2)-square matrix."""
    t = np.asarray(t)
    _check_product_shape(t, dim1, dim2)
    return np.einsum("kikj->ij", t.reshape(dim1, dim2, dim1, dim2))


def hermiticity_defect(t: np.ndarray) -> float:
    t = np.asarray(t)
    return float(np.abs(t - t.conj().T).max()) if t.size else 0.0


def require_hermitian(t: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Return t unchanged if it is Hermitian within tolerance, else raise."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {t.shape}")
    bound = tol.abs_eps * (1.0 + float(np.abs(t).max(initial=0.0)))
    defect = hermiticity_defect(t)
    if defect > bound:
        raise HermiticityError(
            f"matrix is not Hermitian: defect {defect:.3e} > {bound:.3e}"
        )
    return t


def hermitian_eig(t: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, q) with ascending real eigenvalues w and unitary q whose
    columns are the eigenvectors, so t = q @ diag(w) @ q^dag.
    """
    t = require_hermitian(t, tol)
    w, q = np.linalg.eigh((t + t.conj().T) / 2.0)
    return w, q


def is_psd(t: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness, allowing eigenvalues down to
    -abs_eps * (1 + max|t|). Raises HermiticityError for non-Hermitian input."""
    t = require_hermitian(t, tol)
    w = np.linalg.eigvalsh((t + t.conj().T) / 2.0)
    floor = -tol.abs_eps * (1.0 + float(np.abs(t).max(initial=0.0)))
    return bool(w.min(initial=0.0) >= floor)


def trace_norm(t: np.ndarray) -> float:
    """Sum of singular values, computed from the eigenvalues of t^dag t
    with negative round-off clipped to zero."""
    t = as_cmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise DimensionError(f"trace_norm expects a square matrix, got {t.shape}")
    w = np.linalg.eigvalsh(t.conj().T @ t)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def approx_eq(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Frobenius-distance comparison:
    ||a - b||_F <= abs_eps + rel_eps * max(||a||_F, ||b||_F)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= tol.abs_eps + tol.rel_eps * scale


# Re-exported from the JSON codec, which imports this module.
from .codec import matrix_from_json, matrix_to_json  # noqa: E402,F401
