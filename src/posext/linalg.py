"""Dense complex Hermitian linear algebra on top of numpy's LAPACK eigensolver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError

_PINV_REL = 1e-12
_SUPPORT_REL = 1e-12


@dataclass(frozen=True, eq=False)
class RankOneFactor:
    """A vector v contributing v v* to a PSD decomposition."""

    vector: np.ndarray
    support: tuple[int, ...]


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix has a non-finite entry")
    return m


def as_finite_matrix(a, n: int) -> np.ndarray:
    """a as a complex n x n array, uncopied if it is one; DimensionMismatch or InputError."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (n, n):
        raise DimensionMismatch(f"matrix has shape {m.shape}, expected {(n, n)}")
    return _as_matrix(m)


def default_psd_tol(a) -> np.ndarray:
    """Scale-aware default tolerance 1e-9 * (1 + max diagonal entry), per matrix."""
    diag = _as_matrix(a).diagonal(0, -2, -1).real
    top = diag.max(axis=-1) if diag.shape[-1] else np.zeros(diag.shape[:-1])
    return 1e-9 * (1.0 + top)


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V* of a Hermitian matrix or stack (LAPACK).

    Eigenvalues come back ascending with matching eigenvector columns.
    """
    return np.linalg.eigh(_as_matrix(a))


def smallest_eigenvalues(a) -> np.ndarray:
    """The smallest eigenvalue of a matrix or of each matrix of a stack; inf if empty."""
    m = _as_matrix(a)
    return np.linalg.eigvalsh(m)[..., 0] if m.shape[-1] else np.full(m.shape[:-2], np.inf)


def is_psd(a, tol: float | None = None):
    """True iff the smallest eigenvalue is at least -tol; one flag per matrix of a stack."""
    m = _as_matrix(a)
    ok = smallest_eigenvalues(m) >= -(default_psd_tol(m) if tol is None else tol)
    return ok if m.ndim > 2 else bool(ok)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse through the eigendecomposition, of a matrix or a stack.

    Eigenvalues of magnitude at most 1e-12 times the largest in their
    matrix are treated as zero, and so are those whose reciprocal
    overflows (subnormal ones).
    """
    m = _as_matrix(a)
    if m.shape[-1] == 0:
        return m
    w, v = eigh(m)
    cut = _PINV_REL * np.max(np.abs(w), axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        inv = np.divide(1.0, np.where(w == 0, 1.0, w))
    inv = np.where((np.abs(w) <= cut) | np.isinf(inv), 0.0, inv)
    out = (v * inv[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def _support(vec: np.ndarray) -> tuple[int, ...]:
    mags = np.abs(vec)
    top = float(np.max(mags)) if vec.size else 0.0
    cut = _SUPPORT_REL * top
    return tuple(int(i) for i in np.nonzero(mags > cut)[0])


def eigen_factors(w: np.ndarray, v: np.ndarray, tol) -> list[RankOneFactor]:
    """The factors sqrt(w[k]) v[:, k] of the eigenpairs with w[k] above tol, in the given order.

    The other eigenpairs give none, so the factors sum back to V diag(w)
    V* up to the eigenvalues at most tol, the negative ones included.
    """
    vecs = [math.sqrt(w[k]) * v[:, k] for k in range(len(w)) if w[k] > tol]
    return [RankOneFactor(vec, _support(vec)) for vec in vecs]
