"""Dense complex Hermitian linear algebra on top of numpy's LAPACK eigensolver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, NotPSD

_PINV_REL = 1e-12
_SUPPORT_REL = 1e-12


@dataclass(frozen=True, eq=False)
class RankOneFactor:
    """A vector v contributing v v* to a PSD decomposition."""

    vector: np.ndarray
    support: tuple[int, ...]


def _as_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix has a non-finite entry")
    return m


def as_finite_matrix(a, n: int) -> np.ndarray:
    """A complex n x n copy of a; DimensionMismatch or InputError otherwise."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (n, n):
        raise DimensionMismatch(f"matrix has shape {m.shape}, expected {(n, n)}")
    return _as_matrix(m)


def _max_diag(m: np.ndarray) -> float:
    return max((m[i, i].real for i in range(m.shape[0])), default=0.0)


def default_psd_tol(a) -> float:
    """Scale-aware default tolerance: 1e-9 * (1 + max diagonal entry)."""
    return 1e-9 * (1.0 + _max_diag(_as_matrix(a)))


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V* of a Hermitian matrix (LAPACK).

    Eigenvalues come back ascending with matching eigenvector columns.
    """
    return np.linalg.eigh(_as_matrix(a))


def is_psd(a, tol: float | None = None) -> bool:
    """True iff the minimum eigenvalue is at least -tol."""
    m = _as_matrix(a)
    if m.shape[0] == 0:
        return True
    if tol is None:
        tol = default_psd_tol(m)
    return bool(np.linalg.eigvalsh(m)[0] >= -tol)


def psd_cholesky(a, tol: float = 1e-9) -> np.ndarray:
    """Semidefinite Cholesky factor L with L L* = A.

    Pivots below tol * (max diagonal) are zeroed together with their
    column; a pivot below -tol * (max diagonal) raises NotPSD.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    threshold = tol * _max_diag(m)
    low = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j].real - float(np.sum(np.abs(low[j, :j]) ** 2))
        if pivot < -threshold:
            raise NotPSD(f"pivot {pivot:.3e} at column {j} is below -{threshold:.3e}")
        if pivot <= threshold:
            continue
        ljj = math.sqrt(pivot)
        low[j, j] = ljj
        if j + 1 < n:
            low[j + 1 :, j] = (m[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j].conj()) / ljj
    return low


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse through the eigendecomposition.

    Eigenvalues of magnitude at most 1e-12 times the largest are treated
    as zero.
    """
    m = _as_matrix(a)
    if m.shape[0] == 0:
        return m.copy()
    w, v = eigh(m)
    wmax = float(np.max(np.abs(w)))
    cut = _PINV_REL * wmax
    inv = np.where(np.abs(w) <= cut, 0.0, np.divide(1.0, np.where(w == 0, 1.0, w)))
    out = (v * inv) @ v.conj().T
    return (out + out.conj().T) / 2.0


def schur_complement(a, block) -> np.ndarray:
    """Generalized Schur complement A/block on the complementary indices.

    Uses the pseudo-inverse of the block principal submatrix, so singular
    blocks are allowed.
    """
    m = _as_matrix(a)
    picked = sorted({int(i) for i in block})
    if any(i < 0 or i >= m.shape[0] for i in picked):
        raise ValueError(f"block indices {picked} outside [0,{m.shape[0]})")
    rest = [i for i in range(m.shape[0]) if i not in set(picked)]
    mbb = m[np.ix_(picked, picked)]
    return (
        m[np.ix_(rest, rest)]
        - m[np.ix_(rest, picked)] @ pseudo_inverse(mbb) @ m[np.ix_(picked, rest)]
    )


def _support(vec: np.ndarray) -> tuple[int, ...]:
    mags = np.abs(vec)
    top = float(np.max(mags)) if vec.size else 0.0
    cut = _SUPPORT_REL * top
    return tuple(int(i) for i in np.nonzero(mags > cut)[0])


def rank_one_factors(a, tol: float | None = None) -> list[RankOneFactor]:
    """Split a PSD matrix into rank-one pieces sqrt(l_k) u_k.

    Eigenpairs with eigenvalue above tol contribute one factor each, in
    ascending eigenvalue order; the factors sum back to the input.
    """
    m = _as_matrix(a)
    if tol is None:
        tol = default_psd_tol(m)
    if m.shape[0] == 0:
        return []
    w, v = eigh(m)
    if w[0] < -tol:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} is below -{tol:.3e}")
    out = []
    for k in range(len(w)):
        if w[k] > tol:
            vec = math.sqrt(w[k]) * v[:, k]
            out.append(RankOneFactor(vec, _support(vec)))
    return out
