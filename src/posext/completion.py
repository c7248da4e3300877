"""Partial Hermitian matrices on patterns and their positive completions.

A partial matrix carries one d x d block for every specified pair of a
pattern. Partial positivity asks each clique principal submatrix to be
PSD; on chordal patterns that is exactly the condition under which a
positive completion exists, and the completion is computed clique by
clique along a clique tree with the zero-Schur-complement one-step fill

    X = M[A \\ S, S] (M[S, S])^+ M[S, B].

Block-valued data is worked on as the dense (n d) x (n d) matrix of
`expand`, whose support is the mask of `expanded_pattern`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InputError,
    NotChordal,
    NotPartiallyPositive,
    NotPSD,
    NotSupported,
)
from .pattern import (
    CliqueTree,
    Pattern,
    clique_tree,
    is_chordal,
    maximal_cliques,
    validate_pattern,
)

_SUPPORT_REL = 1e-10


@dataclass(eq=False)
class PartialHermitianMatrix:
    """Block-valued entries on the pairs of a pattern.

    blocks maps each ordered pair (i, j) with i <= j of the pattern
    (diagonal pairs and edges) to a d x d complex block; the (j, i)
    block is implicitly the conjugate transpose. Entries must be finite
    and diagonal blocks Hermitian. Instances are treated as immutable.
    """

    pattern: Pattern
    d: int
    blocks: dict[tuple[int, int], np.ndarray]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DimensionMismatch(f"block size must be positive, got {self.d}")
        required = {(i, i) for i in range(self.pattern.n)} | set(self.pattern.edges)
        got = set(self.blocks)
        if got != required:
            missing = sorted(required - got)
            extra = sorted(got - required)
            raise InputError(
                f"blocks must cover the pattern pairs exactly "
                f"(missing {missing[:4]}, extraneous {extra[:4]})"
            )
        clean = {}
        for key in sorted(self.blocks):
            block = np.array(self.blocks[key], dtype=complex)
            if block.shape != (self.d, self.d):
                raise DimensionMismatch(
                    f"block {key} has shape {block.shape}, expected ({self.d},{self.d})"
                )
            if not np.isfinite(block).all():
                raise InputError(f"block {key} has a non-finite entry")
            if key[0] == key[1] and not np.array_equal(block, block.conj().T):
                raise InputError(f"diagonal block {key} is not Hermitian")
            clean[key] = block
        self.blocks = clean

    @property
    def n(self) -> int:
        return self.pattern.n

    def block(self, i: int, j: int) -> np.ndarray:
        if i <= j:
            return self.blocks[(i, j)]
        return self.blocks[(j, i)].conj().T


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """A completed (n d) x (n d) matrix plus the log of filled pairs."""

    matrix: np.ndarray
    fill_log: tuple[tuple[tuple[int, ...], tuple[int, int]], ...]


def expanded_pattern(p: Pattern, d: int) -> Pattern:
    """Pattern on n*d vertices with every vertex replaced by d copies."""
    if d == 1:
        return p
    edges = []
    for i, j in p.edges:
        edges.extend((i * d + a, j * d + b) for a in range(d) for b in range(d))
    for i in range(p.n):
        edges.extend((i * d + a, i * d + b) for a in range(d) for b in range(a + 1, d))
    return validate_pattern(p.n * d, edges)


def expand(m: PartialHermitianMatrix) -> np.ndarray:
    """Dense (n d) x (n d) matrix with zeros on the unspecified pairs."""
    d = m.d
    out = np.zeros((m.n * d, m.n * d), dtype=complex)
    for (i, j), block in m.blocks.items():
        out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
        if i != j:
            out[j * d : (j + 1) * d, i * d : (i + 1) * d] = block.conj().T
    return out


def restrict_to_pattern(a: np.ndarray, p: Pattern, d: int = 1) -> PartialHermitianMatrix:
    """Partial matrix keeping only the pattern blocks of a full matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (p.n * d, p.n * d):
        raise DimensionMismatch(
            f"matrix has shape {a.shape}, expected {(p.n * d, p.n * d)}"
        )
    pairs = [(i, i) for i in range(p.n)] + sorted(p.edges)
    blocks = {
        (i, j): a[i * d : (i + 1) * d, j * d : (j + 1) * d].copy() for i, j in pairs
    }
    return PartialHermitianMatrix(p, d, blocks)


def _expand_indices(vertices, d: int) -> list[int]:
    return [v * d + a for v in vertices for a in range(d)]


def partially_positive(
    m: PartialHermitianMatrix, tol: float | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Check PSD-ness of every maximal-clique principal submatrix.

    Returns (True, None), or (False, witness) with a failing clique.
    Every specified square sits inside a maximal clique, so checking the
    maximal cliques alone is equivalent and cheaper.
    """
    return _partially_positive(m, expand(m), tol)


def _partially_positive(m: PartialHermitianMatrix, full: np.ndarray, tol):
    """partially_positive(m, tol) with full = expand(m) already built."""
    for clique in maximal_cliques(m.pattern):
        idx = _expand_indices(clique, m.d)
        if not linalg.is_psd(full[np.ix_(idx, idx)], tol):
            return False, clique
    return True, None


def _root_first(tree: CliqueTree) -> list[tuple[int, int | None, tuple[int, ...]]]:
    """Cliques breadth-first from clique 0, children in ascending index.

    Each entry is (clique, parent, separator shared with the parent); the
    root has parent None and an empty separator.
    """
    neighbors: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in tree.cliques]
    for (i, j), sep in zip(tree.tree_edges, tree.separators):
        neighbors[i].append((j, sep))
        neighbors[j].append((i, sep))
    walk = [(0, None, ())] if tree.cliques else []
    seen = {0}
    for at, _, _ in walk:  # also visits the entries appended below
        for nxt, sep in sorted(neighbors[at]):
            if nxt not in seen:
                seen.add(nxt)
                walk.append((nxt, at, sep))
    return walk


def positive_completion(
    m: PartialHermitianMatrix, tol: float | None = None
) -> CompletionResult:
    """Complete a partially positive partial matrix over a chordal pattern.

    Cliques are processed breadth-first from the lowest-index clique of
    the clique tree; each tree edge with separator S contributes the
    one-step fill that zeroes the corresponding Schur complement. The
    result is PSD up to roundoff and agrees with the input exactly on the
    pattern.
    """
    if not is_chordal(m.pattern):
        raise NotChordal("positive completion requires a chordal pattern")
    full = expand(m)
    ok, witness = _partially_positive(m, full, tol)
    if not ok:
        raise NotPartiallyPositive(f"clique {witness} has a non-PSD block")

    tree = clique_tree(m.pattern)
    log: list[tuple[tuple[int, ...], tuple[int, int]]] = []
    d = m.d
    seen_vertices: set[int] = set()
    for k, _, sep in _root_first(tree):
        new = sorted(set(tree.cliques[k]) - seen_vertices)
        old = sorted(seen_vertices - set(sep))
        if new and old:
            rows = _expand_indices(old, d)
            mid = _expand_indices(sep, d)
            cols = _expand_indices(new, d)
            fill = (
                full[np.ix_(rows, mid)]
                @ linalg.pseudo_inverse(full[np.ix_(mid, mid)])
                @ full[np.ix_(mid, cols)]
            )
            full[np.ix_(rows, cols)] = fill
            full[np.ix_(cols, rows)] = fill.conj().T
            log.extend((tuple(sep), (u, v)) for u in old for v in new)
        seen_vertices.update(new)
    return CompletionResult(full, tuple(log))


def _check_supported(t: np.ndarray, p: Pattern) -> None:
    mag = np.abs(t)
    outside = np.argwhere(np.triu(mag > _SUPPORT_REL * mag.max(initial=0.0)) & ~p.mask)
    if len(outside):
        i, j = outside[0].tolist()
        raise NotSupported(f"entry ({i},{j}) lies outside the pattern")


def rank_one_positive_decomposition(
    t: np.ndarray, p: Pattern, tol: float | None = None
) -> list[linalg.RankOneFactor]:
    """Write a pattern-supported PSD matrix as a sum of clique-supported v v*.

    Walks the clique tree from the leaves: a leaf clique C with separator
    S absorbs its exclusive rows/columns B = C - S into a PSD part R with
    R[S,S] = T[S,B] (T[B,B])^+ T[B,S], which is eigendecomposed into rank
    ones; the residue T - R is supported on the remaining cliques and is
    processed recursively. Every factor support lies inside a maximal
    clique and the factors sum back to the input.
    """
    t = np.array(t, dtype=complex)
    if t.shape != (p.n, p.n):
        raise DimensionMismatch(f"matrix has shape {t.shape}, expected {(p.n, p.n)}")
    if not is_chordal(p):
        raise NotChordal("rank-one decomposition requires a chordal pattern")
    if not linalg.is_psd(t, tol):
        raise NotPSD("matrix is not PSD within tolerance")
    _check_supported(t, p)

    tree = clique_tree(p)
    residue = t.copy()
    factors: list[linalg.RankOneFactor] = []
    for k, parent, sep in reversed(_root_first(tree)):
        clique = list(tree.cliques[k])
        if parent is None:
            part = residue[np.ix_(clique, clique)]
        else:
            sep = list(sep)
            sep_set = set(sep)
            own = [v for v in clique if v not in sep_set]
            t_bb = residue[np.ix_(own, own)]
            t_bs = residue[np.ix_(own, sep)]
            t_sb = t_bs.conj().T
            r_ss = t_sb @ linalg.pseudo_inverse(t_bb) @ t_bs
            part = np.zeros((len(clique), len(clique)), dtype=complex)
            local = {v: a for a, v in enumerate(clique)}
            own_l = [local[v] for v in own]
            sep_l = [local[v] for v in sep]
            part[np.ix_(own_l, own_l)] = t_bb
            part[np.ix_(own_l, sep_l)] = t_bs
            part[np.ix_(sep_l, own_l)] = t_sb
            part[np.ix_(sep_l, sep_l)] = r_ss
            residue[np.ix_(sep, sep)] -= r_ss
            residue[own, :] = 0.0
            residue[:, own] = 0.0
        for factor in linalg.rank_one_factors(part, tol):
            vec = np.zeros(p.n, dtype=complex)
            vec[clique] = factor.vector
            support = tuple(clique[a] for a in factor.support)
            factors.append(linalg.RankOneFactor(vec, support))
    return factors


def apply_multiplier(m: PartialHermitianMatrix, t: np.ndarray) -> np.ndarray:
    """Entrywise action: block (i, j) of the result is t[i, j] times block (i, j).

    The input matrix must be supported on the pattern; unspecified pairs
    map to zero blocks.
    """
    t = linalg.as_finite_matrix(t, m.n)
    _check_supported(t, m.pattern)
    scale = np.repeat(np.repeat(t, m.d, axis=0), m.d, axis=1)
    # zeros are written, not multiplied in: 0 * t would leave -0 where t < 0
    return np.where(expanded_pattern(m.pattern, m.d).mask, scale * expand(m), 0)


def cb_norm_positive(phi: np.ndarray, d: int = 1, tol: float | None = None) -> float:
    """Norm of the multiplication map induced by a positive multiplier.

    For a PSD multiplier this equals the largest diagonal block norm
    (the largest diagonal entry when d = 1). Raises NotPSD otherwise.
    """
    if d < 1:
        raise DimensionMismatch(f"block size must be positive, got {d}")
    phi = np.asarray(phi, dtype=complex)
    if not linalg.is_psd(phi, tol):
        raise NotPSD("cb norm by diagonal inspection needs a PSD multiplier")
    n = phi.shape[0]
    if d == 1:
        return max((phi[i, i].real for i in range(n)), default=0.0)
    if n % d != 0:
        raise DimensionMismatch(f"dimension {n} is not a multiple of block size {d}")
    best = 0.0
    for i in range(n // d):
        block = phi[i * d : (i + 1) * d, i * d : (i + 1) * d]
        best = max(best, float(np.linalg.eigvalsh(block)[-1]))
    return best


def verify_extension(
    m: PartialHermitianMatrix, phi: np.ndarray, tol: float | None = None
) -> bool:
    """True iff phi agrees with the partial matrix exactly and is PSD."""
    phi = linalg.as_finite_matrix(phi, m.n * m.d)
    support = expanded_pattern(m.pattern, m.d).mask
    return np.array_equal(phi[support], expand(m)[support]) and linalg.is_psd(phi, tol)
