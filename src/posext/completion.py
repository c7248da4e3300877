"""Partial Hermitian matrices on patterns and their positive completions.

A partial matrix carries one d x d block for every specified pair of a
pattern, all in one (pairs, d, d) stack aligned with `Pattern.pairs`:
it is validated as one array, scattered into a dense matrix by `expand`
and gathered from one by `restrict_to_pattern`. Partial positivity asks
each clique principal submatrix to be PSD; on chordal patterns that is
exactly the condition under which a positive completion exists, and the
completion is computed clique by clique along a clique tree with the
zero-Schur-complement one-step fill

    X = M[A \\ S, S] (M[S, S])^+ M[S, B],

in a loop over arrays made before it (see `positive_completion`). The
rank-one decomposition eliminates along the same steps in reverse. The
dense (n d) x (n d) matrix of `expand` carries block-valued data; its
support is the d x d blocks at the pattern's pairs and their transposes.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain, islice, product
from typing import Mapping

import numpy as np
from numpy.typing import ArrayLike

from . import linalg
from .errors import (
    DimensionMismatch,
    InputError,
    NotChordal,
    NotPartiallyPositive,
    NotPSD,
    NotSupported,
    TooLarge,
)
from .pattern import (
    CliqueTree,
    Pattern,
    _are_pairs,
    _gather,
    _pointers,
    _tuples,
    clique_tree,
    is_chordal,
    maximal_cliques,
)

_SUPPORT_REL = 1e-10
_RESIDUAL_REL = 1e-5  # decompose: largest |sum v v* - T| entry, relative to max |T|
_DAMPING_REL = 1e-12  # decompose: mu, added to each eliminated block's diagonal, relative to max |T|
MAX_DENSE_DIM = 4096  # a dense complex matrix this size takes 256 MiB


@dataclass(eq=False)
class PartialHermitianMatrix:
    """Block-valued entries on the pairs of a pattern, held as one stack.

    blocks maps each ordered pair (i, j) with i <= j of the pattern
    (diagonal pairs and edges) to a d x d complex block; the (j, i)
    block is implicitly the conjugate transpose. Entries must be finite
    and diagonal blocks Hermitian. Only the stack is kept: values is a
    read-only (pairs, d, d) complex array whose row k is the block of
    pair (pattern.pairs[0][k], pattern.pairs[1][k]), and block(i, j)
    reads one block in either orientation. `from_stack` builds one from
    such a stack; the mapping constructor forms the stack and checks it
    the same way.
    """

    pattern: Pattern
    d: int
    blocks: InitVar[Mapping[tuple[int, int], ArrayLike]]
    values: np.ndarray = field(init=False)

    def __post_init__(self, blocks) -> None:
        d = self.d
        if d < 1:
            raise DimensionMismatch(f"block size must be positive, got {d}")
        rows, cols = self.pattern.pairs
        # The counts are compared first: the per-pair keys take O(n) memory.
        keys = list(zip(rows.tolist(), cols.tolist())) if len(blocks) == len(rows) else []
        if len(blocks) != len(rows) or not all(map(blocks.__contains__, keys)):
            raise InputError(
                f"blocks must cover the pattern pairs exactly "
                f"(missing {_missing(self.pattern, blocks)}, "
                f"extraneous {_extraneous(self.pattern, blocks)})"
            )
        given = list(map(blocks.__getitem__, keys))
        try:  # with no pairs, the empty stack gives the shape that an empty list lacks
            values = np.array(given or np.empty((0, d, d)), dtype=complex)
        except ValueError:  # blocks of several shapes, or an entry that is not a number
            for key, block in zip(keys, given):
                shape = np.array(block, dtype=object).shape
                if shape != (d, d):
                    raise DimensionMismatch(f"block {key} has shape {shape}, expected ({d},{d})")
            raise
        if values.shape != (len(keys), d, d):  # one shape for all blocks, the wrong one
            shape = values.shape[1:]
            raise DimensionMismatch(f"block {keys[0]} has shape {shape}, expected ({d},{d})")
        self._hold(values)

    @classmethod
    def from_stack(cls, pattern: Pattern, d: int, values: np.ndarray) -> PartialHermitianMatrix:
        """The partial matrix whose block of pair k of pattern.pairs is values[k].

        values is a (pairs, d, d) complex array; it is taken over and made
        read-only. The checks after the stack is formed are those of the
        mapping constructor, with the same errors.
        """
        if d < 1:
            raise DimensionMismatch(f"block size must be positive, got {d}")
        expected = (len(pattern.pairs[0]), d, d)
        if values.shape != expected or values.dtype != complex:
            raise DimensionMismatch(
                f"stack has shape {values.shape} and type {values.dtype}, expected {expected} complex"
            )
        m = cls.__new__(cls)
        m.pattern, m.d = pattern, d
        m._hold(values)
        return m

    def _hold(self, values: np.ndarray) -> None:
        """Keep values as the stack once every entry is finite and every diagonal block Hermitian."""
        rows, cols = self.pattern.pairs
        bad = ~np.isfinite(values).all(axis=(1, 2))
        if bad.any():
            raise InputError(f"block {_pair(rows, cols, bad)} has a non-finite entry")
        bad = (values != values.conj().swapaxes(1, 2)).any(axis=(1, 2)) & (rows == cols)
        if bad.any():
            raise InputError(f"diagonal block {_pair(rows, cols, bad)} is not Hermitian")
        values.flags.writeable = False
        self.values = values

    @property
    def n(self) -> int:
        return self.pattern.n

    def _repr_pretty_(self, printer, cycle: bool) -> None:  # hypothesis's field walk would read the blocks InitVar
        printer.text(repr(self))

    def block(self, i: int, j: int) -> np.ndarray:
        if i > j:
            return self.block(j, i).conj().T
        rows, cols = self.pattern.pairs
        start, stop = np.searchsorted(rows, [i, i + 1])
        k = start + np.searchsorted(cols[start:stop], j)
        if k == stop or cols[k] != j:
            raise KeyError((i, j))
        return self.values[k]


def _pair(rows: np.ndarray, cols: np.ndarray, bad: np.ndarray) -> tuple[int, int]:
    """The first pair (rows[k], cols[k]) with bad[k]."""
    k = bad.argmax()
    return int(rows[k]), int(cols[k])


def _missing(p: Pattern, blocks: Mapping) -> list[tuple[int, int]]:
    """The first four pairs of p, in row-major order, that blocks lacks; a lazy scan."""
    rows, cols = p.pairs
    chunks = (
        zip(rows[a : a + 4096].tolist(), cols[a : a + 4096].tolist())
        for a in range(0, len(rows), 4096)
    )
    return list(islice((k for k in chain.from_iterable(chunks) if k not in blocks), 4))


def _extraneous(p: Pattern, blocks: Mapping) -> list:
    """The four least keys of blocks that are not pairs of p."""

    def ends(key) -> tuple[int, int]:  # (-1, -1) unless 0 <= i <= j < n
        try:
            i, j = map(operator.index, key)
        except (TypeError, ValueError):  # not a pair of integers
            return -1, -1
        return (i, j) if 0 <= i <= j < p.n else (-1, -1)

    keys = list(blocks)
    i, j = np.array(list(map(ends, keys)), dtype=np.int64).reshape(-1, 2).T
    is_pair = _are_pairs(p, i, j) & (i >= 0)
    return sorted(key for key, ok in zip(keys, is_pair.tolist()) if not ok)[:4]


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """A completed (n d) x (n d) matrix and its fills, one per clique tree step.

    Step k filled the pairs in old x new with separators[k] as separator.
    The steps' old sets lie end to end in the read-only int array old,
    step k's at old[old_ptr[k]:old_ptr[k + 1]], and their new sets
    likewise in new and new_ptr. fills lists the steps as (separator,
    old, new), old and new views into the two arrays.
    """

    matrix: np.ndarray
    separators: tuple[tuple[int, ...], ...]
    old: np.ndarray
    old_ptr: np.ndarray
    new: np.ndarray
    new_ptr: np.ndarray

    @cached_property
    def fills(self) -> tuple[tuple[tuple[int, ...], np.ndarray, np.ndarray], ...]:
        return tuple(
            zip(self.separators, _views(self.old, self.old_ptr), _views(self.new, self.new_ptr))
        )

    @property
    def fill_log(self):
        """The filled pairs in fill order, each as (separator, (u, v)) of Python ints."""
        return tuple(
            (s, pair) for s, old, new in self.fills for pair in product(old.tolist(), new.tolist())
        )


def _views(flat: np.ndarray, ptr: np.ndarray) -> list[np.ndarray]:
    """The slices flat[ptr[k]:ptr[k + 1]]."""
    bounds = ptr.tolist()
    return list(map(flat.__getitem__, map(slice, bounds, bounds[1:])))


def _check_dense_dim(dim: int) -> None:
    """TooLarge before a dense dim x dim matrix above MAX_DENSE_DIM is allocated."""
    if dim > MAX_DENSE_DIM:
        raise TooLarge(f"dense matrix dimension {dim} exceeds the cap of {MAX_DENSE_DIM}")


def _scatter(m: PartialHermitianMatrix, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Dense (n d) x (n d) matrix: upper[k] at pair k = (i, j), lower[k] at (j, i), zeros elsewhere."""
    _check_dense_dim(m.n * m.d)
    i, j = m.pattern.pairs
    out = np.zeros((m.n, m.d, m.n, m.d), dtype=complex)
    out[j, :, i] = lower
    out[i, :, j] = upper  # last, so that diagonal blocks are kept as given
    return out.reshape(m.n * m.d, m.n * m.d)


def expand(m: PartialHermitianMatrix) -> np.ndarray:
    """Dense (n d) x (n d) matrix with zeros on the unspecified pairs."""
    return _scatter(m, m.values, m.values.conj().swapaxes(1, 2))


def restrict_to_pattern(a: np.ndarray, p: Pattern, d: int = 1) -> PartialHermitianMatrix:
    """Partial matrix keeping only the pattern blocks of a full matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (p.n * d, p.n * d):
        raise DimensionMismatch(
            f"matrix has shape {a.shape}, expected {(p.n * d, p.n * d)}"
        )
    i, j = p.pairs
    return PartialHermitianMatrix.from_stack(p, d, a.reshape(p.n, d, p.n, d)[i, :, j])


def _principal_blocks(full: np.ndarray, flat: np.ndarray, ptr: np.ndarray, d: int):
    """(ids, principal blocks of full) for the vertex sets flat[ptr[k]:ptr[k + 1]] of each size."""
    sizes = np.diff(ptr)
    for size in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == size)
        vertices = flat[ptr[ids, None] + np.arange(size)]
        idx = (vertices[:, :, None] * d + np.arange(d)).reshape(len(ids), -1)
        yield ids, full[idx[:, :, None], idx[:, None, :]]


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
    """partially_positive(m, tol) on full = expand(m), one LAPACK call per clique size."""
    cliques = maximal_cliques(m.pattern)
    flat, ptr = np.fromiter(chain(*cliques), dtype=np.int64), _pointers([*map(len, cliques)])
    ok = np.ones(len(cliques), dtype=bool)
    for ids, blocks in _principal_blocks(full, flat, ptr, m.d):
        ok[ids] = linalg.is_psd(blocks, tol)
    bad = np.flatnonzero(~ok)
    return (True, None) if len(bad) == 0 else (False, cliques[bad[0]])


def _fill_steps(tree: CliqueTree, n: int):
    """(sep, sep_ptr, old, old_ptr, new, new_ptr) of the fill steps of the clique tree.

    The steps walk the tree breadth-first from clique 0, children in
    ascending index. Step k joins the clique at place k + 1 through the
    edge to its parent, whose separator is sep[sep_ptr[k]:sep_ptr[k + 1]].
    Its new set holds the vertices that first appear in that clique, its
    old set those that appear earlier, less the separator. All three sets
    ascend and lie end to end likewise, old and new read-only.
    """
    ends = tree.edge_array
    src, dst = ends.T.ravel(), ends[:, ::-1].T.ravel()  # each edge both ways
    order = np.lexsort((dst, src))  # a CSR adjacency: by clique, then by neighbour
    ptr = _pointers(np.bincount(src, minlength=len(tree.clique_ptr) - 1)).tolist()
    neighbors = list(zip(dst[order].tolist(), (order % max(len(ends), 1)).tolist()))
    walk = [(0, -1)] if len(ptr) > 1 else []  # (clique, tree edge to its parent)
    for at, up in walk:  # also visits the entries appended below
        walk += [(nxt, e) for nxt, e in neighbors[ptr[at] : ptr[at + 1]] if e != up]
    cliques, edges = np.array(walk, dtype=np.int64).reshape(-1, 2).T
    steps = max(len(cliques) - 1, 0)  # one per tree edge
    place = np.empty_like(cliques)
    place[cliques] = np.arange(len(cliques))
    first = np.full(n, len(cliques), dtype=np.int64)  # the place of a vertex's first clique
    np.minimum.at(first, tree.members, np.repeat(place, np.diff(tree.clique_ptr)))
    counts = np.bincount(first, minlength=steps + 1)
    new = np.argsort(first, kind="stable")[counts[0] :]
    step_of = np.empty(steps, dtype=np.int64)
    step_of[edges[1:]] = np.arange(steps)
    seen = first <= np.arange(steps)[:, None]  # row k: the vertices of the cliques before step k
    seen[np.repeat(step_of, np.diff(tree.separator_ptr)), tree.separator_members] = False
    old = np.broadcast_to(np.arange(n), seen.shape)[seen]
    old.flags.writeable = new.flags.writeable = False
    sep, sep_ptr = _gather(tree.separator_members, tree.separator_ptr[edges[1:]], np.diff(tree.separator_ptr)[edges[1:]])
    return sep, sep_ptr, old, _pointers(seen.sum(axis=1)), new, _pointers(counts[1:])


def _step_pairs(a: np.ndarray, a_ptr: np.ndarray, b: np.ndarray, b_ptr: np.ndarray):
    """Each step's pairs a_k x b_k row by row, a_k = a[a_ptr[k]:a_ptr[k + 1]], b_k likewise; two int arrays."""
    n_a, n_b = np.diff(a_ptr), np.diff(b_ptr)
    width = np.repeat(n_b, n_a)  # the pairs of each entry of a
    # per entry of a: where its step's b_k starts in b, less where its pairs start
    starts = np.repeat(b_ptr[:-1], n_a) - _pointers(width)[:-1]
    return np.repeat(a, width), b[np.arange(width.sum()) + np.repeat(starts, width)]


def positive_completion(
    m: PartialHermitianMatrix, tol: float | None = None
) -> CompletionResult:
    """Complete a partially positive partial matrix over a chordal pattern.

    Cliques are processed breadth-first from the lowest-index clique of
    the clique tree; each tree edge with separator S contributes the
    one-step fill M[old, new] = M[old, S] M[S, S]^+ M[S, new] that zeroes
    the corresponding Schur complement. The steps' vertex sets come from
    one vectorized pass (_fill_steps). Fills write only old x new and new
    x old, and new vertices first appear at their step, so no fill writes
    an M[S, S] or M[S, new]: all are pseudo-inverted (one stacked call per
    size) or gathered (one flat take) up front. A step gathers M[old, S],
    which earlier fills may have written, and scatters by fancy index (a
    flat put was no faster). The result is PSD up to roundoff and agrees
    with the input exactly on the pattern. A fill beyond the floating-point
    range raises InputError naming the first non-finite entry of the result.
    """
    if not is_chordal(m.pattern):
        raise NotChordal("positive completion requires a chordal pattern")
    full = expand(m)
    ok, witness = _partially_positive(m, full, tol)
    if not ok:
        raise NotPartiallyPositive(f"clique {witness} has a non-PSD block")

    tree = clique_tree(m.pattern)
    sep, sep_ptr, old, old_ptr, new, new_ptr = _fill_steps(tree, m.n)
    inverses = [None] * (len(sep_ptr) - 1)  # in step order
    for ids, blocks in _principal_blocks(full, sep, sep_ptr, m.d):
        for k, inverse in zip(ids.tolist(), linalg.pseudo_inverse(blocks)):
            inverses[k] = inverse

    def rows(vertices: np.ndarray) -> np.ndarray:
        """The matrix rows of the vertices: v d, ..., v d + d - 1 for each v, in order."""
        return (vertices[:, None] * m.d + np.arange(m.d)).ravel()

    mid, mid_ptr, col, col_ptr = rows(sep), sep_ptr * m.d, rows(new), new_ptr * m.d
    b_rows, b_cols = _step_pairs(mid, mid_ptr, col, col_ptr)
    bs = _views(full.take(b_rows * len(full) + b_cols), _pointers(np.diff(mid_ptr) * np.diff(col_ptr)))
    olds, mids, cols = _views(rows(old), old_ptr * m.d), _views(mid, mid_ptr), _views(col, col_ptr)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once the fills are in
        for r, s, c, inverse, b in zip(olds, mids, cols, inverses, bs):
            fill = full.take(s, axis=1).take(r, axis=0) @ inverse @ b.reshape(len(s), len(c))
            full[r[:, None], c] = fill
            full[c[:, None], r] = fill.conj().T
    if not np.isfinite(full.view(float)).all():  # re and im side by side
        bad = np.argwhere(~np.isfinite(full))
        raise InputError("entry ({},{}) of the completion overflows".format(*bad[0]))
    return CompletionResult(full, tuple(_tuples(sep, sep_ptr)), old, old_ptr, new, new_ptr)


def _check_supported(t: np.ndarray, p: Pattern) -> None:
    mag = np.abs(t)
    big = np.triu(mag > _SUPPORT_REL * mag.max(initial=0.0))
    big[p.pairs] = False
    outside = np.argwhere(big)
    if len(outside):
        i, j = outside[0].tolist()
        raise NotSupported(f"entry ({i},{j}) lies outside the pattern")


def rank_one_positive_decomposition(
    t: np.ndarray, p: Pattern, tol: float | None = None
) -> list[linalg.RankOneFactor]:
    """Write a pattern-supported PSD matrix as a sum of clique-supported v v*.

    Eliminates the cliques of the fill steps (_fill_steps) from the last:
    clique 0 has no separator, and each step's clique is the union of its
    separator and new set (running intersection). A leaf clique C with
    separator S absorbs its exclusive rows/columns B = C - S into a PSD part R with
    R[B,B] = T[B,B] + mu I, R[S,S] = T[S,B] (T[B,B] + mu I)^-1 T[B,S] and
    mu = 1e-12 max |T|, which is eigendecomposed into rank ones; the
    residue T - R is supported on the remaining cliques and is processed
    recursively. The damping keeps small pivots from amplifying rounding
    along the tree. Every factor support lies inside a maximal clique and
    the factors sum back to the input, up to mu on the B diagonals. Each
    part gives one factor per eigenvalue above tol (by default 1e-9 (1 +
    its largest diagonal entry)). Eigenvalues of a part that elimination error pushes
    below -tol give no factor, just as those in [-tol, tol] give none.
    NotPSD is raised when the input fails is_psd, or when a part had such
    an eigenvalue and an entry of sum v v* - T exceeds 1e-5 max |T|. A
    part eigenvalue beyond the floating-point range raises InputError
    naming the first non-finite entry of the factors, in output order.
    """
    t = np.array(t, dtype=complex)
    if t.shape != (p.n, p.n):
        raise DimensionMismatch(f"matrix has shape {t.shape}, expected {(p.n, p.n)}")
    if not is_chordal(p):
        raise NotChordal("rank-one decomposition requires a chordal pattern")
    if not linalg.is_psd(t, tol):
        raise NotPSD("matrix is not PSD within tolerance")
    _check_supported(t, p)
    top = np.abs(t).max(initial=0.0)
    if top == 0.0:
        return []
    mu = _DAMPING_REL * top
    residue = t.copy()
    recon = np.zeros_like(t)
    lowest = 0.0  # the least part eigenvalue below its tol
    factors: list[linalg.RankOneFactor] = []
    tree = clique_tree(p)
    sep, sep_ptr, _, _, new, new_ptr = _fill_steps(tree, p.n)
    # each step's clique: its separator and new set, sorted by one lexsort over all steps
    members, steps = np.concatenate((sep, new)), np.arange(len(sep_ptr) - 1)
    of_step = np.concatenate((np.repeat(steps, np.diff(sep_ptr)), np.repeat(steps, np.diff(new_ptr))))
    cliques = [tree.members[: tree.clique_ptr[1]], *_views(members[np.lexsort((members, of_step))], sep_ptr + new_ptr)]
    seps = [sep[:0], *_views(sep, sep_ptr)]  # clique 0, at place 0 of the walk, has none
    for clique, sep in reversed(list(zip(cliques, seps))):
        if len(sep):
            inner = np.isin(clique, sep)  # sorted cliques: sep keeps its order in clique
            own = clique[~inner]
            t_bs = residue[np.ix_(own, sep)]
            t_sb = t_bs.conj().T
            t_bb = residue[np.ix_(own, own)] + mu * np.eye(len(own))
            try:
                r_ss = t_sb @ np.linalg.solve(t_bb, t_bs)
            except np.linalg.LinAlgError:  # the own block has the eigenvalue -mu exactly
                r_ss = t_sb @ linalg.pseudo_inverse(t_bb) @ t_bs
            part = residue[np.ix_(clique, clique)]
            part[np.ix_(~inner, ~inner)] = t_bb
            part[np.ix_(inner, ~inner)] = t_sb
            part[np.ix_(inner, inner)] = r_ss
            residue[np.ix_(sep, sep)] -= r_ss
            residue[own, :] = 0.0
            residue[:, own] = 0.0
        else:  # the root, or the first clique of a further component
            part = residue[np.ix_(clique, clique)]
        w, v = linalg.eigh(part)
        part_tol = linalg.default_psd_tol(part) if tol is None else tol
        if w[0] < -part_tol:
            lowest = min(lowest, w[0])
        members = clique.tolist()
        with np.errstate(invalid="ignore"):  # an eigenvalue beyond the float range; checked below
            kept = linalg.eigen_factors(w, v, part_tol)
        for factor in kept:
            vec = np.zeros(p.n, dtype=complex)
            vec[clique] = factor.vector
            if not np.isfinite(vec).all():
                bad = np.flatnonzero(~np.isfinite(vec))
                raise InputError(f"entry {bad[0]} of factor {len(factors)} overflows")
            factors.append(linalg.RankOneFactor(vec, tuple(members[a] for a in factor.support)))
        if kept:
            local = np.array([f.vector for f in kept])
            recon[np.ix_(clique, clique)] += local.T @ local.conj()
    miss, bound = np.abs(recon - t).max(initial=0.0), _RESIDUAL_REL * top
    if lowest < 0.0 and miss > bound:
        raise NotPSD(
            f"clique part eigenvalue {lowest:.3e} leaves the factors {miss:.3e} from the matrix,"
            f" above {bound:.3e}"
        )
    return factors


def apply_multiplier(m: PartialHermitianMatrix, t: np.ndarray) -> np.ndarray:
    """Entrywise action: block (i, j) of the result is t[i, j] times block (i, j).

    The input matrix must be supported on the pattern; unspecified pairs
    map to zero blocks. A product that overflows raises InputError
    naming its first entry.
    """
    t = linalg.as_finite_matrix(t, m.n)
    _check_supported(t, m.pattern)
    i, j = m.pattern.pairs
    with np.errstate(over="ignore", invalid="ignore"):
        # zeros are written, not multiplied in: 0 * t would leave -0 where t < 0
        upper = t[i, j, None, None] * m.values
        lower = t[j, i, None, None] * m.values.conj().swapaxes(1, 2)
    out = _scatter(m, upper, lower)
    if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
        bad = np.argwhere(~np.isfinite(out))
        raise InputError("entry ({},{}) of the product overflows".format(*bad[0]))
    return out


def cb_norm_positive(phi: np.ndarray, d: int = 1, tol: float | None = None) -> float:
    """Norm of the multiplication map induced by a positive multiplier.

    For a PSD multiplier this equals the largest diagonal block norm
    (the largest diagonal entry when d = 1), read as 0 when roundoff
    within the PSD tolerance leaves it below 0. Raises NotPSD otherwise,
    and InputError naming the first diagonal block whose norm is beyond
    the floating-point range.
    """
    if d < 1:
        raise DimensionMismatch(f"block size must be positive, got {d}")
    phi = np.asarray(phi, dtype=complex)
    if not linalg.is_psd(phi, tol):
        raise NotPSD("cb norm by diagonal inspection needs a PSD multiplier")
    n = phi.shape[0]
    if n % d != 0:
        raise DimensionMismatch(f"dimension {n} is not a multiple of block size {d}")
    k = np.arange(n // d)
    blocks = phi.reshape(len(k), d, len(k), d)[k, :, k]
    norms = np.linalg.eigvalsh(blocks)[:, -1]
    if not np.isfinite(norms).all():
        raise InputError(f"the norm of diagonal block {np.flatnonzero(~np.isfinite(norms))[0]} overflows")
    return max([0.0, *norms.tolist()])


def verify_extension(
    m: PartialHermitianMatrix, phi: np.ndarray, tol: float | None = None
) -> bool:
    """True iff phi agrees with the partial matrix exactly and is PSD."""
    phi = linalg.as_finite_matrix(phi, m.n * m.d)
    i, j = m.pattern.pairs
    blocks = phi.reshape(m.n, m.d, m.n, m.d)
    agrees = np.array_equal(blocks[i, :, j], m.values) and np.array_equal(
        blocks[j, :, i], m.values.conj().swapaxes(1, 2)
    )
    return agrees and linalg.is_psd(phi, tol)
