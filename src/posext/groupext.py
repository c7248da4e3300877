"""Positive definite functions on symmetric subsets of finite groups.

A symmetric subset E of a finite group G induces the translation
invariant pattern with an edge between s and t whenever t s^{-1} lies in
E. A function u on E turns into a partial matrix with entry (s, t) equal
to u(t s^{-1}); u is positive definite on E exactly when that partial
matrix is partially positive. When E is a chordal subset, the completed
kernel averaged over right translations yields a positive definite
extension of u to all of G.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .completion import (
    PartialHermitianMatrix,
    partially_positive,
    positive_completion,
)
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    InputError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotChordalSubset,
    NotLatinSquare,
    NotPartiallyPositive,
    NotPositiveDefinite,
    TooLarge,
)
from .pattern import Pattern, is_chordal, validate_pattern

_WORD_ORACLE_CAP = 8


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by its multiplication table, elements 0..n-1."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    def mul(self, s: int, t: int) -> int:
        return self.table[s][t]

    def inv(self, s: int) -> int:
        return self.inverse[s]


@dataclass(frozen=True)
class SymmetricSubset:
    """Inverse-closed subset containing the identity."""

    members: frozenset[int]


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """Complex function on group elements with value(g^-1) = conj(value(g))."""

    values: dict[int, complex]

    def __call__(self, g: int) -> complex:
        return self.values[g]

    def domain(self) -> frozenset[int]:
        return frozenset(self.values)


def validate_group(table, identity: int) -> FiniteGroup:
    """Check a multiplication table and compute the inverse map.

    Raises NotLatinSquare, NoIdentity, NoInverse or NotAssociative as
    appropriate.
    """
    rows = [tuple(int(x) for x in row) for row in table]
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty multiplication table")
    if any(len(row) != n for row in rows):
        raise NotLatinSquare("multiplication table is not square")
    full = set(range(n))
    if any(set(row) != full for row in rows):
        raise NotLatinSquare("some row is not a permutation")
    for j in range(n):
        if {rows[i][j] for i in range(n)} != full:
            raise NotLatinSquare("some column is not a permutation")
    e = int(identity)
    if not 0 <= e < n:
        raise NoIdentity(f"identity index {e} outside [0,{n})")
    if any(rows[e][s] != s or rows[s][e] != s for s in range(n)):
        raise NoIdentity(f"element {e} is not a two-sided identity")
    inverse = [-1] * n
    for s in range(n):
        t = rows[s].index(e)
        if rows[t][s] != e:
            raise NoInverse(f"element {s} has no two-sided inverse")
        inverse[s] = t
    mul = np.array(rows)
    for a in range(n):
        # (a*b)*c and a*(b*c) over all (b, c): one n x n slab per left factor.
        bad = np.argwhere(mul[mul[a]] != mul[a][mul])
        if len(bad):
            b, c = bad[0].tolist()
            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return FiniteGroup(n, tuple(rows), e, tuple(inverse))


def cyclic_group(n: int) -> FiniteGroup:
    """Additive group of integers modulo n."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(table, 0)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon, order 2n; indices 0..n-1 are rotations."""
    if n < 1:
        raise InputError(f"dihedral group needs n >= 1, got {n}")

    def mul(x: int, y: int) -> int:
        f1, a = divmod(x, n)
        f2, b = divmod(y, n)
        if f1 == 0:
            return f2 * n + ((b - a) % n if f2 else (a + b) % n)
        return (1 - f2) * n + ((a + b) % n if f2 == 0 else (b - a) % n)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return validate_group(table, 0)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) encoded as a * |H| + b."""
    n, m = g.order, h.order
    table = [
        [
            g.table[x // m][y // m] * m + h.table[x % m][y % m]
            for y in range(n * m)
        ]
        for x in range(n * m)
    ]
    return validate_group(table, g.identity * m + h.identity)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def validate_subset(g: FiniteGroup, members) -> SymmetricSubset:
    """Check that a subset contains the identity and is inverse-closed."""
    got = frozenset(int(x) for x in members)
    if any(x < 0 or x >= g.order for x in got):
        raise DomainMismatch(f"subset members outside [0,{g.order})")
    if g.identity not in got:
        raise InputError("subset must contain the identity")
    if any(g.inverse[x] not in got for x in got):
        raise InputError("subset must be closed under inverses")
    return SymmetricSubset(got)


def group_function(g: FiniteGroup, values: dict[int, complex]) -> GroupFunction:
    """Validate Hermitian symmetry value(g^-1) = conj(value(g))."""
    vals = {int(k): complex(v) for k, v in values.items()}
    if any(k < 0 or k >= g.order for k in vals):
        raise DomainMismatch(f"function arguments outside [0,{g.order})")
    for k, v in vals.items():
        if not cmath.isfinite(v):
            raise InputError(f"non-finite function value {v!r} at element {k}")
        ki = g.inverse[k]
        if ki not in vals or vals[ki] != v.conjugate():
            raise InputError(
                f"function is not Hermitian-symmetric at element {k}"
            )
    return GroupFunction(vals)


def star_pattern(g: FiniteGroup, e: SymmetricSubset) -> Pattern:
    """Pattern with an edge between s and t whenever t s^{-1} lies in E."""
    edges = [
        (s, t)
        for s in range(g.order)
        for t in range(s + 1, g.order)
        if g.mul(t, g.inverse[s]) in e.members
    ]
    return validate_pattern(g.order, edges)


def is_chordal_subset(g: FiniteGroup, e: SymmetricSubset) -> bool:
    """True iff the induced pattern is chordal."""
    return is_chordal(star_pattern(g, e))


def word_chordality_oracle(g: FiniteGroup, e: SymmetricSubset) -> bool:
    """Exhaustive check of the group-word form of chordality.

    Searches for words s_1, ..., s_n in E (n >= 4) multiplying to the
    identity whose partial products are pairwise distinct and admit no
    chord, i.e. no intermediate product s_{k-1} ... s_i in E with
    2 <= k - i <= n - 2. Distinct partial products bound the word length
    by |G|; longer closed words always repeat a partial product, which
    yields the trivial chord at the identity. Capped at |G| <= 8.
    """
    if g.order > _WORD_ORACLE_CAP:
        raise TooLarge(f"word search is capped at |G| <= {_WORD_ORACLE_CAP}")
    steps = sorted(e.members - {g.identity})

    def has_chord(points: list[int]) -> bool:
        n = len(points)
        for i in range(n):
            for k in range(i + 2, min(i + n - 1, n)):
                if g.mul(points[k], g.inverse[points[i]]) in e.members:
                    return True
        return False

    def search(points: list[int]) -> bool:
        # points are the partial products, starting at the identity
        last = points[-1]
        for s in steps:
            nxt = g.mul(s, last)
            if nxt == g.identity:
                if len(points) >= 4 and not has_chord(points):
                    return False
            elif nxt not in points and len(points) < g.order:
                if not search(points + [nxt]):
                    return False
        return True

    return search([g.identity])


def n_transform(
    g: FiniteGroup, e: SymmetricSubset, u: GroupFunction
) -> PartialHermitianMatrix:
    """Partial matrix on the induced pattern with entry (s, t) = u(t s^{-1})."""
    return _kernel(g, e, u, star_pattern(g, e))


def _kernel(
    g: FiniteGroup, e: SymmetricSubset, u: GroupFunction, p: Pattern
) -> PartialHermitianMatrix:
    if u.domain() != e.members:
        raise DomainMismatch(
            f"function domain {sorted(u.domain())} differs from subset "
            f"{sorted(e.members)}"
        )
    blocks = {}
    for i in range(g.order):
        blocks[(i, i)] = np.array([[u(g.identity)]], dtype=complex)
    for i, j in p.edges:
        blocks[(i, j)] = np.array([[u(g.mul(j, g.inverse[i]))]], dtype=complex)
    return PartialHermitianMatrix(p, 1, blocks)


def is_positive_definite_on(
    g: FiniteGroup, e: SymmetricSubset, u: GroupFunction, tol: float | None = None
) -> bool:
    """Positive definiteness of u on E via partial positivity of its kernel.

    Any tuple with pairwise quotients in E selects a clique of the
    induced pattern, so checking clique submatrices is equivalent to the
    all-tuples condition.
    """
    ok, _ = partially_positive(n_transform(g, e, u), tol)
    return ok


def invariantize(g: FiniteGroup, m: np.ndarray) -> GroupFunction:
    """Average a PSD kernel over right translations.

    v(x) = (1/|G|) sum_r M(r, x r) depends only on the quotient, and its
    kernel K(s, t) = v(t s^{-1}) is an average of simultaneously permuted
    copies of M, hence PSD. Runs of identical entries short-circuit the
    mean so that already invariant kernels are reproduced exactly.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (g.order, g.order):
        raise DimensionMismatch(
            f"matrix has shape {m.shape}, expected {(g.order, g.order)}"
        )
    vals: dict[int, complex] = {}
    for x in range(g.order):
        terms = [complex(m[r, g.mul(x, r)]) for r in range(g.order)]
        first = terms[0]
        if all(t == first for t in terms):
            vals[x] = first
        else:
            vals[x] = sum(terms) / g.order
    for x in range(g.order):
        xi = g.inverse[x]
        if x < xi:
            vals[xi] = vals[x].conjugate()
        elif x == xi:
            vals[x] = complex(vals[x].real, 0.0)
    return GroupFunction(vals)


def invariant_kernel(g: FiniteGroup, f: GroupFunction) -> np.ndarray:
    """Kernel K(s, t) = f(t s^{-1}) of a function defined on all of G."""
    if f.domain() != frozenset(range(g.order)):
        raise DomainMismatch("kernel construction needs a function on all of G")
    out = np.zeros((g.order, g.order), dtype=complex)
    for s in range(g.order):
        for t in range(g.order):
            out[s, t] = f(g.mul(t, g.inverse[s]))
    return out


def positive_definite_extension(
    g: FiniteGroup, e: SymmetricSubset, u: GroupFunction, tol: float | None = None
) -> GroupFunction:
    """Extend a positive definite function on a chordal subset to all of G.

    The kernel of u is completed along the clique tree of the induced
    pattern and the completion is averaged over right translations. The
    result restricts to u exactly and has a PSD kernel.
    """
    p = star_pattern(g, e)
    if not is_chordal(p):
        raise NotChordalSubset("subset does not induce a chordal pattern")
    try:
        completed = positive_completion(_kernel(g, e, u, p), tol)
    except NotPartiallyPositive as exc:
        raise NotPositiveDefinite(f"kernel fails: {exc}") from exc
    return invariantize(g, completed.matrix)
