"""Positive definite functions on symmetric subsets of finite groups.

A symmetric subset E of a finite group G induces the translation
invariant pattern with an edge between s and t whenever t s^{-1} lies in
E. A function u on E turns into a partial matrix with entry (s, t) equal
to u(t s^{-1}); u is positive definite on E exactly when that partial
matrix is partially positive. When E is a chordal subset, the completed
kernel averaged over right translations yields a positive definite
extension of u to all of G.

Each group caches one quotient table Q[s, t] = t s^{-1}; the pattern of
E and the kernels of functions on E or on G are lookups into it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .completion import (
    PartialHermitianMatrix,
    partially_positive,
    positive_completion,
    restrict_to_pattern,
)
from .errors import (
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
from .linalg import as_finite_matrix
from .pattern import Pattern, is_chordal

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

    @cached_property
    def quotient(self) -> np.ndarray:
        """Read-only table Q[s, t] = t s^{-1}."""
        q = np.array(self.table)[:, self.inverse].T
        q.flags.writeable = False
        return q


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


def _integers(values) -> tuple[int, ...]:
    """The values as ints; InputError for a value that is not a whole number."""
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != tuple(values):
        raise InputError(f"expected integers, got {values!r}")
    return ints


def validate_group(table, identity: int) -> FiniteGroup:
    """Check a multiplication table and compute the inverse map.

    Raises InputError for a non-integer entry or identity, NotLatinSquare,
    NoIdentity, NoInverse or NotAssociative as appropriate.
    """
    rows = [_integers(row) for row in table]
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty multiplication table")
    if any(len(row) != n for row in rows):
        raise NotLatinSquare("multiplication table is not square")
    mul = np.array(rows)  # dtype object if an entry exceeds int64
    elements = np.arange(n)
    if (np.sort(mul, axis=1) != elements).any():
        raise NotLatinSquare("some row is not a permutation")
    if (np.sort(mul, axis=0) != elements[:, None]).any():
        raise NotLatinSquare("some column is not a permutation")
    (e,) = _integers([identity])
    if not 0 <= e < n:
        raise NoIdentity(f"identity index {e} outside [0,{n})")
    if (mul[e] != elements).any() or (mul[:, e] != elements).any():
        raise NoIdentity(f"element {e} is not a two-sided identity")
    _, inverse = np.nonzero(mul == e)  # s * inverse[s] = e, one per row
    (one_sided,) = np.nonzero(mul[inverse, elements] != e)
    if len(one_sided):
        raise NoInverse(f"element {one_sided[0]} has no two-sided inverse")
    for a in range(n):
        # (a*b)*c and a*(b*c) over all (b, c): one n x n slab per left factor.
        bad = np.argwhere(mul[mul[a]] != mul[a][mul])
        if len(bad):
            b, c = bad[0].tolist()
            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return FiniteGroup(n, tuple(rows), e, tuple(inverse.tolist()))


def cyclic_group(n: int) -> FiniteGroup:
    """Additive group of integers modulo n."""
    a = np.arange(n)
    return validate_group(((a[:, None] + a) % n).tolist(), 0)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon, order 2n; indices 0..n-1 are rotations."""
    if n < 1:
        raise InputError(f"dihedral group needs n >= 1, got {n}")
    # x = (f, a) is s^f r^a, and x * (g, b) = (f xor g, b + a if g == 0 else b - a)
    flip, rot = np.divmod(np.arange(2 * n), n)
    table = (flip[:, None] ^ flip) * n + (rot + (1 - 2 * flip) * rot[:, None]) % n
    return validate_group(table.tolist(), 0)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) encoded as a * |H| + b."""
    n, m = g.order, h.order
    gt, ht = np.array(g.table), np.array(h.table)
    table = (gt[:, None, :, None] * m + ht[None, :, None, :]).reshape(n * m, n * m)
    return validate_group(table.tolist(), g.identity * m + h.identity)


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
    s, t = np.nonzero(np.triu(np.isin(g.quotient, list(e.members)), 1))
    return Pattern(g.order, frozenset(zip(s.tolist(), t.tolist())))


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
        chords = np.triu(np.isin(g.quotient[np.ix_(points, points)], list(e.members)), 2)
        chords[0, -1] = False  # the first and last point are neighbours on the walk
        return bool(chords.any())

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
    return restrict_to_pattern(_lookup(g, u)[g.quotient], p)


def _lookup(g: FiniteGroup, u: GroupFunction) -> np.ndarray:
    """u as an array over G, zero off its domain."""
    return np.array([u.values.get(x, 0) for x in range(g.order)], dtype=complex)


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
    m = as_finite_matrix(m, g.order)
    # terms[x, r] = M(r, x r); Python's sum keeps the left-to-right rounding.
    terms = m[np.arange(g.order), np.array(g.table)]
    constant = (terms == terms[:, :1]).all(axis=1)
    vals: dict[int, complex] = {}
    for x, row in enumerate(terms.tolist()):
        vals[x] = row[0] if constant[x] else sum(row) / g.order
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
    return _lookup(g, f)[g.quotient]


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
