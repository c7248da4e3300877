"""Positive definite functions on symmetric subsets of finite groups.

A symmetric subset E of a finite group G induces the translation
invariant pattern with an edge between s and t whenever t s^{-1} lies in
E. A function u on E turns into a partial matrix with entry (s, t) equal
to u(t s^{-1}); u is positive definite on E exactly when that partial
matrix is partially positive.

E is a chordal subset, meaning its induced pattern is chordal, exactly
when E is a subgroup H. If H is a subgroup, s and t are joined iff t lies
in the right coset H s, so the pattern is a disjoint union of cliques.
Conversely, right translation (s, t) -> (s r, t r) preserves t s^{-1}, so
the pattern is vertex-transitive; a chordal graph has a simplicial
vertex (Dirac 1961), hence every vertex is simplicial, and the closed
neighbourhood E of the identity is a clique: t s^{-1} lies in E for all
s, t in E, which makes E a subgroup. The clique tree of a subgroup's
pattern has the right cosets as cliques and only empty separators, so
the completion of the kernel of u is zero off the cosets, and averaging
it over right translations gives back u extended by zero (Rudin 1963).
The block on a right coset H s is K[a, b] = u(b a^{-1}) = u(h_b h_a^{-1}),
the block on H with its rows and columns permuted, so the extension
checks the block on H alone for positivity and extends by zero, without
building the pattern or the completion. It restricts to u bit for bit,
signed zeros included, and is +0j off H, whatever the labelling.

Each group holds its multiplication table as one read-only int64 array,
from which `_quotient` reads Q[s, t] = t s^{-1}: on G x G for the pattern
of E and the kernels of functions on G, on E x E for the subgroup test
and the kernel of a function on E.
`validate_group` checks an int64 array as it is, as
`serialize.load_json` and the group constructors hand it over, and any
other table row by row, as `validate_pattern` treats edges.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .completion import partially_positive, restrict_to_pattern
from .errors import (
    DomainMismatch,
    InputError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotChordalSubset,
    NotLatinSquare,
    NotPositiveDefinite,
)
from .linalg import is_psd
from .pattern import Pattern, _integers


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group given by its multiplication table, elements 0..n-1.

    table_array is the int64 table M[s, t] = s t; the group takes the
    array over and makes it read-only. Two groups are equal when they
    have the same order, identity and table.
    """

    order: int
    table_array: np.ndarray
    identity: int
    inverse: tuple[int, ...]

    def __post_init__(self) -> None:
        self.table_array.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (self.order, self.identity) == (other.order, other.identity) and np.array_equal(
            self.table_array, other.table_array
        )

    def __hash__(self) -> int:
        return hash((self.order, self.identity, self.table_array.tobytes()))


@dataclass(frozen=True)
class SymmetricSubset:
    """Inverse-closed subset containing the identity."""

    members: frozenset[int]


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """Complex function on group elements with value(g^-1) == conj(value(g)), signed zeros as given."""

    values: dict[int, complex]

    def __call__(self, g: int) -> complex:
        return self.values[g]

    def domain(self) -> frozenset[int]:
        return frozenset(self.values)


def validate_group(table, identity: int) -> FiniteGroup:
    """Check a multiplication table and compute the inverse map.

    Associativity is decided by Light's test: the elements b with
    (x b) y = x (b y) for all x, y form a set closed under the product,
    so the law holds everywhere once it holds for a generating set, and
    a greedy one has at most log2(n) elements. Only when it fails is the
    table scanned for the lexicographically first failing triple.

    table is an int64 array, which is checked as it is and which the
    group takes over, or any sequence of rows of ints. Raises InputError
    for a non-integer entry or identity, NotLatinSquare, NoIdentity,
    NoInverse or NotAssociative as appropriate.
    """
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype == np.int64:
        rows, lengths = table, {table.shape[1]}
    else:
        rows = [_integers(row) for row in table]
        lengths = set(map(len, rows))
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty multiplication table")
    if lengths != {n}:
        raise NotLatinSquare("multiplication table is not square")
    mul = np.asarray(rows)  # dtype object if an entry exceeds int64
    elements = np.arange(n)
    # With every entry in [0, n), a row (column) is a permutation iff it
    # flags all n symbols: one flag per row and symbol, one per symbol and column.
    if mul.dtype != np.int64 or mul.min() < 0 or mul.max() >= n:
        raise NotLatinSquare("some row is not a permutation")
    for flat, line in ((n * elements[:, None] + mul, "row"), (n * mul + elements, "column")):
        hit = np.zeros(n * n, dtype=bool)
        hit[flat] = True
        if not hit.all():
            raise NotLatinSquare(f"some {line} is not a permutation")
    (e,) = _integers([identity])
    if not 0 <= e < n:
        raise NoIdentity(f"identity index {e} outside [0,{n})")
    if (mul[e] != elements).any() or (mul[:, e] != elements).any():
        raise NoIdentity(f"element {e} is not a two-sided identity")
    inverse = (mul == e).argmax(axis=1)  # s * inverse[s] = e, one per row
    (one_sided,) = np.nonzero(mul[inverse, elements] != e)
    if len(one_sided):
        raise NoInverse(f"element {one_sided[0]} has no two-sided inverse")
    # Light's test: (x b) y against x (b y) over all (x, y), b a generator.
    if not all((mul[mul[:, b]] == mul[:, mul[b]]).all() for b in _generators(mul, e)):
        for a in range(n):
            # (a*b)*c and a*(b*c) over all (b, c): one n x n slab per left factor.
            bad = np.argwhere(mul[mul[a]] != mul[a][mul])
            if len(bad):
                b, c = bad[0].tolist()
                raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return FiniteGroup(n, mul, e, tuple(inverse.tolist()))


def _generators(mul: np.ndarray, e: int) -> list[int]:
    """Greedy generating set of a finite loop: each element not yet generated joins.

    The generated set is the closure under the product. Each new generator
    lies outside a subloop L, so its coset x L is disjoint from L and the
    generated set at least doubles.
    """
    inside = np.zeros(len(mul), dtype=bool)
    inside[e] = True
    gens = []
    while not inside.all():
        gens.append(int(inside.argmin()))  # the least element not yet generated
        inside[gens[-1]] = True
        members = np.flatnonzero(inside)
        while True:  # close under the product
            inside[mul[members[:, None], members]] = True
            size, members = len(members), np.flatnonzero(inside)
            if len(members) in (size, len(mul)):  # closed, or nothing is left outside
                break
    return gens


def cyclic_group(n: int) -> FiniteGroup:
    """Additive group of integers modulo n."""
    a = np.arange(n)
    return validate_group((a[:, None] + a) % n, 0)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon, order 2n; indices 0..n-1 are rotations."""
    if n < 1:
        raise InputError(f"dihedral group needs n >= 1, got {n}")
    # x = (f, a) is s^f r^a, and x * (g, b) = (f xor g, b + a if g == 0 else b - a)
    flip, rot = np.divmod(np.arange(2 * n), n)
    table = (flip[:, None] ^ flip) * n + (rot + (1 - 2 * flip) * rot[:, None]) % n
    return validate_group(table, 0)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) encoded as a * |H| + b."""
    n, m = g.order, h.order
    gt, ht = g.table_array, h.table_array
    table = (gt[:, None, :, None] * m + ht[None, :, None, :]).reshape(n * m, n * m)
    return validate_group(table, g.identity * m + h.identity)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def validate_subset(g: FiniteGroup, members) -> SymmetricSubset:
    """Check that a subset contains the identity and is inverse-closed."""
    got = frozenset(_integers(tuple(members)))
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
    return _quotient_pattern(_quotient(g, range(g.order)), e)


def _quotient_pattern(q: np.ndarray, e: SymmetricSubset) -> Pattern:
    """Pattern joining a < b whenever q[a, b] lies in E."""
    return Pattern(len(q), np.argwhere(np.triu(np.isin(q, list(e.members)), 1)))


def is_chordal_subset(g: FiniteGroup, e: SymmetricSubset) -> bool:
    """True iff the induced pattern is chordal, that is iff E is a subgroup.

    E is inverse-closed and holds the identity, so it is a subgroup iff
    t s^{-1} lies in E for all s, t in E: |E|^2 lookups into the table.
    """
    members = sorted(e.members)
    inside = np.zeros(g.order, dtype=bool)
    inside[members] = True
    return bool(inside[_quotient(g, members)].all())


def _quotient(g: FiniteGroup, members: list[int] | range) -> np.ndarray:
    """Q on members x members: entry (a, b) is members[b] members[a]^{-1}."""
    return g.table_array[np.ix_(members, [g.inverse[x] for x in members])].T


def _check_domain(e: SymmetricSubset, u: GroupFunction) -> None:
    if u.domain() != e.members:
        raise DomainMismatch(
            f"function domain {sorted(u.domain())} differs from subset "
            f"{sorted(e.members)}"
        )


def _lookup(g: FiniteGroup, u: GroupFunction) -> np.ndarray:
    """u as an array over G, zero off its domain."""
    return np.array([u.values.get(x, 0) for x in range(g.order)], dtype=complex)


def is_positive_definite_on(
    g: FiniteGroup, e: SymmetricSubset, u: GroupFunction, tol: float | None = None
) -> bool:
    """Positive definiteness of u on E via partial positivity of its kernel.

    Any tuple with pairwise quotients in E selects a clique of the
    induced pattern, so checking clique submatrices is equivalent to the
    all-tuples condition. Right translation keeps kernel entries, so the
    cliques through the identity, those of the pattern on E, suffice.
    """
    _check_domain(e, u)
    q = _quotient(g, sorted(e.members))
    kernel = restrict_to_pattern(_lookup(g, u)[q], _quotient_pattern(q, e))
    return partially_positive(kernel, tol)[0]


def invariant_kernel(g: FiniteGroup, f: GroupFunction) -> np.ndarray:
    """Kernel K(s, t) = f(t s^{-1}) of a function defined on all of G."""
    if f.domain() != frozenset(range(g.order)):
        raise DomainMismatch("kernel construction needs a function on all of G")
    return _lookup(g, f)[_quotient(g, range(g.order))]


def positive_definite_extension(
    g: FiniteGroup, e: SymmetricSubset, u: GroupFunction, tol: float | None = None
) -> GroupFunction:
    """Extend a positive definite function on a chordal subset to all of G.

    A chordal subset is a subgroup H (see the module docstring), whose
    kernel is block diagonal over the right cosets, each block the block
    on H permuted. u is positive definite iff the |H| x |H| block on
    sorted H is PSD: the matrix that is_positive_definite_on checks, bit
    for bit, so both decide alike. A failure names the first right
    coset, the first clique of the pattern; all blocks fail together.
    That coset is H s for the least element s = 0, which lies in it.
    The extension is u extended by zero, which is bit for bit what
    completing the kernel along its clique tree and averaging the
    completion over right translations gives: it restricts to u bit for
    bit and is +0j off H, whatever the labelling, and has a PSD kernel.
    """
    if not is_chordal_subset(g, e):
        raise NotChordalSubset("subset does not induce a chordal pattern")
    _check_domain(e, u)
    members = sorted(e.members)
    values = _lookup(g, u)
    block = values[_quotient(g, members)]
    upper = np.triu(np.ones(block.shape, dtype=bool))
    # the lower triangle mirrors the upper one, as completion.expand builds it
    if not is_psd(np.where(upper, block, block.conj().T)[None], tol)[0]:
        coset = tuple(sorted(g.table_array[members, 0].tolist()))
        raise NotPositiveDefinite(f"kernel fails: clique {coset} has a non-PSD block")
    return GroupFunction(dict(enumerate(values.tolist())))
