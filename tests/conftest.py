"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import heapq
import itertools
import json
import math

import numpy as np
from hypothesis import HealthCheck, settings

from posext import (
    FiniteGroup,
    GroupFunction,
    PartialHermitianMatrix,
    Pattern,
    SymmetricSubset,
    cyclic_group,
    dihedral_group,
    group_function,
    is_chordal,
    klein_four_group,
    positive_completion,
    star_pattern,
    validate_pattern,
    validate_subset,
)
from posext.errors import TooLarge
from posext.groupext import _quotient
from posext.pattern import ChordalStructure, CliqueTree, _tuples
from posext.serialize import _Coded, _IntLists, _Table

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def band_pattern(n: int, width: int) -> Pattern:
    return validate_pattern(
        n, [(i, j) for i in range(n) for j in range(i + 1, min(i + width + 1, n))]
    )


def cycle_pattern(n: int) -> Pattern:
    return validate_pattern(n, [(i, (i + 1) % n) for i in range(n)])


def complete_pattern(n: int) -> Pattern:
    return validate_pattern(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_pattern(rng: np.random.Generator, n: int, max_edges: int) -> Pattern:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    k = int(rng.integers(0, min(max_edges, len(pairs)) + 1))
    chosen = rng.choice(len(pairs), size=k, replace=False) if k else []
    return validate_pattern(n, [pairs[int(c)] for c in chosen])


def random_chordal_pattern(
    rng: np.random.Generator, n: int, density: float = 0.45
) -> Pattern:
    """Random chordal pattern: random graph plus its elimination fill-in."""
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i].add(j)
                adj[j].add(i)
    order = list(rng.permutation(n))
    eliminated = set()
    for v in order:
        live = [w for w in adj[v] if w not in eliminated]
        for a, b in itertools.combinations(live, 2):
            adj[a].add(b)
            adj[b].add(a)
        eliminated.add(v)
    return validate_pattern(n, [(i, j) for i in range(n) for j in adj[i] if j > i])


def random_chordal_components(
    rng: np.random.Generator, n: int, parts: int, density: float = 0.2
) -> Pattern:
    """Disjoint union of up to `parts` random chordal pieces on shuffled vertices.

    Sparse pieces often fall apart further, leaving isolated vertices.
    """
    labels = [int(v) for v in rng.permutation(n)]
    cuts = sorted(rng.choice(np.arange(1, n), size=min(parts, n) - 1, replace=False)) if n else []
    edges = []
    for piece in np.split(np.array(labels, dtype=int), cuts):
        sub = random_chordal_pattern(rng, len(piece), density)
        edges.extend((int(piece[i]), int(piece[j])) for i, j in sub.edge_array.tolist())
    return validate_pattern(n, edges)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    b = rng.normal(size=(n, rank or n)) + 1j * rng.normal(size=(n, rank or n))
    a = b @ b.conj().T
    return (a + a.conj().T) / 2


def psd_supported_on(rng: np.random.Generator, p: Pattern) -> np.ndarray:
    """Random PSD matrix supported on a pattern: clique-local Gram pieces."""
    from posext import maximal_cliques

    out = np.zeros((p.n, p.n), dtype=complex)
    for clique in maximal_cliques(p):
        idx = list(clique)
        out[np.ix_(idx, idx)] += random_psd(rng, len(idx))
    return (out + out.conj().T) / 2


def dense_mask(p: Pattern) -> np.ndarray:
    """Oracle: the n x n support of a pattern, the diagonal and both orientations of each edge."""
    out = np.eye(p.n, dtype=bool)
    for i, j in p.edge_array.tolist():
        out[i, j] = out[j, i] = True
    return out


def is_valid_elimination_order(p: Pattern, order) -> bool:
    pos = {v: k for k, v in enumerate(order)}
    mask = dense_mask(p)
    for v in order:
        later = [w for w in range(p.n) if mask[v, w] and pos[w] > pos[v]]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not mask[later[a], later[b]]:
                    return False
    return True


def _connected(nodes, edges) -> bool:
    """True iff the edges among the given nodes connect them all."""
    nodes = set(nodes)
    adj = {k: set() for k in nodes}
    for i, j in edges:
        if i in nodes and j in nodes:
            adj[i].add(j)
            adj[j].add(i)
    seen = {min(nodes)} if nodes else set()
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return seen == nodes


def simplicial_cliques(p: Pattern) -> list[tuple[int, ...]]:
    """Oracle for chordal patterns: maximal cliques by simplicial elimination.

    Repeatedly removes the lowest vertex whose remaining neighbours form
    a clique; every maximal clique is such a vertex plus those neighbours.
    """
    adj = [set() for _ in range(p.n)]
    for i, j in p.edge_array.tolist():
        adj[i].add(j)
        adj[j].add(i)
    live = set(range(p.n))
    cand = []
    while live:
        for v in sorted(live):
            nbrs = adj[v] & live
            if all(nbrs - {a} <= adj[a] for a in nbrs):
                break
        else:
            raise AssertionError("pattern has no simplicial vertex, so is not chordal")
        cand.append(frozenset(nbrs | {v}))
        live.remove(v)
    return sorted(tuple(sorted(c)) for c in set(cand) if not any(c < d for d in cand))


def ref_square_partition(p: Pattern) -> list[tuple[int, ...]]:
    """Reference for square_partition: the remaining vertices rebuilt after every block.

    Each block is the lexicographically least maximal clique of the
    pattern induced on the remaining vertices.
    """
    adj = [set() for _ in range(p.n)]
    for i, j in p.edge_array.tolist():
        adj[i].add(j)
        adj[j].add(i)
    remaining = list(range(p.n))
    blocks = []
    while remaining:
        block = [remaining[0]]
        for w in remaining[1:]:
            if adj[w].issuperset(block):
                block.append(w)
        blocks.append(tuple(block))
        taken = set(block)
        remaining = [v for v in remaining if v not in taken]
    return blocks


def packed(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Int sequences as one flat int64 array and the pointers to where each starts and ends."""
    seqs = [list(s) for s in seqs]
    flat = np.array([v for s in seqs for v in s], dtype=np.int64)
    return flat, np.cumsum([0] + [len(s) for s in seqs], dtype=np.int64)


def int_lists(lists) -> _IntLists:
    """The int lists of a sequence of int sequences, held as a flat array and pointers."""
    return _IntLists(*packed(lists))


def tree_views(tree: CliqueTree) -> dict[str, list[tuple[int, ...]]]:
    """A clique tree's cliques, tree edges and separators as lists of tuples, keyed as clique-tree prints them."""
    return {
        "cliques": _tuples(tree.members, tree.clique_ptr),
        "tree_edges": list(map(tuple, tree.edge_array.tolist())),
        "separators": _tuples(tree.separator_members, tree.separator_ptr),
    }


def assert_valid_clique_tree(p: Pattern, tree) -> None:
    """Maximal cliques joined by a spanning tree, all in canonical order.

    The cliques must be exactly those of the simplicial-elimination
    oracle; the tree edges must span them, separators must be the clique
    intersections, the cliques holding any vertex must form a subtree
    (running intersection), and edges must be sorted by decreasing
    separator size, then by (i, j) with i < j.
    """
    views = tree_views(tree)
    edges = views["tree_edges"]
    assert views["cliques"] == simplicial_cliques(p)
    cliques = [set(c) for c in views["cliques"]]
    assert len(edges) == max(len(cliques) - 1, 0)
    assert _connected(range(len(cliques)), edges)
    for (i, j), sep in zip(edges, views["separators"]):
        assert i < j and sep == tuple(sorted(cliques[i] & cliques[j]))
    keys = [(-len(s), i, j) for (i, j), s in zip(edges, views["separators"])]
    assert keys == sorted(keys)
    for v in range(p.n):
        assert _connected([k for k, c in enumerate(cliques) if v in c], edges)


def brute_force_maximal_cliques(p: Pattern) -> list[tuple[int, ...]]:
    """Oracle: scan all vertex subsets (n small)."""
    cliques = []
    verts = list(range(p.n))
    mask = dense_mask(p)
    for r in range(1, p.n + 1):
        for sub in itertools.combinations(verts, r):
            if all(mask[a, b] for a, b in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


_CYCLE_ORACLE_CAP = 12


def chordless_cycles(p: Pattern, max_len: int) -> list[list[int]]:
    """Oracle: the chordless cycles of length 4..max_len, by induced-path search.

    Each cycle is reported once, as the rotation starting at its smallest
    vertex and moving towards its smaller neighbour. Capped at 12 vertices.
    """
    if p.n > _CYCLE_ORACLE_CAP:
        raise TooLarge(f"chordless-cycle enumeration is capped at n <= {_CYCLE_ORACLE_CAP}")
    ptr, nbr = p.indptr.tolist(), p.indices.tolist()
    found: list[list[int]] = []

    def extend(path: list[int]) -> None:
        for u in nbr[ptr[path[-1]] : ptr[path[-1] + 1]]:
            if u <= path[0] or u in path:
                continue
            hits = [k for k in range(len(path) - 1) if u in nbr[ptr[path[k]] : ptr[path[k] + 1]]]
            if not hits:
                if len(path) < max_len:
                    extend(path + [u])
            elif hits == [0] and 4 <= len(path) + 1 <= max_len and path[1] < u:
                found.append(path + [u])

    if max_len >= 4:
        for s in range(p.n):
            for t in nbr[ptr[s] : ptr[s + 1]]:
                if t > s:
                    extend([s, t])
    return sorted(found, key=lambda c: (len(c), c))


def all_small_groups() -> list[tuple[str, FiniteGroup]]:
    """One table per isomorphism class of order at most 6."""
    return [
        ("Z1", cyclic_group(1)),
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("K4", klein_four_group()),
        ("Z5", cyclic_group(5)),
        ("Z6", cyclic_group(6)),
        ("S3", dihedral_group(3)),
    ]


def symmetric_subsets(g: FiniteGroup) -> list[SymmetricSubset]:
    """Every inverse-closed subset containing the identity."""
    orbits = []
    seen = set()
    for x in range(g.order):
        if x == g.identity or x in seen:
            continue
        orbit = frozenset({x, g.inverse[x]})
        seen |= orbit
        orbits.append(orbit)
    subsets = []
    for mask in range(1 << len(orbits)):
        members = {g.identity}
        for k, orbit in enumerate(orbits):
            if mask >> k & 1:
                members |= orbit
        subsets.append(validate_subset(g, members))
    return subsets


def random_pd_function(rng: np.random.Generator, g: FiniteGroup, e: SymmetricSubset):
    """Restriction to E of an autocorrelation function, exactly symmetrized."""
    f = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    table = g.table_array.tolist()
    full = {}
    for x in range(g.order):
        acc = 0.0 + 0.0j
        for r in range(g.order):
            acc += f[r].conjugate() * f[table[x][r]]
        full[x] = acc / g.order
    vals = {}
    for x in sorted(e.members):
        xi = g.inverse[x]
        if xi in vals:
            vals[x] = vals[xi].conjugate()
        elif x == xi:
            vals[x] = complex(full[x].real, 0.0)
        else:
            vals[x] = full[x]
    return group_function(g, vals)


# -- reference loops ----------------------------------------------------------
# Element-by-element versions of the table and support code in groupext and
# completion. Tests compare the library against them exactly.

def bits(values) -> bytes:
    """Raw bytes of complex values: tells -0.0 from 0.0."""
    return np.asarray(values, dtype=complex).tobytes()


def ref_validate_group(table, identity: int):
    """Reference for validate_group: (order, rows, identity, inverse) or raises."""
    from posext.errors import NoIdentity, NoInverse, NotAssociative, NotLatinSquare

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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return n, tuple(rows), e, tuple(inverse)


def group_fields(g: FiniteGroup):
    """(order, rows, identity, inverse) of a group, as ref_validate_group gives them."""
    return g.order, tuple(map(tuple, g.table_array.tolist())), g.identity, g.inverse


def ref_dihedral_table(n: int) -> list[list[int]]:
    def mul(x: int, y: int) -> int:
        f1, a = divmod(x, n)
        f2, b = divmod(y, n)
        if f1 == 0:
            return f2 * n + ((b - a) % n if f2 else (a + b) % n)
        return (1 - f2) * n + ((a + b) % n if f2 == 0 else (b - a) % n)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def ref_direct_product_table(g: FiniteGroup, h: FiniteGroup) -> list[list[int]]:
    n, m = g.order, h.order
    gt, ht = g.table_array.tolist(), h.table_array.tolist()
    return [
        [gt[x // m][y // m] * m + ht[x % m][y % m] for y in range(n * m)]
        for x in range(n * m)
    ]


# Item texts that are not canonical JSON ints, or not JSON at all.
NON_CANONICAL_ITEMS = [
    "true", "1.0", "1e3", "-0", "-", "007", "-05", "1 2", "- 5", "+5", "0x10", "[7]",
    str(2**63), str(-(2**63) - 1), str(10**18), str(-(10**18)), "99999999999999999999",
]


# The key path of the int-rows field of each kind of document, and the
# document around it: "@" stands for the entries of the field's object that
# come before its other keys.
ROWS_FIELDS = {"group": ("table",), "pattern": ("edges",), "partial": ("pattern", "edges")}
_ROWS_TEMPLATES = {
    "group": '{"order": 3, @"identity": 0}',
    "pattern": '{@"n": 3}',
    "partial": '{"pattern": {@"n": 3}, "n": 3, "d": 1, "blocks": []}',
}


def partial_document(m: PartialHermitianMatrix) -> dict:
    """The document of a partial matrix, in plain Python values, as partial_from_json reads it."""
    rows, cols = m.pattern.pairs
    blocks = [
        {"i": i, "j": j, "block": [[{"re": z.real, "im": z.imag} for z in row] for row in block]}
        for i, j, block in zip(rows.tolist(), cols.tolist(), m.values.tolist())
    ]
    return {
        "n": m.n,
        "d": m.d,
        "pattern": {"n": m.n, "edges": m.pattern.edge_array.tolist()},
        "blocks": blocks,
    }


def rows_document(kind: str, entries: str) -> bytes:
    """A document of the kind whose field's object starts with the entries (each ending in ", ")."""
    return _ROWS_TEMPLATES[kind].replace("@", entries).encode()


def malformed_documents(kind: str) -> list[tuple[str, bytes]]:
    """(id, text) of documents of the kind whose int-rows field the array reader must leave to json.

    Each starts from three rows: Z_3's table for a group, a triangle's
    edges for a pattern or a partial matrix. The item cases replace the
    last item; the others break the field's layout or put its key where
    only a full JSON reader finds it. Some are still valid to json.
    """
    name = ROWS_FIELDS[kind][-1]
    base = [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]
    if kind != "group":
        base = [["0", "1"], ["1", "2"], ["0", "2"]]
    escaped = name[0] + "\\u%04x" % ord(name[1]) + name[2:]

    def rows(items) -> str:
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in items) + "]"

    def doc(text: str, key: str = name, before: str = "") -> bytes:
        return rows_document(kind, before + f'"{key}": {text}, ')

    out = [(f"item-{item}", doc(rows(base[:2] + [base[2][:-1] + [item]]))) for item in NON_CANONICAL_ITEMS]
    for case, text in [
        ("empty", "[]"),
        ("empty-row", "[[]]"),
        ("ragged", "[[0, 1], [1]]"),
        ("trailing-comma", "[[0, 1,], [1, 0]]"),
        ("trailing-comma-in-the-last-row", "[[0, 1], [1, 0,]]"),
        ("trailing-comma-after-leading-zeros", "[[0, 1, 2], [1, 2, 0], [2, 000,]]"),
        ("empty-last-row", "[[0], []]"),
        ("doubled-comma", "[[0,, 1], [1, 0]]"),
        ("third-level", "[[[0, 1], [1, 0]]]"),
        ("item-between-rows", "[[0, 1] 5, [1, 0]]"),
        ("ragged-rows-of-equal-mean", rows([["0"] * 4, ["0"] * 10, ["0"] * 16])),
        ("one-level", "[0, 1]"),
        ("one-level-leading-zeros", "[000, 1]"),
        ("one-level-leading-zero-and-bracket", "[00, 1]]"),
        ("unclosed", "[[0, 1], [1, 0]"),
        ("unclosed-leading-zero", "[[00, 1]"),
        # np.fromstring reads a blank, "+", VT or FF item as 0; a leading zero, a
        # stray bracket or a dropped one ("18]0" read as 180) can make up the
        # length that a blank lacks
        ("blank-item-and-stray-bracket", "[[0 , 1 ] ],[ ,  2 ]]"),
        ("blank-item-and-leading-zero", "[[ , 07], [1, 2]]"),
        ("middle-plus", "[[0, +], [1, 2]]"),
        ("middle-vt", "[[0, \x0b], [1, 2]]"),
        ("middle-ff", "[[0, \x0c], [1, 2]]"),
        ("digit-after-bracket", "[[1, 18]0, , 2]]"),
    ]:
        out.append((case, doc(text)))
    text = rows(base)
    out += [
        ("duplicate-key", doc(text, before=f'"{name}": [[0]], ')),
        (f"{name}-in-a-string", doc(text, before=f'"note": "{name}", ')),
        ("escaped-key", doc(text, key=escaped)),
        ("escaped-key-and-decoy", doc(text, key=escaped, before=f'"x\\"{name}": [[0]], ')),
        ("nested-key", doc(f'{{"{name}": {text}}}', key="meta")),
        ("missing-key", rows_document(kind, "")),
        ("bom", b"\xef\xbb\xbf" + doc(text)),
        ("invalid-utf-8", doc(text)[:-1] + b', "note": "\xff"}'),
    ]
    return out


def ref_star_edges(g: FiniteGroup, e: SymmetricSubset) -> set[tuple[int, int]]:
    return {
        (s, t)
        for s in range(g.order)
        for t in range(s + 1, g.order)
        if g.table_array[t, g.inverse[s]] in e.members
    }


def ref_is_chordal_subset(g: FiniteGroup, e: SymmetricSubset) -> bool:
    """Reference for is_chordal_subset: chordality of the induced pattern."""
    return is_chordal(star_pattern(g, e))


_WORD_ORACLE_CAP = 8


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
        chords = np.triu(np.isin(_quotient(g, points), list(e.members)), 2)
        chords[0, -1] = False  # the first and last point are neighbours on the walk
        return bool(chords.any())

    def search(points: list[int]) -> bool:
        # points are the partial products, starting at the identity
        last = points[-1]
        for s in steps:
            nxt = int(g.table_array[s, last])
            if nxt == g.identity:
                if len(points) >= 4 and not has_chord(points):
                    return False
            elif nxt not in points and len(points) < g.order:
                if not search(points + [nxt]):
                    return False
        return True

    return search([g.identity])


def ref_positive_definite_extension(g: FiniteGroup, e: SymmetricSubset, u, tol=None):
    """Reference for positive_definite_extension: the completion route.

    Completes the kernel of u along the clique tree of the induced
    pattern and averages the completion over right translations.
    """
    from posext.errors import NotChordalSubset, NotPartiallyPositive, NotPositiveDefinite

    if not ref_is_chordal_subset(g, e):
        raise NotChordalSubset("subset does not induce a chordal pattern")
    try:
        completed = positive_completion(ref_kernel(g, e, u), tol)
    except NotPartiallyPositive as exc:
        raise NotPositiveDefinite(f"kernel fails: {exc}") from exc
    return GroupFunction(ref_invariantize(g, completed.matrix))


def ref_kernel(g: FiniteGroup, e: SymmetricSubset, u) -> PartialHermitianMatrix:
    """The partial matrix on the induced pattern with entry (s, t) = u(t s^{-1})."""
    from posext.errors import DomainMismatch

    if u.domain() != e.members:
        raise DomainMismatch(
            f"function domain {sorted(u.domain())} differs from subset {sorted(e.members)}"
        )
    p = star_pattern(g, e)
    return PartialHermitianMatrix(p, 1, ref_kernel_blocks(g, u, p))


def ref_kernel_blocks(g: FiniteGroup, u, p: Pattern) -> dict:
    blocks = {}
    for i in range(g.order):
        blocks[(i, i)] = np.array([[u(g.identity)]], dtype=complex)
    for i, j in p.edge_array.tolist():
        blocks[(i, j)] = np.array([[u(int(g.table_array[j, g.inverse[i]]))]], dtype=complex)
    return blocks


def ref_invariant_kernel(g: FiniteGroup, f) -> np.ndarray:
    table = g.table_array.tolist()
    out = np.zeros((g.order, g.order), dtype=complex)
    for s in range(g.order):
        for t in range(g.order):
            out[s, t] = f(table[t][g.inverse[s]])
    return out


def ref_invariantize(g: FiniteGroup, m: np.ndarray) -> dict[int, complex]:
    m = np.asarray(m, dtype=complex)
    table = g.table_array.tolist()
    vals: dict[int, complex] = {}
    for x in range(g.order):
        terms = [complex(m[r, table[x][r]]) for r in range(g.order)]
        first = terms[0]
        if all(t == first for t in terms):
            vals[x] = first
        else:
            vals[x] = sum(terms) / g.order
    return vals


def ref_first_unsupported(t: np.ndarray, p: Pattern, rel: float):
    """First (i, j), i < j, off the pattern with |t[i, j]| above rel * max |t|."""
    cut = rel * (float(np.max(np.abs(t))) if t.size else 0.0)
    mask = dense_mask(p)
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if not mask[i, j] and abs(t[i, j]) > cut:
                return i, j
    return None


def ref_apply_multiplier(m, t: np.ndarray) -> np.ndarray:
    d = m.d
    out = np.zeros((m.n * d, m.n * d), dtype=complex)
    mask = dense_mask(m.pattern)
    for i in range(m.n):
        for j in range(m.n):
            if mask[i, j]:
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] = t[i, j] * m.block(i, j)
    return out


def ref_agrees_on_pattern(m, phi: np.ndarray) -> bool:
    d = m.d
    for i, j in np.argwhere(np.triu(dense_mask(m.pattern))).tolist():
        block = m.block(i, j)
        if not np.array_equal(phi[i * d : (i + 1) * d, j * d : (j + 1) * d], block):
            return False
        if i != j and not np.array_equal(
            phi[j * d : (j + 1) * d, i * d : (i + 1) * d], block.conj().T
        ):
            return False
    return True


def ref_partially_positive(m, tol=None):
    """Reference for partially_positive: one PSD test per maximal clique, in order."""
    from posext import expand, linalg, maximal_cliques

    full = expand(m)
    for clique in maximal_cliques(m.pattern):
        idx = [v * m.d + a for v in clique for a in range(m.d)]
        if not linalg.is_psd(full[np.ix_(idx, idx)], tol):
            return False, clique
    return True, None


def ref_root_first(tree: CliqueTree) -> list[tuple[int, int | None, tuple[int, ...]]]:
    """Reference for completion's walk: breadth-first from clique 0, children in ascending index.

    Each entry is (clique, parent, separator shared with the parent); the
    root has parent None and an empty separator.
    """
    views = tree_views(tree)
    neighbors: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in views["cliques"]]
    for (i, j), sep in zip(views["tree_edges"], views["separators"]):
        neighbors[i].append((j, sep))
        neighbors[j].append((i, sep))
    walk = [(0, None, ())] if neighbors else []
    seen = {0}
    for at, _, _ in walk:  # also visits the entries appended below
        for nxt, sep in sorted(neighbors[at]):
            if nxt not in seen:
                seen.add(nxt)
                walk.append((nxt, at, sep))
    return walk


def ref_positive_completion(m, tol=None):
    """Reference for positive_completion: (matrix, fill_log) or raises.

    Walks the clique tree one clique at a time, inverting each separator
    block when its step comes and logging every filled pair.
    """
    from posext import clique_tree, expand, linalg
    from posext.errors import NotChordal, NotPartiallyPositive

    if not is_chordal(m.pattern):
        raise NotChordal("positive completion requires a chordal pattern")
    full = expand(m)
    ok, witness = ref_partially_positive(m, tol)
    if not ok:
        raise NotPartiallyPositive(f"clique {witness} has a non-PSD block")

    def expand_indices(vertices, d):
        return [v * d + a for v in vertices for a in range(d)]

    tree = clique_tree(m.pattern)
    cliques = tree_views(tree)["cliques"]
    log = []
    d = m.d
    seen_vertices = set()
    for k, _, sep in ref_root_first(tree):
        new = sorted(set(cliques[k]) - seen_vertices)
        old = sorted(seen_vertices - set(sep))
        if new and old:
            rows = expand_indices(old, d)
            mid = expand_indices(sep, d)
            cols = expand_indices(new, d)
            fill = (
                full[np.ix_(rows, mid)]
                @ linalg.pseudo_inverse(full[np.ix_(mid, mid)])
                @ full[np.ix_(mid, cols)]
            )
            full[np.ix_(rows, cols)] = fill
            full[np.ix_(cols, rows)] = fill.conj().T
            log.extend((tuple(sep), (u, v)) for u in old for v in new)
        seen_vertices.update(new)
    return full, tuple(log)


def ref_rank_one_positive_decomposition(t: np.ndarray, p: Pattern, tol=None) -> list:
    """Reference for rank_one_positive_decomposition's factors on inputs it accepts.

    The leaf-first loop over ref_root_first, one clique at a time, with
    the library's damping, eigensolver and factor cut; the input checks
    and the residual check are left out.
    """
    from posext import clique_tree, linalg
    from posext.completion import _DAMPING_REL

    t = np.array(t, dtype=complex)
    top = np.abs(t).max(initial=0.0)
    if top == 0.0:
        return []
    mu = _DAMPING_REL * top
    residue = t.copy()
    tree = clique_tree(p)
    cliques = tree_views(tree)["cliques"]
    factors = []
    for k, _, sep in reversed(ref_root_first(tree)):
        clique, sep = np.array(cliques[k], dtype=np.int64), np.array(sep, dtype=np.int64)
        if len(sep):
            inner = np.isin(clique, sep)
            own = clique[~inner]
            t_bs = residue[np.ix_(own, sep)]
            t_sb = t_bs.conj().T
            t_bb = residue[np.ix_(own, own)] + mu * np.eye(len(own))
            try:
                r_ss = t_sb @ np.linalg.solve(t_bb, t_bs)
            except np.linalg.LinAlgError:
                r_ss = t_sb @ linalg.pseudo_inverse(t_bb) @ t_bs
            part = residue[np.ix_(clique, clique)]
            part[np.ix_(~inner, ~inner)] = t_bb
            part[np.ix_(inner, ~inner)] = t_sb
            part[np.ix_(inner, inner)] = r_ss
            residue[np.ix_(sep, sep)] -= r_ss
            residue[own, :] = 0.0
            residue[:, own] = 0.0
        else:
            part = residue[np.ix_(clique, clique)]
        w, v = linalg.eigh(part)
        part_tol = linalg.default_psd_tol(part) if tol is None else tol
        for factor in linalg.eigen_factors(w, v, part_tol):
            vec = np.zeros(p.n, dtype=complex)
            vec[clique] = factor.vector
            factors.append((vec, tuple(cliques[k][a] for a in factor.support)))
    return factors


def ref_is_positive_definite_on(g: FiniteGroup, e: SymmetricSubset, u, tol=None) -> bool:
    """Reference for is_positive_definite_on: every maximal clique of the whole pattern."""
    from posext import partially_positive

    return partially_positive(ref_kernel(g, e, u), tol)[0]


# -- reference emitter and chordal structure ------------------------------------
# The value-by-value JSON walk and the maximum cardinality search as they
# were before json's encoder took the integer lists and the search began
# recording followers as it runs. Tests require identical results.

def ref_dumps(doc, pretty: bool = False) -> str:
    """Reference for dumps: every value walked one by one, a _Table as its rows, _IntLists as lists."""
    out: list[str] = []
    _ref_emit(doc, out, 0 if pretty else None)
    return "".join(out)


def _ref_table_rows(table) -> list[dict]:
    columns = [
        [c.values[k] for k in c.codes.tolist()] if isinstance(c, _Coded) else c.tolist()
        for c in table.columns
    ]
    return [dict(zip(table.keys, row)) for row in zip(*columns)]


def _ref_emit(value, out: list[str], indent) -> None:
    if value is None or isinstance(value, (bool, str)):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite numbers are not serializable")
        out.append(ref_float_text(x))
    elif isinstance(value, dict):
        _ref_emit_items(value.items(), out, indent, "{", "}", key=True)
    elif isinstance(value, (list, tuple)):
        _ref_emit_items(value, out, indent, "[", "]", key=False)
    elif isinstance(value, _Table):
        _ref_emit(_ref_table_rows(value), out, indent)
    elif isinstance(value, _IntLists):
        flat, ptr = value.flat.tolist(), value.ptr.tolist()
        _ref_emit([flat[a:b] for a, b in zip(ptr, ptr[1:])], out, indent)
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def ref_float_text(x: float) -> str:
    """A float as dumps writes it: %.17g, but -0.0 (which %.17g writes "-0") as "-0.0"."""
    return "-0.0" if x == 0 and math.copysign(1.0, x) < 0 else format(x, ".17g")


def _ref_pad(indent, depth: int) -> str:
    return "" if indent is None else "\n" + "  " * (indent + depth)


def _ref_emit_items(items, out, indent, open_ch, close_ch, key: bool) -> None:
    items = list(items)
    if not items:
        out.append(open_ch + close_ch)
        return
    nested = None if indent is None else indent + 1
    pad = _ref_pad(indent, 1)
    sep = "," + pad
    colon = ":" if indent is None else ": "
    out.append(open_ch + pad)
    for item in items:
        if key:
            name, item = item
            out.append(json.dumps(str(name)) + colon)
        _ref_emit(item, out, nested)
        out.append(sep)
    out[-1] = _ref_pad(indent, 0) + close_ch


def ref_chordal_structure(p: Pattern):
    """Reference for _chordal_structure: followers found after the search ends."""
    adj = [set() for _ in range(p.n)]
    for i, j in p.edge_array.tolist():
        adj[i].add(j)
        adj[j].add(i)
    weight = [0] * p.n
    heap = [(0, -v) for v in range(p.n)]
    heapq.heapify(heap)
    visit: list[int] = []
    earlier: list = [None] * p.n
    while heap:
        w, v = heapq.heappop(heap)
        v = -v
        if earlier[v] is not None or -w != weight[v]:
            continue
        earlier[v] = frozenset(u for u in adj[v] if earlier[u] is not None)
        visit.append(v)
        for u in adj[v]:
            if earlier[u] is None:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], -u))
    order = np.array(visit[::-1], dtype=np.int64)

    pos = {v: k for k, v in enumerate(visit)}
    follower = {v: max(earlier[v], key=pos.__getitem__) for v in visit if earlier[v]}
    if any(not earlier[v] - {f} <= earlier[f] for v, f in follower.items()):
        return ChordalStructure(order, False, None)

    cliques: list[list[int]] = []
    component: list[int] = []
    links = []
    home = {}
    roots = 0
    for k, v in enumerate(visit):
        if k and len(earlier[v]) > len(earlier[visit[k - 1]]):
            cliques[-1].append(v)
        else:
            if v in follower:
                links.append((len(cliques), home[follower[v]], earlier[v]))
            else:
                roots += 1
            component.append(roots)
            cliques.append([*earlier[v], v])
        home[v] = len(cliques) - 1

    keys = [tuple(sorted(c)) for c in cliques]
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    index = {k: r for r, k in enumerate(rank)}
    lowest: dict[int, int] = {}
    for k in rank:
        lowest.setdefault(component[k], index[k])
    edges = [
        (min(index[a], index[b]), max(index[a], index[b]), tuple(sorted(sep)))
        for a, b, sep in links
    ]
    edges += [(0, r, ()) for r in sorted(lowest.values())[1:]]
    edges.sort(key=lambda e: (-len(e[2]), e[0], e[1]))
    tree = CliqueTree(
        *packed(keys[k] for k in rank),
        np.array([(i, j) for i, j, _ in edges], dtype=np.int64).reshape(-1, 2),
        *packed(sep for _, _, sep in edges),
    )
    return ChordalStructure(order, True, tree)
