"""Finite symmetric patterns and their chordal structure.

A pattern is an undirected graph on vertices 0..n-1 whose loops are
implicit: every diagonal pair is considered present and is never stored.
One maximum cardinality search per pattern, cached on the pattern, gives
its elimination order and recognises chordality; on chordal patterns the
same search also yields the maximal cliques and a clique tree with the
running intersection property (Tarjan & Yannakakis 1984; Blair & Peyton
1993). Non-chordal patterns fall back to Bron-Kerbosch for their cliques,
and a brute-force chordless-cycle oracle is provided for cross-checking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import IndexOutOfRange, InputError, NotChordal, TooLarge

_BRUTE_FORCE_CLIQUE_CAP = 20
_CYCLE_ORACLE_CAP = 12


@dataclass(frozen=True)
class Pattern:
    """Symmetric edge set on 0..n-1 with an implicit diagonal.

    Edges are stored once as pairs (i, j) with i < j.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only n x n support: the diagonal and both orientations of every edge."""
        out = np.eye(self.n, dtype=bool)
        i, j = np.array(list(self.edges), dtype=int).reshape(-1, 2).T
        out[i, j] = out[j, i] = True
        out.flags.writeable = False
        return out

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, cols) of the pairs i <= j of the support, in row-major order."""
        rows, cols = np.nonzero(np.triu(self.mask))
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def structure(self) -> ChordalStructure:
        """The chordal structure, computed once per pattern."""
        return _chordal_structure(self)


@dataclass(frozen=True)
class EliminationOrder:
    """A vertex order in which each vertex's later neighbours form a clique."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class CliqueTree:
    """Maximal cliques arranged in a tree with the running intersection property."""

    cliques: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]
    separators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ChordalStructure:
    """What one maximum cardinality search reveals about a pattern.

    order is the reversed visit order; it is a perfect elimination order
    exactly when chordal is True. tree is the clique tree of a chordal
    pattern and None otherwise.
    """

    order: tuple[int, ...]
    chordal: bool
    tree: CliqueTree | None


def _integers(values) -> tuple[int, ...]:
    """The values as ints; InputError for one that is not a whole number or is a bool."""
    got = tuple(values)
    if set(map(type, got)) <= {int}:
        return got
    try:
        ints = tuple(map(int, got))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != got or any(isinstance(v, (bool, np.bool_)) for v in got):
        raise InputError(f"expected integers, got {values!r}")
    return ints


def validate_pattern(n: int, edge_list: Iterable[Sequence[int]]) -> Pattern:
    """Build a normalized pattern from a raw edge list.

    Duplicate and reversed pairs are merged; loops are dropped (the
    diagonal is implicit). Raises InputError unless every edge is two
    integers, and IndexOutOfRange for endpoints outside [0, n).
    """
    if n < 0:
        raise IndexOutOfRange(f"vertex count must be nonnegative, got {n}")
    edges = set()
    for pair in edge_list:
        try:
            i, j = pair
            if type(i) is not int or type(j) is not int:
                i, j = _integers(pair)
        except (TypeError, ValueError, InputError):
            raise InputError(f"edge {pair!r} is not a pair of integers") from None
        if not (0 <= i < n) or not (0 <= j < n):
            raise IndexOutOfRange(f"edge ({i},{j}) outside [0,{n})")
        if i == j:
            continue
        edges.add((min(i, j), max(i, j)))
    return Pattern(n, frozenset(edges))


def _chordal_structure(p: Pattern) -> ChordalStructure:
    """One maximum cardinality search and everything read off its visit order.

    The search repeatedly visits the unvisited vertex with the most
    visited neighbours, breaking ties towards the highest index so that
    the reversed order starts from low indices. Each vertex's follower is
    its most recently visited earlier neighbour; the reversed order is a
    perfect elimination order iff every vertex's other earlier neighbours
    are earlier neighbours of its follower (Tarjan-Yannakakis). On a
    chordal pattern a vertex with no more earlier neighbours than its
    predecessor opens a new maximal clique, which joins the clique of its
    follower through those neighbours (Blair-Peyton).
    """
    adj = p.adjacency
    weight = [0] * p.n
    follower = [-1] * p.n
    heap = [(0, -v) for v in range(p.n)]
    heapq.heapify(heap)
    visit: list[int] = []
    earlier: list[frozenset[int] | None] = [None] * p.n
    while heap:
        w, v = heapq.heappop(heap)
        v = -v
        if earlier[v] is not None or -w != weight[v]:
            continue
        before = []
        for u in adj[v]:
            if earlier[u] is None:
                weight[u] += 1
                follower[u] = v  # the last such v before u is visited is its follower
                heapq.heappush(heap, (-weight[u], -u))
            else:
                before.append(u)
        earlier[v] = frozenset(before)
        visit.append(v)
    order = tuple(reversed(visit))

    if any(f >= 0 and not earlier[v] - {f} <= earlier[f] for v, f in enumerate(follower)):
        return ChordalStructure(order, False, None)

    cliques: list[list[int]] = []
    component: list[int] = []
    links: list[tuple[int, int, frozenset[int]]] = []
    home = [0] * p.n
    roots = 0
    for k, v in enumerate(visit):
        if k and len(earlier[v]) > len(earlier[visit[k - 1]]):
            cliques[-1].append(v)
        else:
            if follower[v] >= 0:
                links.append((len(cliques), home[follower[v]], earlier[v]))
            else:
                roots += 1
            component.append(roots)
            cliques.append([*earlier[v], v])
        home[v] = len(cliques) - 1

    keys = [tuple(sorted(c)) for c in cliques]
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    index = [0] * len(rank)
    lowest: dict[int, int] = {}
    for r, k in enumerate(rank):
        index[k] = r
        lowest.setdefault(component[k], r)
    edges = [
        (min(index[a], index[b]), max(index[a], index[b]), tuple(sorted(sep)))
        for a, b, sep in links
    ]
    edges += [(0, r, ()) for r in sorted(lowest.values())[1:]]
    edges.sort(key=lambda e: (-len(e[2]), e[0], e[1]))
    tree = CliqueTree(
        tuple(keys[k] for k in rank),
        tuple((i, j) for i, j, _ in edges),
        tuple(sep for _, _, sep in edges),
    )
    return ChordalStructure(order, True, tree)


def is_chordal(p: Pattern) -> bool:
    """True iff every cycle of length at least four has a chord."""
    return p.structure.chordal


def perfect_elimination_order(p: Pattern) -> EliminationOrder:
    """Return a perfect elimination order, or raise NotChordal."""
    if not p.structure.chordal:
        raise NotChordal("pattern admits no perfect elimination order")
    return EliminationOrder(p.structure.order)


def _bron_kerbosch(p: Pattern) -> list[frozenset[int]]:
    adj = p.adjacency
    out: list[frozenset[int]] = []

    def walk(r: set[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            out.append(frozenset(r))
            return
        pivot = min(cand | excl, key=lambda u: (-len(cand & adj[u]), u))
        for v in sorted(cand - adj[pivot]):
            walk(r | {v}, cand & adj[v], excl & adj[v])
            cand.discard(v)
            excl.add(v)

    walk(set(), set(range(p.n)), set())
    return out


def maximal_cliques(p: Pattern) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each sorted, list sorted lexicographically.

    Chordal patterns read them off the cached chordal structure; other
    patterns fall back to Bron-Kerbosch up to 20 vertices.
    """
    if p.structure.chordal:
        return list(p.structure.tree.cliques)
    if p.n > _BRUTE_FORCE_CLIQUE_CAP:
        raise TooLarge(
            f"clique enumeration on a non-chordal pattern is capped at "
            f"n <= {_BRUTE_FORCE_CLIQUE_CAP}, got n = {p.n}"
        )
    return sorted(tuple(sorted(c)) for c in _bron_kerbosch(p))


def clique_tree(p: Pattern) -> CliqueTree:
    """Clique tree read off the maximum cardinality search.

    Each clique after the first of its component joins the clique of its
    follower through its separator; every further component joins clique
    0 through its lowest clique and an empty separator. Cliques are
    sorted lexicographically, each tree edge (i, j) has i < j, and edges
    are listed by decreasing separator size, then by (i, j). Raises
    NotChordal for non-chordal input.
    """
    if not p.structure.chordal:
        raise NotChordal("clique trees exist only for chordal patterns")
    return p.structure.tree


def chordless_cycles(p: Pattern, max_len: int) -> list[list[int]]:
    """Enumerate chordless cycles of length 4..max_len by induced-path search.

    Each cycle is reported once, as the rotation starting at its smallest
    vertex and moving towards its smaller neighbour. Capped at 12 vertices.
    """
    if p.n > _CYCLE_ORACLE_CAP:
        raise TooLarge(
            f"chordless-cycle enumeration is capped at n <= {_CYCLE_ORACLE_CAP}"
        )
    adj = p.adjacency
    found: list[list[int]] = []

    def extend(path: list[int]) -> None:
        last = path[-1]
        for u in sorted(adj[last]):
            if u <= path[0] or u in path:
                continue
            hits = [k for k in range(len(path) - 1) if u in adj[path[k]]]
            if not hits:
                if len(path) < max_len:
                    extend(path + [u])
            elif hits == [0] and 4 <= len(path) + 1 <= max_len and path[1] < u:
                found.append(path + [u])

    if max_len >= 4:
        for s in range(p.n):
            for t in sorted(adj[s]):
                if t > s:
                    extend([s, t])
    return sorted(found, key=lambda c: (len(c), c))


def square_partition(p: Pattern) -> list[tuple[int, ...]]:
    """Partition the vertices into cliques, greedily.

    Repeatedly extracts the lexicographically least maximal clique of the
    pattern induced on the remaining vertices; singletons always work
    because the diagonal is implicit.
    """
    remaining = list(range(p.n))
    blocks: list[tuple[int, ...]] = []
    while remaining:
        block = [remaining[0]]
        for w in remaining[1:]:
            if p.mask[w, block].all():
                block.append(w)
        blocks.append(tuple(block))
        taken = set(block)
        remaining = [v for v in remaining if v not in taken]
    return blocks
