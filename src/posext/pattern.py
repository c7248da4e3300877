"""Finite symmetric patterns and their chordal structure.

A pattern is an undirected graph on vertices 0..n-1 whose loops are
implicit: every diagonal pair is considered present and is never stored.
It is held sparse. `edge_array` is one read-only (m, 2) int64 array of
the edges (i, j), i < j, sorted; the compressed sparse rows `indptr`
and `indices` (both orientations, each row sorted) and the row-major
`pairs` of the support are built from it in O(n + m). Every edge and
neighbour query is answered from these arrays.

One maximum cardinality search per pattern, cached on the pattern, gives
its elimination order and recognises chordality; on chordal patterns the
same search also yields the maximal cliques and a clique tree with the
running intersection property (Tarjan & Yannakakis 1984; Blair & Peyton
1993). The search visits the unvisited vertex of most visited
neighbours, the highest index among equals. Its heap holds one int per
entry, -(w n + v) for vertex v at weight w: as 0 <= v < n, w n + v
orders by w first and by v second, exactly as the pair (w, v) does, and
no two entries are equal, so the visit order is the one the pair keys
gave. Non-chordal patterns fall back to Bron-Kerbosch for their cliques,
and a brute-force chordless-cycle oracle is provided for cross-checking.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import IndexOutOfRange, InputError, NotChordal, TooLarge

_BRUTE_FORCE_CLIQUE_CAP = 20
_CYCLE_ORACLE_CAP = 12
MAX_VERTICES = 3037000499  # the largest n whose edge keys i * n + j, i < j < n, fit in int64


@dataclass(frozen=True, eq=False)
class Pattern:
    """Symmetric edge set on 0..n-1 with an implicit diagonal.

    edge_array holds each edge once as a row (i, j) with i < j, rows
    sorted and distinct, as `validate_pattern` builds it from a raw edge
    list. The pattern takes the array over and makes it read-only.
    Two patterns are equal when they have the same n and edges.
    """

    n: int
    edge_array: np.ndarray

    def __post_init__(self) -> None:
        self.edge_array.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row pointers: the neighbours of v are indices[indptr[v]:indptr[v + 1]]."""
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR column indices, each row sorted ascending."""
        return self._csr[1]

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        # Row v holds its lower neighbours (edges (u, v)) and then its upper
        # ones (edges (v, u)), each already in ascending order.
        i, j = self.edge_array.T
        lower = np.bincount(j, minlength=self.n)
        upper = np.bincount(i, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(lower + upper, out=indptr[1:])
        indices = np.empty(2 * len(i), dtype=np.int64)
        k = np.arange(len(i))
        indices[k + np.cumsum(lower)[i]] = j
        by_j = np.argsort(j, kind="stable")
        indices[k + (np.cumsum(upper) - upper)[j[by_j]]] = i[by_j]
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, cols) of the pairs i <= j of the support, in row-major order."""
        n, (i, j) = self.n, self.edge_array.T
        upper = np.bincount(i, minlength=n)
        rows = np.empty(n + len(i), dtype=np.int64)
        cols = np.empty_like(rows)
        diagonal = np.arange(n)
        at = diagonal + np.cumsum(upper) - upper  # pair (v, v) comes before the edges (v, u)
        rows[at] = cols[at] = diagonal
        at = np.arange(len(i)) + i + 1
        rows[at], cols[at] = i, j
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def structure(self) -> ChordalStructure:
        """The chordal structure, computed once per pattern."""
        return _chordal_structure(self)


@dataclass(frozen=True, eq=False)
class CliqueTree:
    """Maximal cliques arranged in a tree with the running intersection property.

    It is held as read-only int64 arrays in compressed form: clique k is
    members[clique_ptr[k]:clique_ptr[k + 1]], tree edge e is the row
    edge_array[e] of the (k - 1, 2) edge array, and its separator is
    separator_members[separator_ptr[e]:separator_ptr[e + 1]]. The tree
    takes the arrays over and makes them read-only. Two trees are equal
    when their arrays are.
    """

    members: np.ndarray
    clique_ptr: np.ndarray
    edge_array: np.ndarray
    separator_members: np.ndarray
    separator_ptr: np.ndarray

    def __post_init__(self) -> None:
        for a in vars(self).values():
            a.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliqueTree):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in vars(self).values()))


def _pointers(lengths: np.ndarray) -> np.ndarray:
    """The pointers 0, l0, l0 + l1, ... that bound consecutive slices of the given lengths."""
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _tuples(flat: np.ndarray, ptr: np.ndarray) -> list[tuple[int, ...]]:
    """The sequences flat[ptr[k]:ptr[k + 1]] as tuples."""
    values, bounds = tuple(flat.tolist()), ptr.tolist()
    return list(map(values.__getitem__, map(slice, bounds, bounds[1:])))


@dataclass(frozen=True, eq=False)
class ChordalStructure:
    """What one maximum cardinality search reveals about a pattern.

    order is the reversed visit order, a read-only int64 array; it is a
    perfect elimination order exactly when chordal is True. tree is the
    clique tree of a chordal pattern and None otherwise.
    """

    order: np.ndarray
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
    diagonal is implicit). An (m, 2) int64 array, as the CLI's reader
    hands it over, is taken as it is; any other edge list, an array as
    its .tolist(), is checked edge by edge. Raises InputError unless
    every edge is two integers, and IndexOutOfRange for endpoints
    outside [0, n); the first bad edge in list order is the one named.
    TooLarge for n above MAX_VERTICES.
    """
    if n < 0:
        raise IndexOutOfRange(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise TooLarge(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    if isinstance(edge_list, np.ndarray) and edge_list.dtype == np.int64 and edge_list.shape[1:] == (2,):
        e = edge_list
    else:
        edge_list = edge_list.tolist() if isinstance(edge_list, np.ndarray) else list(edge_list)
        e = np.array(_checked_edges(n, edge_list), dtype=np.int64).reshape(-1, 2)
    if len(e) and (e.min() < 0 or e.max() >= n):
        i, j = e[((e < 0) | (e >= n)).any(axis=1).argmax()].tolist()
        raise IndexOutOfRange(f"edge ({i},{j}) outside [0,{n})")
    a, b = e[:, 0], e[:, 1]
    keys = np.sort(np.where(a < b, a * n + b, b * n + a)[a != b])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique, without its fixed cost
    return Pattern(n, np.stack(np.divmod(keys, n), axis=1))


def _checked_edges(n: int, edge_list: list) -> list[tuple[int, int]]:
    """The edges as int pairs, checked one by one to name the first bad edge."""
    edges = []
    for pair in edge_list:
        try:
            i, j = _integers(pair)
        except (TypeError, ValueError, InputError):
            raise InputError(f"edge {pair!r} is not a pair of integers") from None
        if not (0 <= i < n) or not (0 <= j < n):
            raise IndexOutOfRange(f"edge ({i},{j}) outside [0,{n})")
        edges.append((i, j))
    return edges


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
    n = p.n
    ptr, nbr = p.indptr.tolist(), p.indices.tolist()
    key = list(range(n))  # w * n + v while v is unvisited at weight w, -1 once visited
    follower = [-1] * n
    pop, push = heapq.heappop, heapq.heappush
    visit: list[int] = []
    for root in range(n - 1, -1, -1):
        # With the heap empty every unvisited vertex has weight 0, and the
        # search takes the highest: the next root of this downward scan.
        if key[root] < 0:
            continue
        heap = [-root]
        while heap:
            x = -pop(heap)
            v = x % n
            if key[v] != x:
                continue
            key[v] = -1
            visit.append(v)
            for u in nbr[ptr[v] : ptr[v + 1]]:
                x = key[u]
                if x >= 0:
                    key[u] = x = x + n
                    follower[u] = v  # the last such v before u is visited is its follower
                    push(heap, -x)
    visit = np.array(visit, dtype=np.int64)
    visit.flags.writeable = False  # so order, its reversed view, is read-only too
    order = visit[::-1]

    # Each edge (i, j) seen from its later endpoint: u is an earlier neighbour
    # of later. u was visited no later than the follower f of later, so u is
    # an earlier neighbour of f exactly when it is f or adjacent to f.
    at = np.empty(n, dtype=np.int64)
    at[visit] = np.arange(n)
    i, j = p.edge_array.T
    later = np.where(at[i] > at[j], i, j)
    u = i + j - later
    follower_of = np.array(follower, dtype=np.int64)
    if not _are_pairs(p, u, follower_of[later]).all():
        return ChordalStructure(order, False, None)

    # Blair-Peyton, by visit position k: k opens a clique unless it has more
    # earlier neighbours than k - 1; the clique of an opener v is its earlier
    # neighbours, v and the vertices visited after v up to the next opener.
    # Cliques are numbered by visit here, and held as members sorted by
    # (clique, vertex) with pointers.
    size = np.bincount(later, minlength=n)[visit]
    opens = np.ones(n, dtype=bool)
    opens[1:] = size[1:] <= size[:-1]
    start = np.flatnonzero(opens)
    clique_at = np.cumsum(opens) - 1
    clique_of = clique_at[at]
    from_opener = opens[at[later]]
    member_clique = np.concatenate((clique_of[later[from_opener]], clique_at))
    member = np.concatenate((u[from_opener], visit))
    by_clique = np.argsort(member_clique * n + member)
    member, member_clique = member[by_clique], member_clique[by_clique]
    clique_ptr = _pointers(np.bincount(member_clique, minlength=len(start)))
    # The separator of a clique with its parent is its opener's earlier
    # neighbours: its members visited before the opener, size[start] of them.
    separator_members = member[at[member] < start[member_clique]]
    separator_ptr = _pointers(size[start])

    rank = _lexicographic_order(member, clique_ptr)
    index = np.empty(len(rank), dtype=np.int64)
    index[rank] = np.arange(len(rank))

    # Each clique but the first of its component joins the clique of its
    # opener's follower through the opener's earlier neighbours; the other
    # components join clique 0 through their lowest clique and no separator.
    parent = follower_of[visit[start]]
    child = np.flatnonzero(parent >= 0)
    a, b = index[child], index[clique_of[parent[child]]]
    component = np.cumsum(parent < 0)[rank]
    joins = np.sort(np.unique(component, return_index=True)[1])[1:]
    low = np.concatenate((np.minimum(a, b), np.zeros_like(joins)))
    high = np.concatenate((np.maximum(a, b), joins))
    sep_of = np.concatenate((child, np.zeros_like(joins)))
    sep_size = np.concatenate((size[start[child]], np.zeros_like(joins)))
    by_edge = np.argsort(low * len(rank) + high)
    by_edge = by_edge[np.argsort(-sep_size[by_edge], kind="stable")]
    tree = CliqueTree(
        *_gather(member, clique_ptr[rank], np.diff(clique_ptr)[rank]),
        np.stack((low[by_edge], high[by_edge]), axis=1),
        *_gather(separator_members, separator_ptr[sep_of[by_edge]], sep_size[by_edge]),
    )
    return ChordalStructure(order, True, tree)


def _lexicographic_order(flat: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The k that sort the distinct sequences flat[ptr[k]:ptr[k + 1]] lexicographically.

    Prefix doubling: while step is below the longest length, rank holds
    at each position whose offset in its sequence is a multiple of step
    the rank of the piece of the sequence that starts there and is step
    long (shorter at the sequence's end; a proper prefix ranks first).
    A piece of twice the length ranks as the pair (rank here, 1 + rank
    step further, or 0 past the end), and only the positions at
    multiples of twice the step are ranked again: memory stays
    O(len(flat)), and the round at step s sorts at most one key per
    sequence plus len(flat) / (2 s). Ranks stay below N = max(n,
    len(flat)) and keys below (N + 1)^2, which fits in int64.
    """
    lengths = np.diff(ptr)
    offset = np.arange(len(flat)) - np.repeat(ptr[:-1], lengths)
    room = np.repeat(lengths, lengths) - offset  # the length of the sequence from here on
    rank, top, step = flat, int(flat.max(initial=0)), 1
    while True:
        last = 2 * step >= lengths.max(initial=0)
        at = ptr[:-1] if last else np.flatnonzero(offset % (2 * step) == 0)
        more = room[at] > step
        key = rank[at] * (top + 2)
        key[more] += rank[at[more] + step] + 1
        if last:
            return np.argsort(key, kind="stable")
        rank = np.empty_like(flat)
        rank[at] = _dense_rank(key)
        top, step = len(at) - 1, 2 * step


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """The rank of each key among the distinct keys, from 0."""
    order = np.argsort(key)
    ordered = key[order]
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.cumsum(np.concatenate(([False], ordered[1:] != ordered[:-1])))
    return rank


def _gather(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slices flat[s:s + l] for s, l in zip(starts, lengths), concatenated, and their pointers."""
    ptr = _pointers(lengths)
    return flat[np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], lengths)], ptr


def _are_pairs(p: Pattern, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each (a[k], b[k]) of vertices is a pair of the support: equal, or an edge.

    Edges are found by one binary search among the sorted edge keys i n + j,
    closed by n n, which is above every key of two vertices and fits in int64.
    """
    n, (i, j) = p.n, p.edge_array.T
    have = np.append(i * n + j, n * n)
    sought = np.minimum(a, b) * n + np.maximum(a, b)
    return (a == b) | (have[np.searchsorted(have, sought)] == sought)


def is_chordal(p: Pattern) -> bool:
    """True iff every cycle of length at least four has a chord."""
    return p.structure.chordal


def perfect_elimination_order(p: Pattern) -> np.ndarray:
    """Return a perfect elimination order as a read-only int64 array, or raise NotChordal."""
    if not p.structure.chordal:
        raise NotChordal("pattern admits no perfect elimination order")
    return p.structure.order


def _bron_kerbosch(p: Pattern) -> list[frozenset[int]]:
    ptr, nbr = p.indptr.tolist(), p.indices.tolist()
    out: list[frozenset[int]] = []

    def walk(r: set[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            out.append(frozenset(r))
            return
        pivot = min(cand | excl, key=lambda u: (-len(cand.intersection(nbr[ptr[u] : ptr[u + 1]])), u))
        for v in sorted(cand.difference(nbr[ptr[pivot] : ptr[pivot + 1]])):
            row = nbr[ptr[v] : ptr[v + 1]]
            walk(r | {v}, cand.intersection(row), excl.intersection(row))
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
        tree = p.structure.tree
        return _tuples(tree.members, tree.clique_ptr)
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


def square_partition(p: Pattern) -> list[tuple[int, ...]]:
    """Partition the vertices into cliques, greedily.

    Each block is the lexicographically least maximal clique of the
    pattern induced on the vertices not yet taken: the least such vertex
    and those of its neighbours, ascending, that are adjacent to every
    member so far (a binary search in their CSR row).
    """
    ptr, nbr = p.indptr.tolist(), p.indices.tolist()
    taken = bytearray(p.n)
    blocks: list[tuple[int, ...]] = []
    for v in range(p.n):
        if taken[v]:
            continue
        taken[v], block = 1, (v,)
        for u in map(nbr.__getitem__, range(ptr[v], ptr[v + 1])):
            lo, hi = ptr[u], ptr[u + 1]
            if not taken[u] and all((at := bisect_left(nbr, w, lo, hi)) < hi and nbr[at] == w for w in block):
                taken[u], block = 1, block + (u,)
        blocks.append(block)
    return blocks
