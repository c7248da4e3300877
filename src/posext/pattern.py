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
neighbours, the highest index among equals. Each vertex holds its
weight, the count of its visited neighbours, as a plain int, and each
weight has its own heap of -v: a vertex is pushed onto the heap of every
weight it reaches, and the search pops from the top non-empty heap,
skipping the entries of vertices visited since. The top heap holds the
vertices of the top weight, and pops the highest of them first, so the
visit order is that of the pairs (w, v).
Everything after the search is read off the visit positions of each
edge's endpoints with array operations. Non-chordal patterns fall back
to Bron-Kerbosch for their cliques.
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
        by_j = np.argsort(j * self.n + i)  # by (j, i): distinct keys, so no stable sort is needed
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

    Each vertex's follower is its most recently visited earlier
    neighbour; the reversed order is a perfect elimination order iff
    every vertex's other earlier neighbours are earlier neighbours of
    its follower (Tarjan-Yannakakis). On a chordal pattern a vertex with
    no more earlier neighbours than its predecessor opens a new maximal
    clique, which joins the clique of its follower through those
    neighbours (Blair-Peyton).
    """
    n = p.n
    visit = np.array(_search(p), dtype=np.int64)
    visit.flags.writeable = False  # so order, its reversed view, is read-only too
    order = visit[::-1]

    # Each edge as the visit positions lo < hi of its endpoints. The
    # follower of position hi is the greatest lo among its edges; each
    # other lo is earlier than that follower, so it is an earlier
    # neighbour of the follower exactly when it is adjacent to it.
    at = np.empty(n, dtype=np.int64)
    at[visit] = np.arange(n)
    i, j = p.edge_array.T
    ends = at[i], at[j]
    hi = np.maximum(*ends)
    lo = ends[0] + ends[1] - hi
    follower = np.full(n, -1, dtype=np.int64)
    np.maximum.at(follower, hi, lo)
    f = follower[hi]
    other = lo != f
    if not _are_pairs(p, visit[lo[other]], visit[f[other]]).all():
        return ChordalStructure(order, False, None)

    # Blair-Peyton, by visit position k: k opens a clique unless it has more
    # earlier neighbours than k - 1; the clique of an opener is its earlier
    # neighbours, the opener and the positions after it up to the next
    # opener. Cliques are numbered by visit here, and held as members sorted
    # by (clique, vertex) with pointers.
    size = np.bincount(hi, minlength=n)
    opens = np.ones(n, dtype=bool)
    opens[1:] = size[1:] <= size[:-1]
    start = np.flatnonzero(opens)
    clique_at = np.cumsum(opens) - 1
    from_opener = opens[hi]
    member_clique = np.concatenate((clique_at[hi[from_opener]], clique_at))
    member_at = np.concatenate((lo[from_opener], np.arange(n)))
    member = visit[member_at]
    by_clique = np.argsort(member_clique * n + member)
    member, member_clique = member[by_clique], member_clique[by_clique]
    clique_ptr = _pointers(size[start] + np.diff(start, append=n))
    # The separator of a clique with its parent is its opener's earlier
    # neighbours: its members visited before the opener, size[start] of them.
    separator_members = member[member_at[by_clique] < start[member_clique]]
    separator_ptr = _pointers(size[start])

    rank = _lexicographic_order(member, clique_ptr)
    index = np.empty(len(rank), dtype=np.int64)
    index[rank] = np.arange(len(rank))

    # Each clique but the first of its component joins the clique of its
    # opener's follower through the opener's earlier neighbours. The cliques
    # of a component are consecutive; each further component joins clique 0
    # through its lowest clique and no separator.
    parent = follower[start]
    child = np.flatnonzero(parent >= 0)
    a, b = index[child], index[clique_at[parent[child]]]
    lowest = np.minimum.reduceat(index, np.flatnonzero(parent < 0))
    joins = lowest[lowest > 0]
    none = np.zeros_like(joins)
    low = np.concatenate((np.minimum(a, b), none))
    high = np.concatenate((np.maximum(a, b), joins))
    sep_of = np.concatenate((child, none))
    sep_size = np.concatenate((size[start[child]], none))
    # Edges by decreasing separator size, then by (low, high): by the key
    # (position in (low, high) order) - (separator size) (edge count).
    by_edge = np.argsort(low * len(rank) + high)
    by_edge = by_edge[np.argsort(np.arange(len(by_edge)) - sep_size[by_edge] * len(by_edge))]
    tree = CliqueTree(
        *_gather(member, clique_ptr[rank], np.diff(clique_ptr)[rank]),
        np.stack((low[by_edge], high[by_edge]), axis=1),
        *_gather(separator_members, separator_ptr[sep_of[by_edge]], sep_size[by_edge]),
    )
    return ChordalStructure(order, True, tree)


def _search(p: Pattern) -> list[int]:
    """The visit order of the maximum cardinality search.

    It repeatedly visits the unvisited vertex with the most visited
    neighbours, breaking ties towards the highest index so that the
    reversed order starts from low indices. Each weight w has its own
    heap of -v, one entry for each vertex v whose weight reached w; the
    search pops from the top non-empty heap and skips stale entries. An
    entry goes stale when its vertex moves up to the next heap; the
    search comes back down to it only once every vertex above is
    visited, so a stale entry is always that of a visited vertex.
    """
    ptr, nbr = p.indptr.tolist(), p.indices.tolist()
    weight = [0] * p.n  # visited neighbours while unvisited, -1 once visited
    buckets: list[list[int]] = [[], []]  # always one beyond the top weight
    pop, push = heapq.heappop, heapq.heappush
    visit: list[int] = []
    for root in range(p.n - 1, -1, -1):
        # With every bucket empty each unvisited vertex has weight 0, and
        # the search takes the highest: the next root of this downward scan.
        if weight[root] < 0:
            continue
        top, bucket = 0, [-root]
        while True:
            while bucket:
                v = -pop(bucket)
                if weight[v] == top:
                    break
            else:
                if not top:
                    break
                top -= 1
                bucket = buckets[top]
                continue
            weight[v] = -1
            visit.append(v)
            for u in nbr[ptr[v] : ptr[v + 1]]:
                w = weight[u]
                if w >= 0:  # at most top, as v had the top weight
                    weight[u] = w = w + 1
                    push(buckets[w], -u)
            if buckets[top + 1]:
                top += 1
                bucket = buckets[top]
                if top + 1 == len(buckets):
                    buckets.append([])
    return visit


def _lexicographic_order(flat: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The k that sort the distinct sequences flat[ptr[k]:ptr[k + 1]] lexicographically.

    Each round packs k pieces into one int64 key. At its start rank
    holds, at each position whose offset in its sequence is a multiple
    of step, the rank (at most top) of the piece of the sequence that
    starts there and is step long (shorter at the sequence's end; a
    proper prefix ranks first). A piece k times as long ranks as the
    tuple of the rank here and, for t = 1..k-1, 1 + the rank t steps
    further, or 0 past the end: in base top + 2 that is a key below
    (top + 1) (top + 2)^(k - 1), and k is the most that keeps it within
    2^63, capped at the pieces the longest sequence still needs. The
    round that covers the longest sequence sorts one key per sequence;
    the others rank the keys at multiples of k steps. Ranks stay below
    N = max(n, len(flat)), so k >= 2 while N <= MAX_VERTICES.
    """
    lengths = np.diff(ptr)
    longest = int(lengths.max(initial=0))
    rank, top, step = flat, int(flat.max(initial=0)), 1
    while True:
        k, reach = 1, top + 1
        while k * step < longest and reach * (top + 2) <= 2**63:
            k, reach = k + 1, reach * (top + 2)
        last = k * step >= longest
        if last:
            at, room = ptr[:-1], lengths
        else:
            offset = np.arange(len(flat)) - np.repeat(ptr[:-1], lengths)
            at = np.flatnonzero(offset % (k * step) == 0)
            room = (np.repeat(lengths, lengths) - offset)[at]  # the length of the sequence from at on
        key = rank[at]
        for t in range(step, k * step, step):
            more = room > t
            piece = np.zeros_like(key)
            piece[more] = rank[at[more] + t] + 1
            key = key * (top + 2) + piece
        if last:
            return np.argsort(key)
        rank = np.empty_like(flat)
        rank[at] = _dense_rank(key)
        top, step = len(at) - 1, k * step


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

    Edges are found by one binary search of the sought keys min n + max,
    sorted, among the sorted edge keys i n + j, closed by n n, which is
    above every key of two vertices and fits in int64.
    """
    n, (i, j) = p.n, p.edge_array.T
    have = np.append(i * n + j, n * n)
    sought = np.minimum(a, b) * n + np.maximum(a, b)
    by_key = np.argsort(sought)
    sought = sought[by_key]
    found = np.empty(len(sought), dtype=bool)
    found[by_key] = have[np.searchsorted(have, sought)] == sought
    return (a == b) | found


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
