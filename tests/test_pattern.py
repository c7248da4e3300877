import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    assert_valid_clique_tree,
    band_pattern,
    brute_force_maximal_cliques,
    complete_pattern,
    cycle_pattern,
    dense_mask,
    is_valid_elimination_order,
    random_chordal_components,
    random_chordal_pattern,
    random_pattern,
    ref_chordal_structure,
    ref_square_partition,
    tree_views,
)
from posext import (
    CliqueTree,
    chordless_cycles,
    clique_tree,
    is_chordal,
    maximal_cliques,
    perfect_elimination_order,
    square_partition,
    validate_pattern,
)
from posext.errors import IndexOutOfRange, InputError, NotChordal, TooLarge
from posext.pattern import MAX_VERTICES, _lexicographic_order


def test_validate_merges_duplicates_and_reversals():
    p = validate_pattern(4, [(0, 1), (1, 0), (2, 3)])
    assert p.n == 4
    assert p.edge_array.tolist() == [[0, 1], [2, 3]]


def test_validate_empty_edges_keeps_diagonal_only():
    p = validate_pattern(3, [])
    assert p.edge_array.tolist() == []
    assert dense_mask(p)[1, 1]
    assert not dense_mask(p)[0, 1]


def test_validate_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate_pattern(2, [(0, 5)])


def test_chordality_basics():
    assert is_chordal(complete_pattern(4))
    assert not is_chordal(cycle_pattern(4))


def test_band2_pattern_is_chordal_and_cycle_free():
    p = band_pattern(6, 2)
    assert is_chordal(p)
    assert chordless_cycles(p, 6) == []


def test_elimination_order_band1():
    p = band_pattern(4, 1)
    order = perfect_elimination_order(p).tolist()
    assert order == [0, 1, 2, 3]
    assert is_valid_elimination_order(p, order)


def test_elimination_order_is_a_read_only_int64_array():
    order = perfect_elimination_order(validate_pattern(5, [(0, 3), (1, 2), (3, 4)]))
    assert order.dtype == np.int64 and not order.flags.writeable
    assert order.tolist() == [1, 2, 0, 3, 4]


def test_elimination_order_complete_is_identity():
    assert perfect_elimination_order(complete_pattern(3)).tolist() == [0, 1, 2]


def test_elimination_order_cycle4_impossible_exhaustively():
    import itertools

    p = cycle_pattern(4)
    assert not any(
        is_valid_elimination_order(p, perm)
        for perm in itertools.permutations(range(4))
    )
    with pytest.raises(NotChordal):
        perfect_elimination_order(p)


def test_maximal_cliques_band1_matches_brute_force():
    p = band_pattern(4, 1)
    assert maximal_cliques(p) == brute_force_maximal_cliques(p)
    assert maximal_cliques(p) == [(0, 1), (1, 2), (2, 3)]


def test_maximal_cliques_edge_cases():
    assert maximal_cliques(complete_pattern(3)) == [(0, 1, 2)]
    assert maximal_cliques(validate_pattern(2, [])) == [(0,), (1,)]


def test_maximal_cliques_nonchordal_uses_fallback():
    assert maximal_cliques(cycle_pattern(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_maximal_cliques_size_cap():
    big = cycle_pattern(21)
    with pytest.raises(TooLarge):
        maximal_cliques(big)


def _pairs(clique):
    return {
        (a, b) for k, a in enumerate(clique) for b in clique[k + 1 :]
    }


def test_clique_tree_band1_is_path():
    p = band_pattern(4, 1)
    tree = clique_tree(p)
    assert tree.members.tolist() == [0, 1, 1, 2, 2, 3]
    assert sorted(tree.separator_members.tolist()) == [1, 2]
    assert_valid_clique_tree(p, tree)


def test_clique_tree_single_clique():
    tree = clique_tree(complete_pattern(3))
    assert tree_views(tree) == {"cliques": [(0, 1, 2)], "tree_edges": [], "separators": []}


def test_clique_tree_disconnected_components_join_with_empty_separator():
    p = validate_pattern(4, [(0, 1), (2, 3)])
    tree = clique_tree(p)
    assert tree_views(tree) == {"cliques": [(0, 1), (2, 3)], "tree_edges": [(0, 1)], "separators": [()]}
    assert_valid_clique_tree(p, tree)


def test_clique_tree_rejects_nonchordal():
    with pytest.raises(NotChordal):
        clique_tree(cycle_pattern(4))


def test_chordless_cycles_examples():
    assert chordless_cycles(cycle_pattern(4), 4) == [[0, 1, 2, 3]]
    assert chordless_cycles(complete_pattern(4), 4) == []
    assert chordless_cycles(cycle_pattern(5), 5) == [[0, 1, 2, 3, 4]]
    with pytest.raises(TooLarge):
        chordless_cycles(validate_pattern(13, []), 4)


def test_chordless_cycles_respects_max_len():
    assert chordless_cycles(cycle_pattern(5), 4) == []


def test_square_partition_examples():
    assert square_partition(complete_pattern(3)) == [(0, 1, 2)]
    assert square_partition(validate_pattern(3, [])) == [(0,), (1,), (2,)]
    assert square_partition(cycle_pattern(4)) == [(0, 1), (2, 3)]


@given(st.integers(0, 10 ** 6))
def test_square_partition_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p = random_pattern(rng, n, 14)
    blocks = square_partition(p)
    flat = [v for b in blocks for v in b]
    assert sorted(flat) == list(range(n))
    assert len(flat) == len(set(flat))
    mask = dense_mask(p)
    for block in blocks:
        assert all(mask[a, b] for a in block for b in block)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random graph", "chordal components", "chordal components less an edge"]),
)
def test_square_partition_matches_the_reference_greedy(seed, kind):
    """n <= 30: non-chordal graphs, several components and isolated vertices included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 31))
    if kind == "random graph":
        p = random_pattern(rng, n, n * (n - 1) // 2)
    else:
        p = random_chordal_components(rng, n, int(rng.integers(1, 6)), density=0.5)
        edges = p.edge_array.tolist()
        if kind.endswith("less an edge") and edges:
            del edges[int(rng.integers(len(edges)))]
            p = validate_pattern(n, edges)
    assert square_partition(p) == ref_square_partition(p)


def test_square_partition_of_a_long_band_is_one_pass():
    """Band-2 n = 50,000 within 5 s; rebuilding the remaining vertices after each block is
    quadratic, about 40 s here."""
    p = band_pattern(50_000, 2)
    start = time.perf_counter()
    blocks = square_partition(p)
    assert time.perf_counter() - start < 5.0
    assert len(blocks) == 16_667 and blocks[0] == (0, 1, 2) and blocks[-1] == (49_998, 49_999)


@pytest.mark.parametrize("seed", range(4))
def test_chordality_equivalence_randomized(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        p = random_pattern(rng, n, 16)
        chordal = is_chordal(p)
        try:
            order = perfect_elimination_order(p).tolist()
            peo_ok = is_valid_elimination_order(p, order)
        except NotChordal:
            peo_ok = False
        assert chordal == peo_ok
        assert chordal == (chordless_cycles(p, n) == [])


@given(st.integers(0, 10 ** 6))
def test_maximal_cliques_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    p = random_pattern(rng, n, 12)
    cliques = maximal_cliques(p)
    assert cliques == brute_force_maximal_cliques(p)
    mask = dense_mask(p)
    for c in cliques:
        assert all(mask[a, b] for a in c for b in c)
    for c in cliques:
        for d in cliques:
            assert not (set(c) < set(d))
    covered = {e for c in cliques for e in _pairs(c)}
    assert set(map(tuple, p.edge_array.tolist())) <= covered


@given(st.integers(0, 10 ** 6))
def test_clique_tree_running_intersection_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 41))
    p = random_chordal_pattern(rng, n, float(rng.uniform(0.0, 0.45)))
    assert_valid_clique_tree(p, clique_tree(p))


@st.composite
def distinct_sorted_sequences(draw):
    """Distinct sorted int sequences, many sharing long prefixes, shuffled."""
    stems = draw(st.lists(st.lists(st.integers(0, 60), max_size=40), min_size=1, max_size=4))
    seqs = set()
    for _ in range(draw(st.integers(0, 30))):
        stem = sorted(set(draw(st.sampled_from(stems))))
        tail = draw(st.lists(st.integers(0, 60), max_size=5))
        seq = tuple(sorted(set(stem[: draw(st.integers(0, len(stem)))] + tail)))
        if seq:
            seqs.add(seq)
    return draw(st.permutations(sorted(seqs)))


@given(distinct_sorted_sequences())
def test_lexicographic_order_matches_sorted(seqs):
    flat = np.array([v for s in seqs for v in s], dtype=np.int64)
    ptr = np.concatenate(([0], np.cumsum([len(s) for s in seqs], dtype=np.int64)))
    got = _lexicographic_order(flat, ptr).tolist()
    assert got == sorted(range(len(seqs)), key=seqs.__getitem__)


def test_clique_tree_arrays_are_read_only_and_back_the_tuple_views():
    p = validate_pattern(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
    tree = clique_tree(p)
    for a in (tree.members, tree.clique_ptr, tree.edge_array, tree.separator_members, tree.separator_ptr):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert tree.members.tolist() == [0, 1, 1, 2, 3, 2, 3, 4, 4, 5]
    assert tree.clique_ptr.tolist() == [0, 2, 5, 8, 10]
    assert tree.edge_array.tolist() == [[1, 2], [0, 1], [2, 3]]
    assert tree.separator_members.tolist() == [2, 3, 1, 4]
    assert tree.separator_ptr.tolist() == [0, 2, 3, 4]
    again = CliqueTree(*(np.array(a) for a in vars(tree).values()))
    assert again == tree and hash(again) == hash(tree)
    arrays = vars(tree) | {"edge_array": tree.edge_array[::-1]}
    assert CliqueTree(**arrays) != tree


def test_clique_tree_empty_pattern():
    p = validate_pattern(0, [])
    assert tree_views(clique_tree(p)) == {"cliques": [], "tree_edges": [], "separators": []}
    assert maximal_cliques(p) == []
    assert perfect_elimination_order(p).tolist() == []


def test_clique_tree_components_join_clique_zero_in_order():
    # components {0}, {1, 4}, {2, 5, 6}, {3}: two isolated vertices
    p = validate_pattern(7, [(1, 4), (2, 5), (5, 6), (2, 6)])
    tree = clique_tree(p)
    assert tree_views(tree) == {
        "cliques": [(0,), (1, 4), (2, 5, 6), (3,)],
        "tree_edges": [(0, 1), (0, 2), (0, 3)],
        "separators": [(), (), ()],
    }
    assert_valid_clique_tree(p, tree)


def test_clique_tree_edges_sorted_by_separator_size():
    # two triangles sharing an edge, a pendant edge on each side
    p = validate_pattern(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
    assert tree_views(clique_tree(p)) == {
        "cliques": [(0, 1), (1, 2, 3), (2, 3, 4), (4, 5)],
        "tree_edges": [(1, 2), (0, 1), (2, 3)],
        "separators": [(2, 3), (1,), (4,)],
    }


@given(st.integers(0, 10 ** 6))
def test_clique_tree_on_several_components(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 41))
    p = random_chordal_components(rng, n, int(rng.integers(3, 7)))
    tree = clique_tree(p)
    assert_valid_clique_tree(p, tree)
    assert is_valid_elimination_order(p, perfect_elimination_order(p).tolist())


def _fields(s):
    """A chordal structure as values that compare with ==: the order as a list."""
    return s.order.tolist(), s.chordal, s.tree


@pytest.mark.parametrize("seed", range(6))
def test_structure_matches_the_reference_search(seed):
    """Chordal patterns of several components, random graphs, and chordal ones less an edge."""
    rng = np.random.default_rng(500 + seed)
    chordal = 0
    for k in range(50):
        n = int(rng.integers(0, 41))
        if k % 3 == 0:
            p = random_chordal_components(rng, n, int(rng.integers(1, 6)), density=0.3)
        elif k % 3 == 1:
            p = random_pattern(rng, n, 2 * n)
        else:
            p = random_chordal_components(rng, n, int(rng.integers(1, 4)), density=0.3)
            edges = p.edge_array.tolist()
            if edges:
                del edges[int(rng.integers(len(edges)))]
                p = validate_pattern(n, edges)
        assert _fields(p.structure) == _fields(ref_chordal_structure(p))
        chordal += p.structure.chordal
    assert 0 < chordal < 50


@st.composite
def raw_edge_lists(draw):
    """(n, edges): a raw edge list with duplicates, reversed pairs and loops.

    Half the lists start from a chordal pattern of several components (so
    isolated vertices are common); the others are arbitrary graphs.
    """
    n = draw(st.integers(0, 14))
    if n and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = list(map(tuple, random_chordal_components(rng, n, draw(st.integers(1, 4))).edge_array.tolist()))
    else:
        vertex = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)) if n else []
    if edges:
        extra = draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
        edges += [(j, i) for i, j in extra]
        edges += [(i, i) for i, _ in draw(st.lists(st.sampled_from(edges), max_size=3))]
    return n, draw(st.permutations(edges))


def _dense_oracle(n, edges) -> np.ndarray:
    out = np.eye(n, dtype=bool)
    for i, j in edges:
        out[i, j] = out[j, i] = True
    return out


@given(raw_edge_lists())
def test_sparse_pattern_matches_the_dense_oracle(case):
    """pairs, CSR and edge_array agree with a dense mask of the raw list."""
    n, raw = case
    p = validate_pattern(n, raw)
    dense = _dense_oracle(n, raw)
    rows, cols = p.pairs
    expected = np.nonzero(np.triu(dense))
    assert rows.tolist() == expected[0].tolist() and cols.tolist() == expected[1].tolist()
    assert p.edge_array.tolist() == sorted(map(list, {(min(i, j), max(i, j)) for i, j in raw if i != j}))
    off_diagonal = dense & ~np.eye(n, dtype=bool)
    for v in range(n):
        neighbours = np.flatnonzero(off_diagonal[v]).tolist()
        assert p.indices[p.indptr[v] : p.indptr[v + 1]].tolist() == neighbours
    assert not any(a.flags.writeable for a in (p.edge_array, p.indptr, p.indices, rows, cols))
    assert _fields(p.structure) == _fields(ref_chordal_structure(p))


@given(raw_edge_lists(), raw_edge_lists())
def test_patterns_are_equal_exactly_when_n_and_edges_are(first, second):
    p, q = validate_pattern(*first), validate_pattern(*second)
    assert (p == q) == (p.n == q.n and p.edge_array.tolist() == q.edge_array.tolist())
    again = validate_pattern(first[0], [(j, i) for i, j in reversed(first[1])])
    assert again == p and hash(again) == hash(p)
    assert p != validate_pattern(p.n + 1, first[1])


@pytest.mark.parametrize(
    "n, edges, error, message",
    [
        (3, [[True, 2]], InputError, "edge [True, 2] is not a pair of integers"),
        (3, [[0, 1], [1, False]], InputError, "edge [1, False] is not a pair of integers"),
        (3, [[1.5, 2]], InputError, "edge [1.5, 2] is not a pair of integers"),
        (3, [["0", 1]], InputError, "edge ['0', 1] is not a pair of integers"),
        (3, [[0, None]], InputError, "edge [0, None] is not a pair of integers"),
        (3, [[1]], InputError, "edge [1] is not a pair of integers"),
        (3, [[1, 2, 3]], InputError, "edge [1, 2, 3] is not a pair of integers"),
        (3, [[0, 1], 7], InputError, "edge 7 is not a pair of integers"),
        (3, [[0, 2**70]], IndexOutOfRange, f"edge (0,{2**70}) outside [0,3)"),
        (3, [[0, 1], [2, 3]], IndexOutOfRange, "edge (2,3) outside [0,3)"),
        (3, [[-1, 0]], IndexOutOfRange, "edge (-1,0) outside [0,3)"),
        (3, [[0, 5], [True, 1]], IndexOutOfRange, "edge (0,5) outside [0,3)"),
        (3, [[True, 1], [0, 5]], InputError, "edge [True, 1] is not a pair of integers"),
        (3, [[0, 2.0], [4, 1.0]], IndexOutOfRange, "edge (4,1) outside [0,3)"),
        (0, [[0, 0]], IndexOutOfRange, "edge (0,0) outside [0,0)"),
        (-1, [], IndexOutOfRange, "vertex count must be nonnegative, got -1"),
    ],
)
def test_bad_edge_lists_name_the_first_bad_edge(n, edges, error, message):
    with pytest.raises(error) as info:
        validate_pattern(n, edges)
    assert type(info.value) is error and str(info.value) == message


@st.composite
def raw_edge_arrays(draw):
    """(n, edges): a raw edge list as an int64 array, some with endpoints outside [0, n)."""
    n, edges = draw(raw_edge_lists())
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    for _ in range(draw(st.integers(0, 2))):
        if len(edges):
            edges[draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, 1))] = draw(
                st.integers(-(2**62), -1) | st.integers(n, n + 3) | st.integers(n, 2**62)
            )
    return n, edges


def _validated(n, edges):
    try:
        return validate_pattern(n, edges)
    except InputError as exc:
        return type(exc), str(exc)


@given(raw_edge_arrays())
def test_an_int64_edge_array_validates_as_its_list_does(case):
    """The array route gives the list route's pattern, or its error naming the same first bad edge."""
    n, edges = case
    assert _validated(n, edges) == _validated(n, edges.tolist())


@pytest.mark.parametrize("edges", [np.zeros((2, 2), dtype=np.int32), np.array([[0, 1.5]]), np.array([0, 1])])
def test_other_edge_arrays_are_checked_as_their_lists(edges):
    """An array that is not (m, 2) int64 is checked as its .tolist(), so messages read as json's lists do."""
    assert _validated(3, edges) == _validated(3, edges.tolist())


def test_a_width_3_edge_array_names_the_edge_as_a_list():
    with pytest.raises(InputError, match=r"^edge \[0, 1, 2\] is not a pair of integers$"):
        validate_pattern(3, np.array([[0, 1, 2]], dtype=np.int64))


def test_whole_number_floats_and_numpy_ints_are_edges():
    p = validate_pattern(3, [[0, 2.0], (np.int64(2), np.int64(1)), [1.0, 1]])
    assert p.edge_array.tolist() == [[0, 2], [1, 2]]


def test_vertex_count_above_the_cap_is_too_large():
    """Edge keys i n + j must fit in int64; the parent accepted such n and failed later."""
    assert validate_pattern(MAX_VERTICES, [(0, MAX_VERTICES - 1)]).edge_array.tolist() == [[0, MAX_VERTICES - 1]]
    with pytest.raises(TooLarge, match=r"^vertex count 3037000500 exceeds the cap of 3037000499$"):
        validate_pattern(MAX_VERTICES + 1, [])
