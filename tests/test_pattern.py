import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    assert_valid_clique_tree,
    band_pattern,
    brute_force_maximal_cliques,
    complete_pattern,
    cycle_pattern,
    is_valid_elimination_order,
    random_chordal_components,
    random_chordal_pattern,
    random_pattern,
    ref_chordal_structure,
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
from posext.errors import IndexOutOfRange, NotChordal, TooLarge


def test_validate_merges_duplicates_and_reversals():
    p = validate_pattern(4, [(0, 1), (1, 0), (2, 3)])
    assert p.n == 4
    assert p.edges == frozenset({(0, 1), (2, 3)})


def test_validate_empty_edges_keeps_diagonal_only():
    p = validate_pattern(3, [])
    assert p.edges == frozenset()
    assert p.mask[1, 1]
    assert not p.mask[0, 1]


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
    order = perfect_elimination_order(p).order
    assert order == (0, 1, 2, 3)
    assert is_valid_elimination_order(p, order)


def test_elimination_order_complete_is_identity():
    assert perfect_elimination_order(complete_pattern(3)).order == (0, 1, 2)


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
    assert tree.cliques == ((0, 1), (1, 2), (2, 3))
    assert set(tree.separators) == {(1,), (2,)}
    assert_valid_clique_tree(p, tree)


def test_clique_tree_single_clique():
    tree = clique_tree(complete_pattern(3))
    assert tree.cliques == ((0, 1, 2),)
    assert tree.tree_edges == ()


def test_clique_tree_disconnected_components_join_with_empty_separator():
    p = validate_pattern(4, [(0, 1), (2, 3)])
    tree = clique_tree(p)
    assert tree.cliques == ((0, 1), (2, 3))
    assert tree.separators == ((),)
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
    for block in blocks:
        assert all(p.mask[a, b] for a in block for b in block)


@pytest.mark.parametrize("seed", range(4))
def test_chordality_equivalence_randomized(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        p = random_pattern(rng, n, 16)
        chordal = is_chordal(p)
        try:
            order = perfect_elimination_order(p).order
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
    for c in cliques:
        assert all(p.mask[a, b] for a in c for b in c)
    for c in cliques:
        for d in cliques:
            assert not (set(c) < set(d))
    covered = {e for c in cliques for e in _pairs(c)}
    assert p.edges <= covered


@given(st.integers(0, 10 ** 6))
def test_clique_tree_running_intersection_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 41))
    p = random_chordal_pattern(rng, n, float(rng.uniform(0.0, 0.45)))
    assert_valid_clique_tree(p, clique_tree(p))


def test_clique_tree_empty_pattern():
    p = validate_pattern(0, [])
    assert clique_tree(p) == CliqueTree((), (), ())
    assert maximal_cliques(p) == []
    assert perfect_elimination_order(p).order == ()


def test_clique_tree_components_join_clique_zero_in_order():
    # components {0}, {1, 4}, {2, 5, 6}, {3}: two isolated vertices
    p = validate_pattern(7, [(1, 4), (2, 5), (5, 6), (2, 6)])
    tree = clique_tree(p)
    assert tree == CliqueTree(
        ((0,), (1, 4), (2, 5, 6), (3,)), ((0, 1), (0, 2), (0, 3)), ((), (), ())
    )
    assert_valid_clique_tree(p, tree)


def test_clique_tree_edges_sorted_by_separator_size():
    # two triangles sharing an edge, a pendant edge on each side
    p = validate_pattern(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
    tree = clique_tree(p)
    assert tree.cliques == ((0, 1), (1, 2, 3), (2, 3, 4), (4, 5))
    assert tree.tree_edges == ((1, 2), (0, 1), (2, 3))
    assert tree.separators == ((2, 3), (1,), (4,))


@given(st.integers(0, 10 ** 6))
def test_clique_tree_on_several_components(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 41))
    p = random_chordal_components(rng, n, int(rng.integers(3, 7)))
    tree = clique_tree(p)
    assert_valid_clique_tree(p, tree)
    assert is_valid_elimination_order(p, perfect_elimination_order(p).order)


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
            if p.edges:
                gone = sorted(p.edges)[int(rng.integers(len(p.edges)))]
                p = validate_pattern(n, p.edges - {gone})
        assert p.structure == ref_chordal_structure(p)
        chordal += p.structure.chordal
    assert 0 < chordal < 50
