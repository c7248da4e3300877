import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    assert_valid_clique_tree,
    band_pattern,
    complete_pattern,
    cycle_pattern,
    psd_supported_on,
    random_chordal_components,
    random_chordal_pattern,
    random_psd,
)
from posext import (
    PartialHermitianMatrix,
    apply_multiplier,
    cb_norm_positive,
    clique_tree,
    expand,
    expanded_pattern,
    maximal_cliques,
    partially_positive,
    positive_completion,
    rank_one_positive_decomposition,
    restrict_to_pattern,
    validate_pattern,
    verify_extension,
)
from posext.errors import (
    DimensionMismatch,
    InputError,
    NotChordal,
    NotPartiallyPositive,
    NotPSD,
    NotSupported,
)


def scalar_partial(p, entries):
    blocks = {key: np.array([[val]], dtype=complex) for key, val in entries.items()}
    return PartialHermitianMatrix(p, 1, blocks)


def band09_example():
    p = validate_pattern(3, [(0, 1), (1, 2)])
    return scalar_partial(
        p, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0.9, (1, 2): 0.9}
    )


def cycle4_witness():
    p = cycle_pattern(4)
    return scalar_partial(
        p,
        {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
         (0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1},
    )


def test_partial_matrix_requires_all_pattern_blocks():
    p = validate_pattern(2, [(0, 1)])
    with pytest.raises(InputError):
        PartialHermitianMatrix(p, 1, {(0, 0): np.eye(1), (1, 1): np.eye(1)})
    with pytest.raises(InputError):
        PartialHermitianMatrix(
            p,
            1,
            {(0, 0): np.array([[1j]]), (1, 1): np.eye(1), (0, 1): np.eye(1)},
        )


@pytest.mark.parametrize(
    "key, value",
    [((0, 0), np.inf), ((0, 1), np.nan), ((1, 1), -np.inf), ((0, 1), complex(0, np.inf))],
)
def test_partial_matrix_rejects_non_finite_entries(key, value):
    entries = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0.9, (1, 2): 0.9}
    entries[key] = value
    with pytest.raises(InputError, match="non-finite"):
        scalar_partial(validate_pattern(3, [(0, 1), (1, 2)]), entries)


def test_partially_positive_examples():
    p = validate_pattern(3, [(0, 1), (1, 2)])
    ok, witness = partially_positive(
        scalar_partial(p, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0.5, (1, 2): 0.5})
    )
    assert ok and witness is None

    ok, witness = partially_positive(
        scalar_partial(p, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 2, (1, 2): 0.5})
    )
    assert not ok and witness == (0, 1)

    ok, witness = partially_positive(cycle4_witness())
    assert ok and witness is None


def _maxdet_fill_oracle(values):
    """Grid argmax of det over the single unknown of the 0.9-band instance."""
    best, best_x = -np.inf, None
    for x in values:
        m = np.array([[1, 0.9, x], [0.9, 1, 0.9], [x, 0.9, 1]])
        det = np.linalg.det(m)
        if det > best:
            best, best_x = det, x
    return best_x


def test_completion_band09_matches_maxdet_oracle():
    argmax = _maxdet_fill_oracle(np.round(np.arange(-1, 1.0001, 0.01), 10))
    assert abs(argmax - 0.81) <= 1e-2

    result = positive_completion(band09_example())
    fill = result.matrix[0, 2]
    assert abs(fill - 0.81) <= 1e-12
    assert fill.imag == 0
    assert np.linalg.eigvalsh(result.matrix).min() >= -1e-9
    assert result.fill_log == (((1,), (0, 2)),)
    assert verify_extension(band09_example(), result.matrix)


def test_completion_is_identity_on_complete_patterns():
    rng = np.random.default_rng(11)
    a = random_psd(rng, 4)
    m = restrict_to_pattern(a, complete_pattern(4))
    result = positive_completion(m)
    assert np.array_equal(result.matrix, a)
    assert result.fill_log == ()


def test_completion_band1_toeplitz_geometric_fills():
    p = band_pattern(5, 1)
    entries = {(i, i): 1.0 for i in range(5)} | {(i, i + 1): 0.5 for i in range(4)}
    result = positive_completion(scalar_partial(p, entries))
    for i in range(5):
        for j in range(5):
            assert abs(result.matrix[i, j] - 0.5 ** abs(i - j)) <= 1e-12
    assert np.linalg.eigvalsh(result.matrix).min() >= -1e-9


def test_completion_band1_toeplitz_fills_match_per_entry_maxdet():
    p = band_pattern(5, 1)
    entries = {(i, i): 1.0 for i in range(5)} | {(i, i + 1): 0.5 for i in range(4)}
    completed = positive_completion(scalar_partial(p, entries)).matrix.real
    grid = np.round(np.arange(-1, 1.0001, 0.01), 10)
    for i in range(5):
        for j in range(i + 2, 5):
            best, best_x = -np.inf, None
            for x in grid:
                trial = completed.copy()
                trial[i, j] = trial[j, i] = x
                det = np.linalg.det(trial)
                if det > best:
                    best, best_x = det, x
            assert abs(best_x - completed[i, j]) <= 1e-2


def test_completion_rejects_nonchordal_and_nonpositive():
    with pytest.raises(NotChordal):
        positive_completion(cycle4_witness())
    p = validate_pattern(2, [(0, 1)])
    bad = scalar_partial(p, {(0, 0): 1, (1, 1): 1, (0, 1): 2})
    with pytest.raises(NotPartiallyPositive):
        positive_completion(bad)


def test_cycle4_witness_has_no_completion_by_grid_certificate():
    m = cycle4_witness()
    ok, _ = partially_positive(m)
    assert ok
    grid = np.arange(-1, 1.0001, 0.01)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    mats = np.zeros((len(grid), len(grid), 4, 4))
    mats[..., range(4), range(4)] = 1.0
    for (i, j), val in [((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 3), -1.0)]:
        mats[..., i, j] = mats[..., j, i] = val
    mats[..., 0, 2] = mats[..., 2, 0] = xs
    mats[..., 1, 3] = mats[..., 3, 1] = ys
    min_eigs = np.linalg.eigvalsh(mats)[..., 0]
    assert min_eigs.max() < -1e-3


@pytest.mark.parametrize("d", [1, 2])
def test_completion_soundness_randomized(d):
    rng = np.random.default_rng(101 + d)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        p = random_chordal_pattern(rng, n)
        m = restrict_to_pattern(random_psd(rng, n * d), p, d)
        ok, _ = partially_positive(m)
        assert ok
        result = positive_completion(m)
        assert verify_extension(m, result.matrix)
        scale = 1 + max(result.matrix[i, i].real for i in range(n * d))
        assert np.linalg.eigvalsh(result.matrix).min() >= -1e-9 * scale


def test_block_case_zero_off_diagonal_fills_zero():
    p = validate_pattern(3, [(0, 1), (1, 2)])
    blocks = {(i, i): np.eye(2) for i in range(3)}
    blocks[(0, 1)] = np.zeros((2, 2))
    blocks[(1, 2)] = np.zeros((2, 2))
    result = positive_completion(PartialHermitianMatrix(p, 2, blocks))
    assert np.abs(result.matrix[0:2, 4:6]).max() == 0.0


def test_expanded_pattern_blows_up_vertices():
    p = validate_pattern(2, [(0, 1)])
    q = expanded_pattern(p, 2)
    assert q.n == 4
    assert q.edges == frozenset({(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)})


def test_extension_multiplier_alias_examples():
    p = validate_pattern(3, [(0, 1), (1, 2)])
    m = scalar_partial(
        p, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0.5, (1, 2): 0.5}
    )
    result = positive_completion(m)
    assert abs(result.matrix[0, 2] - 0.25) <= 1e-12

    blocks = {(i, i): np.eye(2, dtype=complex) for i in range(3)}
    blocks[(0, 1)] = np.eye(2, dtype=complex)
    blocks[(1, 2)] = np.eye(2, dtype=complex)
    full_p = complete_pattern(3)
    full_blocks = {
        (i, j): np.eye(2, dtype=complex) for i in range(3) for j in range(i, 3)
    }
    full = PartialHermitianMatrix(full_p, 2, full_blocks)
    result = positive_completion(full)
    assert np.array_equal(result.matrix, expand(full))


def test_rank_one_decomposition_identity_and_zero():
    p = band_pattern(3, 1)
    factors = rank_one_positive_decomposition(np.eye(3, dtype=complex), p)
    assert sorted(f.support for f in factors) == [(0,), (1,), (2,)]
    for f in sorted(factors, key=lambda f: f.support):
        expected = np.zeros(3, dtype=complex)
        expected[f.support[0]] = 1.0
        assert np.abs(f.vector - expected).max() <= 1e-12
    assert rank_one_positive_decomposition(
        np.zeros((1, 1)), validate_pattern(1, [])
    ) == []


def test_rank_one_decomposition_band1_example():
    p = band_pattern(3, 1)
    t = np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]], dtype=complex)
    factors = rank_one_positive_decomposition(t, p)
    recon = sum(np.outer(f.vector, f.vector.conj()) for f in factors)
    assert np.abs(recon - t).max() <= 1e-8 * (1 + np.abs(t).max())
    cliques = [set(c) for c in maximal_cliques(p)]
    for f in factors:
        assert any(set(f.support) <= c for c in cliques)


def test_rank_one_decomposition_errors():
    p = band_pattern(3, 1)
    with pytest.raises(NotSupported):
        rank_one_positive_decomposition(np.ones((3, 3)), p)
    with pytest.raises(NotPSD):
        rank_one_positive_decomposition(
            np.array([[1, 2, 0], [2, 1, 0.5], [0, 0.5, 1]], dtype=complex), p
        )
    with pytest.raises(NotChordal):
        rank_one_positive_decomposition(np.eye(4, dtype=complex), cycle_pattern(4))


@given(st.integers(0, 10 ** 6))
def test_rank_one_decomposition_random(seed):
    rng = np.random.default_rng(seed)
    p = random_chordal_pattern(rng, int(rng.integers(1, 9)))
    t = psd_supported_on(rng, p)
    factors = rank_one_positive_decomposition(t, p)
    recon = sum(
        (np.outer(f.vector, f.vector.conj()) for f in factors),
        np.zeros((p.n, p.n), dtype=complex),
    )
    assert np.abs(recon - t).max() <= 1e-8 * (1 + np.abs(t).max())
    cliques = [set(c) for c in maximal_cliques(p)]
    for f in factors:
        assert any(set(f.support) <= c for c in cliques)


def test_completion_and_decomposition_on_empty_pattern():
    p = validate_pattern(0, [])
    result = positive_completion(PartialHermitianMatrix(p, 1, {}))
    assert result.matrix.shape == (0, 0) and result.fill_log == ()
    assert rank_one_positive_decomposition(np.zeros((0, 0)), p) == []


@pytest.mark.parametrize("seed", range(8))
def test_completion_and_decomposition_on_several_components(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(1, 25))
    p = random_chordal_components(rng, n, 3 + seed % 4)
    assert_valid_clique_tree(p, clique_tree(p))

    m = restrict_to_pattern(random_psd(rng, n), p)
    result = positive_completion(m)
    assert verify_extension(m, result.matrix)
    scale = 1 + max(result.matrix[i, i].real for i in range(n))
    assert np.linalg.eigvalsh(result.matrix).min() >= -1e-9 * scale
    filled = sorted(tuple(sorted(pair)) for _, pair in result.fill_log)
    unspecified = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not p.has_edge(i, j)
    ]
    assert filled == unspecified

    t = psd_supported_on(rng, p)
    factors = rank_one_positive_decomposition(t, p)
    recon = sum(
        (np.outer(f.vector, f.vector.conj()) for f in factors),
        np.zeros((n, n), dtype=complex),
    )
    assert np.abs(recon - t).max() <= 1e-8 * (1 + np.abs(t).max())
    cliques = [set(c) for c in maximal_cliques(p)]
    for f in factors:
        assert any(set(f.support) <= c for c in cliques)


def test_apply_multiplier_examples():
    p = band_pattern(3, 1)
    t = np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]], dtype=complex)
    ones = scalar_partial(
        p, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 1, (1, 2): 1}
    )
    assert np.array_equal(apply_multiplier(ones, t), t)
    zero = scalar_partial(
        p, {(0, 0): 0, (1, 1): 0, (2, 2): 0, (0, 1): 0, (1, 2): 0}
    )
    assert np.abs(apply_multiplier(zero, t)).max() == 0.0

    doubler = scalar_partial(
        p, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 2, (1, 2): 1}
    )
    ones_on_pattern = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=complex)
    out = apply_multiplier(doubler, ones_on_pattern)
    expected = ones_on_pattern.copy()
    expected[0, 1] = expected[1, 0] = 2.0
    assert np.array_equal(out, expected)

    with pytest.raises(NotSupported):
        apply_multiplier(doubler, np.ones((3, 3), dtype=complex))


def test_multiplier_consistency_after_extension():
    rng = np.random.default_rng(55)
    p = random_chordal_pattern(rng, 6)
    m = restrict_to_pattern(random_psd(rng, 6), p)
    extension = positive_completion(m).matrix
    back = restrict_to_pattern(extension, p)
    t = psd_supported_on(rng, p)
    assert np.array_equal(apply_multiplier(back, t), apply_multiplier(m, t))


def test_cb_norm_examples():
    assert cb_norm_positive(np.eye(2)) == 1.0
    assert cb_norm_positive(np.array([[2, 1], [1, 3]], dtype=complex)) == 3.0
    assert cb_norm_positive(np.diag([0.5, 0.2])) == 0.5
    with pytest.raises(NotPSD):
        cb_norm_positive(np.array([[1, 2], [2, 1]], dtype=complex))


def test_cb_norm_block_case():
    blocks = np.zeros((4, 4), dtype=complex)
    blocks[:2, :2] = [[2, 1], [1, 2]]
    blocks[2:, 2:] = [[1, 0], [0, 0.5]]
    assert abs(cb_norm_positive(blocks, d=2) - 3.0) <= 1e-12


@pytest.mark.parametrize("d", [0, -2])
def test_cb_norm_rejects_nonpositive_block_size(d):
    with pytest.raises(DimensionMismatch, match="block size must be positive"):
        cb_norm_positive(np.eye(4), d=d)


def test_cb_norm_rejects_non_finite_multiplier():
    with pytest.raises(InputError, match="non-finite"):
        cb_norm_positive(np.array([[np.inf]]))


def test_verify_extension_detects_perturbation():
    m = band09_example()
    good = positive_completion(m).matrix
    assert verify_extension(m, good)
    bad = good.copy()
    bad[0, 1] += 1e-3
    bad[1, 0] += 1e-3
    assert not verify_extension(m, bad)
    not_psd = good.copy()
    not_psd[0, 2] = not_psd[2, 0] = -5.0
    assert not verify_extension(m, not_psd)
