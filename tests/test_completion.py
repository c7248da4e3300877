import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.vendor.pretty import pretty

from conftest import (
    assert_valid_clique_tree,
    band_pattern,
    bits,
    complete_pattern,
    cycle_pattern,
    dense_mask,
    psd_supported_on,
    random_chordal_components,
    random_chordal_pattern,
    random_hermitian,
    random_pattern,
    random_psd,
    ref_agrees_on_pattern,
    ref_apply_multiplier,
    ref_first_unsupported,
    ref_partially_positive,
    ref_positive_completion,
)
from posext import (
    PartialHermitianMatrix,
    apply_multiplier,
    cb_norm_positive,
    clique_tree,
    expand,
    is_psd,
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
    InfeasibleError,
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


_BAND3_D2 = {
    (0, 0): np.eye(2), (1, 1): np.eye(2), (2, 2): np.eye(2),
    (0, 1): np.zeros((2, 2)), (1, 2): np.zeros((2, 2)),
}


@pytest.mark.parametrize(
    "n, d, edits, error, message",
    [
        (3, 2, {(0, 1): [[1]]}, DimensionMismatch, "block (0, 1) has shape (1, 1), expected (2,2)"),
        (3, 2, {(1, 2): [[1, 0, 0, 1]]}, DimensionMismatch, "block (1, 2) has shape (1, 4)"),
        (3, 2, {(1, 1): []}, DimensionMismatch, "block (1, 1) has shape (0,)"),
        (3, 2, {(0, 1): [[1, 0], [0]]}, DimensionMismatch, "block (0, 1) has shape (2,)"),
        (3, 2, {(1, 1): [[1, 1j], [1j, 1]]}, InputError, "diagonal block (1, 1) is not Hermitian"),
        (3, 2, {(1, 2): None}, InputError, "(missing [(1, 2)], extraneous [])"),
        (3, 2, {(0, 2): np.eye(2)}, InputError, "(missing [], extraneous [(0, 2)])"),
        (3, 0, {}, DimensionMismatch, "block size must be positive, got 0"),
        (0, 2, {}, None, None),
    ],
    ids=["1x1", "1x4", "empty", "ragged", "not-hermitian", "missing", "extraneous", "d0", "n0"],
)
def test_partial_matrix_names_the_first_bad_block(n, d, edits, error, message):
    """A misshapen, non-Hermitian, missing or extraneous block is named; n = 0 is fine.

    The band-1 pattern on n vertices gets identity and zero blocks of
    size 2, then the edits; an edit to None drops the pair.
    """
    p = validate_pattern(n, [(i, i + 1) for i in range(n - 1)])
    blocks = {key: block for key, block in {**_BAND3_D2, **edits}.items() if block is not None}
    if n == 0:
        blocks = {}
    if error is None:
        m = PartialHermitianMatrix(p, d, blocks)
        assert m.values.shape == (0, d, d) and expand(m).shape == (0, 0)
    else:
        with pytest.raises(error, match=re.escape(message)):
            PartialHermitianMatrix(p, d, blocks)


def test_partial_matrix_holds_one_read_only_stack_in_pair_order():
    rng = np.random.default_rng(17)
    p = random_chordal_pattern(rng, 7)
    a = random_psd(rng, 14)
    m = restrict_to_pattern(a, p, d=2)
    assert vars(m).keys() == {"pattern", "d", "values"}
    assert not m.values.flags.writeable
    rows, cols = p.pairs
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(
        [(i, i) for i in range(p.n)] + list(map(tuple, p.edge_array.tolist()))
    )
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        block = a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        assert bits(m.values[k]) == bits(block) == bits(m.block(i, j))
        assert bits(m.block(j, i)) == bits(block if i == j else block.conj().T)
    mask = dense_mask(p)
    unspecified = [(i, j) for i in range(p.n) for j in range(p.n) if not mask[i, j]]
    for i, j in [(0, p.n), (-1, 0), *unspecified]:
        with pytest.raises(KeyError):
            m.block(i, j)


def test_partial_matrices_pretty_print_as_their_repr():
    """A failing hypothesis example that holds a partial matrix reports the failed assertion.

    hypothesis's printer walks a dataclass's init fields, and the blocks
    InitVar is not an attribute, so it used to raise AttributeError instead.
    """
    p = validate_pattern(2, [(0, 1)])
    stacked = PartialHermitianMatrix.from_stack(p, 1, np.array([[[2.0]], [[1j]], [[3.0]]]))
    mapped = PartialHermitianMatrix(p, 1, {(0, 0): [[2.0]], (0, 1): [[1j]], (1, 1): [[3.0]]})
    for m in (stacked, mapped):
        assert pretty(m) == repr(m)
        assert pretty([m]) == f"[{m!r}]"


def test_stack_constructor_checks_as_the_mapping_constructor():
    """from_stack keeps the stack it is given, and refuses it with the mapping constructor's errors."""
    rng = np.random.default_rng(25)
    p = random_chordal_pattern(rng, 6)
    m = restrict_to_pattern(random_psd(rng, 12), p, d=2)
    keys = list(zip(*(a.tolist() for a in p.pairs)))
    assert bits(PartialHermitianMatrix(p, 2, dict(zip(keys, m.values))).values) == bits(m.values)
    diagonal, edge = keys.index((3, 3)), len(keys) - 2  # the last pair is (5, 5)
    for k, entry, value in [
        (diagonal, (0, 1), 1.0), (diagonal, (1, 1), 1j), (diagonal, (0, 0), np.nan), (edge, (1, 0), np.inf)
    ]:
        stack = m.values.copy()
        stack[(k, *entry)] += value
        with pytest.raises(InputError) as by_mapping:
            PartialHermitianMatrix(p, 2, dict(zip(keys, stack)))
        with pytest.raises(InputError) as by_stack:
            PartialHermitianMatrix.from_stack(p, 2, stack)
        assert (type(by_stack.value), str(by_stack.value)) == (type(by_mapping.value), str(by_mapping.value))
    with pytest.raises(DimensionMismatch, match="block size must be positive"):
        PartialHermitianMatrix.from_stack(p, 0, np.empty((len(keys), 0, 0), dtype=complex))
    for stack in (m.values[1:].copy(), m.values.real.copy(), m.values[:, :1].copy()):
        with pytest.raises(DimensionMismatch, match="^stack has shape"):
            PartialHermitianMatrix.from_stack(p, 2, stack)


@pytest.mark.parametrize(
    "drop, add",
    [
        ([(1, 2)], [(0, 2)]),  # as many blocks as pairs, one of them wrong
        ([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)], []),
        ([], [(2, 9), (0, 2), (1, 0), (0, 2, 1)]),
        ([(2, 2), (0, 0)], [(5, 5), (3, 3), (4, 4), (1, 0), (2, 0)]),
    ],
)
def test_block_cover_message_names_the_set_differences(drop, add):
    """The first four missing pairs and the four least extraneous keys, as set differences give."""
    p = validate_pattern(3, [(0, 1), (1, 2)])
    pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
    blocks = {key: np.eye(1) for key in pairs if key not in drop}
    blocks.update((key, np.eye(1)) for key in add)
    missing = sorted(set(pairs) - blocks.keys())[:4]
    extra = sorted(blocks.keys() - set(pairs))[:4]
    message = f"(missing {missing}, extraneous {extra})"
    with pytest.raises(InputError, match=re.escape(message) + "$"):
        PartialHermitianMatrix(p, 1, blocks)


def test_block_cover_message_on_a_pattern_without_edges():
    with pytest.raises(InputError, match=re.escape("(missing [], extraneous [(0, 1)])") + "$"):
        PartialHermitianMatrix(validate_pattern(2, []), 1, {(0, 0): [[1]], (0, 1): [[0]], (1, 1): [[1]]})


def test_block_cover_message_on_a_large_pattern_takes_no_object_per_edge():
    """Band-2 n = 2e5 with 3 blocks: the message names the keys, and memory stays far below
    the ~100 MB that one (i, j) tuple per edge took."""
    p = band_pattern(200_000, 2)
    p.pairs  # the pattern's own arrays are built before the measurement
    blocks = {(0, 0): [[1]], (0, 3): [[0]], (1, 0): [[0]]}
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            PartialHermitianMatrix(p, 1, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "blocks must cover the pattern pairs exactly "
        "(missing [(0, 1), (0, 2), (1, 1), (1, 2)], extraneous [(0, 3), (1, 0)])"
    )
    assert peak < 25e6


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


@pytest.mark.xfail(
    strict=True,
    reason="the separator pseudo-inverse cuts eigenvalues at 1e-12 of the largest, "
    "which diagonal scaling of rank-deficient data defeats (ROADMAP item 11)",
)
def test_completion_of_badly_scaled_rank_deficient_data_is_psd():
    """Rank-2 data on band-2 n = 5, rows scaled by 10^-3..10^3: partially positive, and a itself completes it."""
    rng = np.random.default_rng(10)
    b = rng.standard_normal((5, 2)) * (10.0 ** rng.integers(-3, 4, size=5))[:, None]
    m = restrict_to_pattern(b @ b.T, band_pattern(5, 2))
    assert partially_positive(m)[0]
    assert verify_extension(m, positive_completion(m).matrix)


def test_block_case_zero_off_diagonal_fills_zero():
    p = validate_pattern(3, [(0, 1), (1, 2)])
    blocks = {(i, i): np.eye(2) for i in range(3)}
    blocks[(0, 1)] = np.zeros((2, 2))
    blocks[(1, 2)] = np.zeros((2, 2))
    result = positive_completion(PartialHermitianMatrix(p, 2, blocks))
    assert np.abs(result.matrix[0:2, 4:6]).max() == 0.0


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
    assert rank_one_positive_decomposition(np.zeros((3, 3)), p) == []


def test_rank_one_decomposition_of_an_own_block_at_minus_mu():
    """T[2,2] = -1e-12 max |T|, which is_psd accepts: the damped block is exactly
    singular, so the leaf step falls back to its pseudo-inverse and vertex 2 gives
    no factor."""
    p = band_pattern(3, 1)
    factors = rank_one_positive_decomposition(np.diag([1.0, 1.0, -1e-12]), p)
    assert sorted(f.support for f in factors) == [(0,), (1,)]


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


@example(663, None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 1e-12, 1e-6]))
def test_decomposition_of_clique_sums_sums_back_to_the_matrix_or_raises_not_psd(seed, tol):
    """Sums of one v v* per maximal clique, so rank-deficient, with clique weights 1e-4 to 1e4.

    An input that is_psd rejects at the same tol raises NotPSD. Otherwise
    the factors sum back to it within 1e-5 max |T|, or, when elimination
    error leaves a clique part an eigenvalue too negative for that, the
    call raises NotPSD too. Seed 663, a band-1 chain of 14 cliques, is kept:
    without the damped leaf step a part eigenvalue of -0.82 put its factors
    0.82 off, and now they sum back.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    if rng.random() < 0.5:
        p = band_pattern(n, int(rng.integers(1, 4)))
    else:
        p = random_chordal_components(rng, n, int(rng.integers(1, 4)), density=0.5)
    cliques = maximal_cliques(p)
    t = np.zeros((n, n), dtype=complex)
    for clique in cliques:
        k = len(clique)
        v = np.zeros(n, dtype=complex)
        v[list(clique)] = rng.standard_normal(k) + 1j * rng.standard_normal(k) * (rng.random() < 0.5)
        v *= 10.0 ** rng.uniform(-2, 2)
        t += np.outer(v, v.conj())
    if not is_psd(t, tol):
        with pytest.raises(NotPSD):
            rank_one_positive_decomposition(t, p, tol)
        return
    try:
        factors = rank_one_positive_decomposition(t, p, tol)
    except NotPSD as e:
        assert str(e).startswith("clique part eigenvalue")
        return
    recon = np.zeros((n, n), dtype=complex)
    for f in factors:
        assert any(set(f.support) <= set(c) for c in cliques)
        recon += np.outer(f.vector, f.vector.conj())
    assert np.abs(recon - t).max() <= 1e-5 * np.abs(t).max()


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
    mask = dense_mask(p)
    unspecified = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not mask[i, j]
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


def test_apply_multiplier_overflow_names_the_first_entry():
    """Entries are named in the (n d) x (n d) product, and numpy's warnings are kept quiet."""
    a = np.eye(4, dtype=complex)
    a[1, 3] = 1e200 + 1e200j
    a[3, 1] = 1e200 - 1e200j
    m = restrict_to_pattern(a, validate_pattern(2, [(0, 1)]), d=2)
    t = np.array([[1, 1e200], [1e200, 1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^entry \(1,3\) of the product overflows$"):
            apply_multiplier(m, t)
    assert np.isfinite(apply_multiplier(m, t / 1e200)).all()


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
    # a largest diagonal entry at or below 0 (PSD within tolerance) reads +0, as for d = 2
    for corner in (-1e-12, -0.0):
        norm = cb_norm_positive(np.array([[corner]]))
        assert norm == 0.0 and not np.signbit(norm)
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


@pytest.mark.parametrize("seed", range(16))
def test_unsupported_entry_is_the_first_the_reference_loop_finds(seed):
    """Off-pattern entries at or below 1e-10 of the largest pass; the first larger one is named."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 9))
    p = random_pattern(rng, n, n)
    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mask = dense_mask(p)
    for i in range(n):
        for j in range(i + 1, n):
            if not mask[i, j]:
                size = rng.choice([0.0, -0.0, 1e-11, 1e-10, 1e-9], p=[0.3, 0.3, 0.15, 0.15, 0.1])
                t[i, j] = size * np.abs(t).max()
    m = restrict_to_pattern(random_psd(rng, n), p)
    first = ref_first_unsupported(t, p, 1e-10)
    if first is None:
        assert bits(apply_multiplier(m, t)) == bits(ref_apply_multiplier(m, t))
    else:
        with pytest.raises(NotSupported, match=r"^entry \(%d,%d\) " % first):
            apply_multiplier(m, t)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_multiplier_and_verification_match_reference_loops(d, seed):
    """Signed zeros survive in the blocks and never appear off the pattern."""
    rng = np.random.default_rng(40 * d + seed)
    n = int(rng.integers(1, 7))
    p = random_pattern(rng, n, 2 * n)
    a = random_psd(rng, n * d)
    side = rng.random(n * d) < 0.5
    a[side[:, None] != side[None, :]] = -0.0  # still PSD: a compression
    m = restrict_to_pattern(a, p, d)

    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t[rng.random((n, n)) < 0.3] = -0.0
    mask = dense_mask(p)
    for i in range(n):
        for j in range(n):
            if not mask[i, j]:
                t[i, j] = 0.0
    assert bits(apply_multiplier(m, t)) == bits(ref_apply_multiplier(m, t))

    unsigned = a + 0.0  # -0.0 + 0.0 is +0.0
    nudged_on = a.copy()
    nudged_off = a.copy()
    nudged_below = a.copy()  # the upper blocks still agree
    if len(p.edge_array):
        i, j = p.edge_array[0].tolist()
        nudged_on[i * d, j * d] += 1e-3
        nudged_below[j * d, i * d] += 1e-3
    if len(p.edge_array) < n * (n - 1) // 2:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if not mask[i, j])
        nudged_off[i * d, j * d] += 1e-3
        nudged_off[j * d, i * d] += 1e-3
    for phi in [a, unsigned, nudged_on, nudged_off, nudged_below, expand(m)]:
        expected = ref_agrees_on_pattern(m, phi) and is_psd(phi)
        assert verify_extension(m, phi) == expected
    assert verify_extension(m, unsigned)


def _nan_off_diagonal():
    phi = positive_completion(band09_example()).matrix.copy()
    phi[0, 1] = phi[1, 0] = np.nan
    return phi


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: apply_multiplier(
                restrict_to_pattern(np.eye(2), validate_pattern(2, [(0, 1)])),
                np.array([[1, np.inf], [np.inf, 1]]),
            ),
            id="apply-multiplier-inf",
        ),
        pytest.param(
            lambda: verify_extension(band09_example(), _nan_off_diagonal()),
            id="verify-extension-nan",
        ),
    ],
)
def test_library_calls_reject_non_finite_arrays(call):
    with pytest.raises(InputError, match="non-finite"):
        call()


def random_partial(rng: np.random.Generator, p, d: int, kind: int):
    """Partial data on p: 0 PSD, 1 singular PSD, 2 some diagonal entries shrunk
    (non-PSD cliques), 3 one negative diagonal entry, 4 indefinite."""
    size = p.n * d
    a = random_psd(rng, size, rank=max(1, size // 3) if kind == 1 else None)
    if kind == 2:
        a[np.diag_indices(size)] *= np.where(rng.random(size) < 0.2, 1e-3, 1.0)
    elif kind == 3:
        v = int(rng.integers(size))
        a[v, v] = -abs(a[v, v].real)
    elif kind == 4:
        a = random_hermitian(rng, size)
    return restrict_to_pattern(a, p, d)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", [*range(20), pytest.param(None, id="conjugate-in-a")])
def test_completion_matches_the_clique_by_clique_loops(d, seed):
    """Bitwise matrix, fill log, witness and error as the per-clique reference loops.

    Seed None walks {0,1}, {0,3}, {1,2}: step 2's M[old, S] block reads
    W[3, 1], which step 1 wrote as the conjugate of its fill, so a fill
    loop that drops that write or reads the block transposed fails.
    """
    rng = np.random.default_rng(1300 + 40 * d + (20 if seed is None else seed))
    if seed is None:
        p = validate_pattern(4, [(0, 1), (1, 2), (0, 3)])
        m, tol = random_partial(rng, p, d, 0), None
    else:
        n = int(rng.integers(1, 41))
        p = random_chordal_components(rng, n, int(rng.integers(1, 5)), density=0.3)
        m = random_partial(rng, p, d, seed % 5)
        tol = [None, None, 0.0, 1e-3][seed % 4]
    assert partially_positive(m, tol) == ref_partially_positive(m, tol)
    try:
        matrix, log = ref_positive_completion(m, tol)
    except InfeasibleError as exc:
        with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
            positive_completion(m, tol)
        return
    got = positive_completion(m, tol)
    assert bits(got.matrix) == bits(matrix)
    assert got.fill_log == log
    assert len(got.fills) == len(clique_tree(p).edge_array)  # one per tree edge


def assert_fill_invariants(p, result) -> None:
    """The steps of a completion: one per tree edge, with sorted, read-only, disjoint vertex sets."""
    assert len(result.fills) == len(clique_tree(p).edge_array)
    earlier: set[int] = set()
    for sep, old, new in result.fills:
        for part in (old, new):
            assert not part.flags.writeable and part.dtype == np.int64
            assert (np.diff(part) > 0).all()
        assert np.shares_memory(old, result.old) and np.shares_memory(new, result.new)
        olds, news, seps = set(old.tolist()), set(new.tolist()), set(sep)
        assert not olds & seps and not olds & news
        assert not news & earlier
        earlier |= olds | news | seps
    pairs = sum(len(old) * len(new) for _, old, new in result.fills)
    assert pairs == len(result.fill_log) == p.n * (p.n - 1) // 2 - len(p.edge_array)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_fills_are_disjoint_sorted_views_one_per_tree_edge(seed, d):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    p = random_chordal_components(rng, n, int(rng.integers(2, 6)), density=0.3)
    m = restrict_to_pattern(random_psd(rng, n * d), p, d)
    assert_fill_invariants(p, positive_completion(m))


@pytest.mark.parametrize(
    "p, steps",
    [
        pytest.param(validate_pattern(0, []), 0, id="n=0"),
        pytest.param(validate_pattern(7, []), 6, id="isolated"),
        pytest.param(complete_pattern(5), 0, id="one-clique"),
    ],
)
@pytest.mark.parametrize("d", [1, 2])
def test_fills_at_the_edges(p, steps, d):
    result = positive_completion(restrict_to_pattern(np.eye(p.n * d), p, d))
    assert_fill_invariants(p, result)
    assert len(result.fills) == steps
    assert np.array_equal(result.matrix, np.eye(p.n * d))


def test_fill_steps_take_memory_below_twice_the_dense_matrix():
    """512 isolated vertices: 511 steps whose old sets hold 130,816 vertices in all."""
    n = 512
    m = restrict_to_pattern(np.eye(n), validate_pattern(n, []))
    tracemalloc.start()
    try:
        result = positive_completion(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.fills) == n - 1 and len(result.old) == n * (n - 1) // 2
    assert peak < 2 * result.matrix.nbytes


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(12))
def test_partial_positivity_on_non_chordal_patterns_matches_the_loop(d, seed):
    rng = np.random.default_rng(1500 + 20 * d + seed)
    n = int(rng.integers(1, 13))
    m = random_partial(rng, random_pattern(rng, n, 2 * n), d, seed % 5)
    assert partially_positive(m) == ref_partially_positive(m)


# -- metamorphic properties ---------------------------------------------------

@st.composite
def chordal_partials(draw, kinds):
    """A random chordal pattern (n <= 12, d in {1, 2}), data of one kind of random_partial, its rng."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 12)), draw(st.sampled_from([1, 2]))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    p = random_chordal_components(rng, n, draw(st.integers(1, 3)), density)
    return rng, random_partial(rng, p, d, draw(st.sampled_from(kinds)))


def symmetries(rng, m):
    """(name, pattern, map) for a vertex relabelling, diagonal unitary and positive congruences and a scaling.

    Each map acts on (n d) x (n d) matrices and takes the pattern of m to
    the given one; its output is made exactly Hermitian again. The
    positive congruence scales each matrix row and column by 10^U(-1, 1).
    """
    n, d = m.n, m.d
    perm = rng.permutation(n)
    inv = np.argsort(perm)  # vertex v of m becomes perm[v]
    phases = np.exp(2j * np.pi * rng.random(n * d))
    c = 10.0 ** rng.uniform(-3, 3)
    scales = 10.0 ** rng.uniform(-1, 1, n * d)
    relabelled = validate_pattern(n, [(int(perm[i]), int(perm[j])) for i, j in m.pattern.edge_array.tolist()])
    maps = [
        ("relabel", relabelled, lambda x: x.reshape(n, d, n, d)[inv][:, :, inv].reshape(n * d, -1)),
        ("congruence", m.pattern, lambda x: phases[:, None] * x * phases.conj()),
        ("positive congruence", m.pattern, lambda x: scales[:, None] * x * scales),
        ("scaling", m.pattern, lambda x: c * x),
    ]
    return [(name, p, lambda x, f=f: (f(x) + f(x).conj().T) / 2) for name, p, f in maps]


@given(chordal_partials(kinds=[0]))
def test_completion_commutes_with_relabelling_congruence_and_scaling(case):
    """The completion of positive definite data is unique, so any clique tree gives it."""
    rng, m = case
    base = positive_completion(m).matrix
    for name, p, move in symmetries(rng, m):
        got = positive_completion(restrict_to_pattern(move(expand(m)), p, m.d)).matrix
        want = move(base)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name


@given(chordal_partials(kinds=[0, 3, 4]))
def test_partial_positivity_is_invariant_under_relabelling_congruence_and_scaling(case):
    rng, m = case
    ok, _ = partially_positive(m)
    for name, p, move in symmetries(rng, m):
        assert partially_positive(restrict_to_pattern(move(expand(m)), p, m.d))[0] == ok, name
