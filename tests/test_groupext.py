import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    all_small_groups,
    random_pd_function,
    random_psd,
    symmetric_subsets,
)
from posext import (
    cb_norm_positive,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_function,
    invariant_kernel,
    invariantize,
    is_chordal_subset,
    is_positive_definite_on,
    klein_four_group,
    n_transform,
    positive_definite_extension,
    star_pattern,
    validate_group,
    validate_subset,
    word_chordality_oracle,
)
from posext.errors import (
    DimensionMismatch,
    DomainMismatch,
    InputError,
    NoIdentity,
    NotAssociative,
    NotChordalSubset,
    NotLatinSquare,
    NotPositiveDefinite,
    TooLarge,
)


def test_validate_group_accepts_z3():
    g = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    assert g.order == 3
    assert g.inverse == (0, 2, 1)


def test_validate_group_rejects_broken_tables():
    with pytest.raises(NotLatinSquare):
        validate_group([[0, 1], [1, 1]], 0)
    with pytest.raises(NoIdentity):
        validate_group([[1, 0], [0, 1]], 0)
    # Latin square that is not associative: x*y = y - x mod 3 has no
    # two-sided identity either, so build a genuinely nonassociative loop.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as exc:
        validate_group(table, 0)
    assert str(exc.value) == "(1*1)*2 != 1*(1*2)"


def _switched_table(rng: np.random.Generator, n: int) -> list[list[int]]:
    """The table x*y = x XOR y of (Z_2)^k, n = 2^k, with one intercalate switched.

    With b2 = b ^ a ^ a2 the cells (a, b), (a, b2), (a2, b), (a2, b2) hold
    x, y over y, x; swapping them keeps a Latin square, and identity 0
    when a, a2, b, b2 are all nonzero.
    """
    table = [[x ^ y for y in range(n)] for x in range(n)]
    a, a2, b = (int(x) for x in rng.choice(np.arange(1, n), 3, replace=False))
    if b == a ^ a2:
        b = a
    b2 = b ^ a ^ a2
    for row in (a, a2):
        table[row][b], table[row][b2] = table[row][b2], table[row][b]
    return table


@pytest.mark.parametrize("seed", range(40))
def test_validate_group_reports_first_nonassociative_triple(seed):
    """The scan reports the lexicographically first failing (a, b, c)."""
    rng = np.random.default_rng(seed)
    table = _switched_table(rng, int(rng.choice([8, 16])))
    n = len(table)
    a, b, c = next(
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    )
    with pytest.raises(NotAssociative) as exc:
        validate_group(table, 0)
    assert str(exc.value) == f"({a}*{b})*{c} != {a}*({b}*{c})"


def test_klein_four_group_table():
    k4 = klein_four_group()
    assert k4.order == 4
    assert all(k4.mul(x, x) == 0 for x in range(4))
    assert k4.inverse == (0, 1, 2, 3)


def test_dihedral_group_is_s3():
    s3 = dihedral_group(3)
    assert s3.order == 6
    assert sorted(s3.inverse) == [0, 1, 2, 3, 4, 5]
    assert any(s3.mul(a, b) != s3.mul(b, a) for a in range(6) for b in range(6))


def test_direct_product_orders():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.identity == 0


def test_star_pattern_examples():
    z3 = cyclic_group(3)
    full = validate_subset(z3, {0, 1, 2})
    assert sorted(star_pattern(z3, full).edges) == [(0, 1), (0, 2), (1, 2)]

    z5 = cyclic_group(5)
    e5 = validate_subset(z5, {0, 1, 4})
    assert sorted(star_pattern(z5, e5).edges) == [
        (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
    ]

    z4 = cyclic_group(4)
    e4 = validate_subset(z4, {0, 2})
    assert sorted(star_pattern(z4, e4).edges) == [(0, 2), (1, 3)]


def test_chordal_subset_examples():
    z5 = cyclic_group(5)
    assert is_chordal_subset(z5, validate_subset(z5, set(range(5))))
    assert not is_chordal_subset(z5, validate_subset(z5, {0, 1, 4}))
    z4 = cyclic_group(4)
    assert is_chordal_subset(z4, validate_subset(z4, {0, 2}))


def test_word_oracle_examples():
    z5 = cyclic_group(5)
    assert not word_chordality_oracle(z5, validate_subset(z5, {0, 1, 4}))
    assert word_chordality_oracle(z5, validate_subset(z5, set(range(5))))
    z4 = cyclic_group(4)
    assert word_chordality_oracle(z4, validate_subset(z4, {0, 2}))
    big = cyclic_group(9)
    with pytest.raises(TooLarge):
        word_chordality_oracle(big, validate_subset(big, {0}))


def test_word_oracle_agrees_with_pattern_chordality_everywhere():
    for _, g in all_small_groups():
        for e in symmetric_subsets(g):
            assert word_chordality_oracle(g, e) == is_chordal_subset(g, e), (
                g.order,
                sorted(e.members),
            )


def test_star_pattern_is_right_translation_invariant():
    for g in [cyclic_group(8), dihedral_group(4), klein_four_group()]:
        for e in symmetric_subsets(g)[:8]:
            p = star_pattern(g, e)
            for r in range(g.order):
                for s in range(g.order):
                    for t in range(g.order):
                        if s != t:
                            assert p.has_edge(s, t) == p.has_edge(
                                g.mul(s, r), g.mul(t, r)
                            )


def test_n_transform_examples():
    z3 = cyclic_group(3)
    e1 = validate_subset(z3, {0})
    m = n_transform(z3, e1, group_function(z3, {0: 2.0}))
    assert m.pattern.edges == frozenset()
    assert all(m.block(i, i)[0, 0] == 2.0 for i in range(3))

    full = validate_subset(z3, {0, 1, 2})
    u = group_function(z3, {0: 1.0, 1: 0.6, 2: 0.6})
    m = n_transform(z3, full, u)
    assert [m.block(0, j)[0, 0].real for j in range(3)] == [1.0, 0.6, 0.6]

    z2 = cyclic_group(2)
    m2 = n_transform(
        z2, validate_subset(z2, {0, 1}), group_function(z2, {0: 1.0, 1: 0.5})
    )
    assert m2.block(0, 1)[0, 0] == 0.5

    with pytest.raises(DomainMismatch):
        n_transform(z3, full, group_function(z3, {0: 1.0}))


def test_positive_definiteness_examples():
    z3 = cyclic_group(3)
    full = validate_subset(z3, {0, 1, 2})
    e1 = validate_subset(z3, {0})
    assert is_positive_definite_on(z3, e1, group_function(z3, {0: 1.0}))
    assert is_positive_definite_on(
        z3, full, group_function(z3, {0: 1.0, 1: 0.6, 2: 0.6})
    )
    assert not is_positive_definite_on(
        z3, full, group_function(z3, {0: 1.0, 1: -0.8, 2: -0.8})
    )


def test_extension_z4_pair_subset():
    z4 = cyclic_group(4)
    e = validate_subset(z4, {0, 2})
    u = group_function(z4, {0: 1.0, 2: 0.5})
    v = positive_definite_extension(z4, e, u)
    assert [v(g) for g in range(4)] == [1.0, 0.0, 0.5, 0.0]
    eigs = np.linalg.eigvalsh(invariant_kernel(z4, v))
    assert np.allclose(sorted(eigs), [0.5, 0.5, 1.5, 1.5], atol=1e-12)


def test_extension_full_subset_is_identity():
    z2 = cyclic_group(2)
    u = group_function(z2, {0: 1.0, 1: 0.3})
    v = positive_definite_extension(z2, validate_subset(z2, {0, 1}), u)
    assert v(0) == 1.0 and v(1) == 0.3


@pytest.mark.parametrize("value", [np.inf, np.nan, complex(0.5, -np.inf)])
def test_group_function_rejects_non_finite_values(value):
    z3 = cyclic_group(3)
    with pytest.raises(InputError, match="non-finite"):
        group_function(z3, {0: 1.0, 1: value, 2: np.conj(value)})
    with pytest.raises(InputError, match="non-finite"):
        group_function(z3, {0: value, 1: 0.5, 2: 0.5})


def test_extension_klein_pair():
    k4 = klein_four_group()
    u = group_function(k4, {0: 1.0, 1: 1.0})
    v = positive_definite_extension(k4, validate_subset(k4, {0, 1}), u)
    assert [v(g) for g in range(4)] == [1.0, 1.0, 0.0, 0.0]
    assert np.linalg.eigvalsh(invariant_kernel(k4, v)).min() >= -1e-12


def test_extension_rejects_nonchordal_or_indefinite():
    z5 = cyclic_group(5)
    e = validate_subset(z5, {0, 1, 4})
    u = group_function(z5, {0: 1.0, 1: 0.1, 4: 0.1})
    with pytest.raises(NotChordalSubset):
        positive_definite_extension(z5, e, u)
    z3 = cyclic_group(3)
    full = validate_subset(z3, {0, 1, 2})
    with pytest.raises(NotPositiveDefinite):
        positive_definite_extension(
            z3, full, group_function(z3, {0: 1.0, 1: -0.8, 2: -0.8})
        )


def test_invariantize_examples():
    z2 = cyclic_group(2)
    v = invariantize(z2, np.array([[2.0, 1.0], [1.0, 4.0]], dtype=complex))
    assert v(0) == 3.0 and v(1) == 1.0
    kernel = invariant_kernel(z2, v)
    assert np.array_equal(kernel.real, [[3, 1], [1, 3]])

    z3 = cyclic_group(3)
    ident = invariantize(z3, np.eye(3, dtype=complex))
    assert [ident(g) for g in range(3)] == [1.0, 0.0, 0.0]

    circulant = np.array(
        [[1, 0.6, 0.6], [0.6, 1, 0.6], [0.6, 0.6, 1]], dtype=complex
    )
    fixed = invariantize(z3, circulant)
    assert [fixed(g) for g in range(3)] == [1.0, 0.6, 0.6]

    with pytest.raises(DimensionMismatch):
        invariantize(z3, np.eye(2))


@given(st.integers(0, 10 ** 6))
def test_invariantize_kernel_is_psd(seed):
    rng = np.random.default_rng(seed)
    groups = [cyclic_group(4), cyclic_group(6), dihedral_group(3), klein_four_group()]
    g = groups[seed % len(groups)]
    v = invariantize(g, random_psd(rng, g.order))
    assert np.linalg.eigvalsh(invariant_kernel(g, v)).min() >= -1e-9


@pytest.mark.parametrize("name,g", all_small_groups())
def test_extension_correctness_random_functions(name, g):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    chordal = [e for e in symmetric_subsets(g) if is_chordal_subset(g, e)]
    for e in chordal:
        for _ in range(6):
            u = random_pd_function(rng, g, e)
            v = positive_definite_extension(g, e, u)
            for x in e.members:
                assert v(x) == u(x)
            for x in range(g.order):
                assert v(g.inverse[x]) == v(x).conjugate()
            kernel = invariant_kernel(g, v)
            scale = 1 + abs(u(g.identity))
            assert np.linalg.eigvalsh(kernel).min() >= -1e-9 * scale
            assert abs(cb_norm_positive(kernel) - u(g.identity).real) <= 1e-10
