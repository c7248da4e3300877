from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_small_groups,
    bits,
    dense_mask,
    group_fields,
    random_pd_function,
    ref_dihedral_table,
    ref_direct_product_table,
    ref_invariant_kernel,
    ref_is_chordal_subset,
    ref_is_positive_definite_on,
    ref_kernel_blocks,
    ref_positive_definite_extension,
    ref_star_edges,
    ref_validate_group,
    symmetric_subsets,
    word_chordality_oracle,
)
from posext import (
    cb_norm_positive,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_function,
    invariant_kernel,
    is_chordal_subset,
    is_positive_definite_on,
    klein_four_group,
    maximal_cliques,
    positive_definite_extension,
    star_pattern,
    validate_group,
    validate_subset,
)
from posext.errors import (
    DomainMismatch,
    InfeasibleError,
    InputError,
    NoIdentity,
    NotAssociative,
    NotChordalSubset,
    NotLatinSquare,
    NotPositiveDefinite,
    TooLarge,
)
from posext import groupext, linalg
from posext import serialize as ser
from posext.groupext import _generators


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
    assert (k4.table_array.diagonal() == 0).all()
    assert k4.inverse == (0, 1, 2, 3)


def test_dihedral_group_is_s3():
    s3 = dihedral_group(3)
    assert s3.order == 6
    assert sorted(s3.inverse) == [0, 1, 2, 3, 4, 5]
    assert (s3.table_array != s3.table_array.T).any()


def test_direct_product_orders():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.identity == 0


def test_star_pattern_examples():
    z3 = cyclic_group(3)
    full = validate_subset(z3, {0, 1, 2})
    assert star_pattern(z3, full).edge_array.tolist() == [[0, 1], [0, 2], [1, 2]]

    z5 = cyclic_group(5)
    e5 = validate_subset(z5, {0, 1, 4})
    assert star_pattern(z5, e5).edge_array.tolist() == [
        [0, 1], [0, 4], [1, 2], [2, 3], [3, 4],
    ]

    z4 = cyclic_group(4)
    e4 = validate_subset(z4, {0, 2})
    assert star_pattern(z4, e4).edge_array.tolist() == [[0, 2], [1, 3]]


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
            mask = dense_mask(star_pattern(g, e))
            for r in range(g.order):
                for s in range(g.order):
                    for t in range(g.order):
                        if s != t:
                            assert mask[s, t] == mask[g.table_array[s, r], g.table_array[t, r]]


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


def random_hermitian_function(rng: np.random.Generator, g, e, diag: float):
    """u(e) = diag and random values elsewhere with u(x^-1) = conj(u(x))."""
    vals = {g.identity: complex(diag)}
    for x in sorted(e.members - {g.identity}):
        xi = g.inverse[x]
        if xi in vals:
            vals[x] = vals[xi].conjugate()
        else:
            vals[x] = complex(rng.normal(), rng.normal() if xi != x else 0.0)
    return group_function(g, vals)


@pytest.mark.parametrize("name,g", all_small_groups())
def test_positive_definiteness_checks_cliques_through_the_identity_only(name, g):
    """Same verdict as checking every maximal clique of the whole pattern."""
    rng = np.random.default_rng(sum(map(ord, name)))
    verdicts = set()
    for e in symmetric_subsets(g):
        functions = [random_pd_function(rng, g, e)]
        functions += [random_hermitian_function(rng, g, e, diag) for diag in (0.5, 2.0, 4.0)]
        for u in functions:
            for tol in (None, 0.5):
                want = ref_is_positive_definite_on(g, e, u, tol)
                assert is_positive_definite_on(g, e, u, tol) == want
                verdicts.add(want)
    assert g.order == 1 or verdicts == {True, False}


def test_positive_definiteness_cap_applies_to_the_subset():
    z21 = cyclic_group(21)
    e = validate_subset(z21, {0, 1, 20})
    assert not is_chordal_subset(z21, e)
    assert is_positive_definite_on(z21, e, group_function(z21, {0: 1.0, 1: 0.1, 20: 0.1}))
    assert not is_positive_definite_on(z21, e, group_function(z21, {0: 1.0, 1: 1.2, 20: 1.2}))
    z23 = cyclic_group(23)
    big = validate_subset(z23, set(range(23)) - {5, 18})  # 21 members, not a subgroup
    u = group_function(z23, {x: 1.0 if x == 0 else 0.01 for x in big.members})
    with pytest.raises(TooLarge):
        is_positive_definite_on(z23, big, u)


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


def _relabelled(g, label):
    """g with each element x renamed label[x]."""
    label = np.asarray(label)
    table = np.empty_like(g.table_array)
    table[label[:, None], label] = label[g.table_array]
    return validate_group(table, int(label[g.identity]))


def test_extension_failure_names_the_first_coset_when_h_is_not_first():
    """Z_6 relabelled so that its identity is 3 and its subgroup of order 2 is {2, 3}."""
    g = _relabelled(cyclic_group(6), [3, 0, 1, 2, 4, 5])
    h = validate_subset(g, {2, 3})
    assert maximal_cliques(star_pattern(g, h)) == [(0, 4), (1, 5), (2, 3)]  # the right cosets
    u = group_function(g, {3: 1.0, 2: 2.0})  # the block [[1, 2], [2, 1]] is indefinite
    with pytest.raises(NotPositiveDefinite) as info:
        positive_definite_extension(g, h, u)
    assert str(info.value) == "kernel fails: clique (0, 4) has a non-PSD block"


def test_extension_checks_the_block_on_h_and_names_the_first_coset(monkeypatch):
    """One (1, |H|, |H|) stack, bit for bit the block that pd-check's clique check gets.

    Z_12 relabelled by 0, 1, 2, 3 -> 3, 0, 1, 2 has identity 3 and
    H = {2, 3, 6, 9}, the image of {0, 3, 6, 9}. Its first right coset is
    (0, 4, 7, 10), whose block is the block on H permuted, not equal.
    """
    g = _relabelled(cyclic_group(12), [3, 0, 1, 2, *range(4, 12)])
    h = validate_subset(g, {2, 3, 6, 9})
    u = group_function(g, {3: 2.0, 2: 0.5 + 0.25j, 9: 0.5 - 0.25j, 6: -0.3})
    seen = {}

    def stand_in(key, verdict):
        def is_psd(blocks, tol=None):
            seen[key] = (blocks.copy(), tol)
            return np.array([verdict])

        return is_psd

    monkeypatch.setattr(linalg, "is_psd", stand_in("pd-check", True))
    assert is_positive_definite_on(g, h, u, 0.25)
    monkeypatch.setattr(groupext, "is_psd", stand_in("extend", False))
    with pytest.raises(NotPositiveDefinite, match=r"^kernel fails: clique \(0, 4, 7, 10\) has a non-PSD block$"):
        positive_definite_extension(g, h, u, 0.25)
    (stack, tol), (block, pd_tol) = seen["extend"], seen["pd-check"]
    assert stack.shape == block.shape == (1, 4, 4) and tol == pd_tol == 0.25
    assert bits(stack) == bits(block)


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


# Every small group plus two non-abelian ones, where t s^-1 and s^-1 t differ.
GROUPS = all_small_groups() + [
    ("D4", dihedral_group(4)),
    ("Z2xS3", direct_product(cyclic_group(2), dihedral_group(3))),
]


@pytest.mark.parametrize("name,g", GROUPS)
def test_quotient_lookups_match_reference_loops(name, g):
    rng = np.random.default_rng(len(name) * 1000 + g.order)
    for e in symmetric_subsets(g):
        p = star_pattern(g, e)
        assert p.edge_array.tolist() == sorted(map(list, ref_star_edges(g, e)))
        u = random_pd_function(rng, g, e)
        kernel = invariant_kernel(g, group_function(g, {x: u.values.get(x, 0j) for x in range(g.order)}))
        assert all(bits(kernel[k]) == bits(v[0, 0]) for k, v in ref_kernel_blocks(g, u, p).items())
    f = random_pd_function(rng, g, validate_subset(g, range(g.order)))
    assert bits(invariant_kernel(g, f)) == bits(ref_invariant_kernel(g, f))


def test_dihedral_and_direct_product_tables_match_reference_loops():
    for n in range(1, 7):
        assert dihedral_group(n).table_array.tolist() == ref_dihedral_table(n)
    for (_, g), (_, h) in zip(GROUPS, GROUPS[3:] + GROUPS[:3]):
        got = direct_product(g, h)
        assert got.table_array.tolist() == ref_direct_product_table(g, h)
        assert got.identity == g.identity * h.order + h.identity


_Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize(
    "table, identity",
    [
        pytest.param([], 0, id="empty"),
        pytest.param([[0, 1], [1]], 0, id="ragged"),
        pytest.param([[0, 1, 2], [1, 2, 0]], 0, id="not-square"),
        pytest.param([[0, 1, 2], [1, 2, 0], [2, 0, -1]], 0, id="negative"),
        pytest.param([[0, 1, 2], [1, 2, 0], [2, 0, 10**30]], 0, id="huge"),
        pytest.param([[0, 1, 2], [1, 2, 0], [1, 0, 2]], 0, id="column"),
        pytest.param(_Z3, 3, id="identity-out-of-range"),
        pytest.param(_Z3, 1, id="no-identity"),
        pytest.param(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            0,
            id="loop-without-inverses",
        ),
        pytest.param(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
            0,
            id="non-associative",
        ),
        pytest.param(_switched_table(np.random.default_rng(5), 8), 0, id="switched"),
    ],
)
def test_validate_group_rejections_match_reference(table, identity):
    with pytest.raises(InputError) as expected:
        ref_validate_group(table, identity)
    with pytest.raises(InputError) as got:
        validate_group(table, identity)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name,g", GROUPS)
def test_validate_group_accepts_what_the_reference_accepts(name, g):
    rows = g.table_array.tolist()
    assert group_fields(g) == ref_validate_group(rows, g.identity)


# -- the subgroup test and the extension by zero ------------------------------

ORACLE_GROUPS = all_small_groups() + [
    ("Z12", cyclic_group(12)),
    ("D6", dihedral_group(6)),
    ("Z2xZ6", direct_product(cyclic_group(2), cyclic_group(6))),
    ("Z3xS3", direct_product(cyclic_group(3), dihedral_group(3))),
]


def _outcome(extend, g, e, u):
    """The extension's values as raw bytes, or the class and message it raised."""
    try:
        v = extend(g, e, u)
    except (InputError, InfeasibleError) as exc:
        return type(exc), str(exc)
    assert v.domain() == frozenset(range(g.order))
    return bits([v(x) for x in range(g.order)])


def _real_part(rng, g, u):
    """Re u with a random sign on every zero imaginary part; positive definite with u."""
    signs = rng.choice([-0.0, 0.0], size=g.order)
    return group_function(g, {x: complex(z.real, signs[x]) for x, z in u.values.items()})


def _random_hermitian(rng, g, e):
    """A Hermitian-symmetric function on E that is often not positive definite."""
    vals = {}
    for x in sorted(e.members):
        xi = g.inverse[x]
        if xi in vals:
            vals[x] = vals[xi].conjugate()
        else:
            z = complex(*rng.normal(size=2))
            vals[x] = complex(z.real, 0.0) if x == xi else z
    vals[g.identity] = complex(abs(vals[g.identity].real) + 0.5, 0.0)
    return group_function(g, vals)


@pytest.mark.parametrize("name,g", ORACLE_GROUPS)
def test_subgroup_test_and_extension_match_the_completion_route(name, g):
    """Chordal verdicts, extension bits and errors agree with the reference route."""
    rng = np.random.default_rng(g.order * 7 + len(name))
    for e in symmetric_subsets(g):
        chordal = is_chordal_subset(g, e)
        assert chordal == ref_is_chordal_subset(g, e), sorted(e.members)
        if not chordal:
            continue
        pd = random_pd_function(rng, g, e)
        for u in [pd, _real_part(rng, g, pd), _random_hermitian(rng, g, e)]:
            got = _outcome(positive_definite_extension, g, e, u)
            assert got == _outcome(ref_positive_definite_extension, g, e, u), sorted(e.members)


def test_extension_errors_match_the_completion_route():
    s3 = dihedral_group(3)
    reflection = validate_subset(s3, {0, 3})  # a subgroup that is not normal
    rotations = validate_subset(s3, {0, 1, 2})
    cases = [
        # a non-subgroup with the wrong domain fails the subgroup test first
        (validate_subset(s3, {0, 3, 4}), group_function(s3, {0: 1.0})),
        # a subgroup with the wrong domain
        (reflection, group_function(s3, {0: 1.0, 1: 0.5, 2: 0.5})),
        # not positive definite on a non-normal subgroup
        (reflection, group_function(s3, {0: 1.0, 3: 2.0})),
        (rotations, group_function(s3, {0: 1.0, 1: -0.8, 2: -0.8})),
    ]
    expected = [
        (NotChordalSubset, "subset does not induce a chordal pattern"),
        (DomainMismatch, "function domain [0, 1, 2] differs from subset [0, 3]"),
        (NotPositiveDefinite, "kernel fails: clique (0, 3) has a non-PSD block"),
        (NotPositiveDefinite, "kernel fails: clique (0, 1, 2) has a non-PSD block"),
    ]
    for (e, u), want in zip(cases, expected):
        assert _outcome(positive_definite_extension, s3, e, u) == want
        assert _outcome(ref_positive_definite_extension, s3, e, u) == want


S3_TABLE = Path(__file__).parent / "fixtures" / "group_s3.json"


def _automorphism(data):
    """(g, phi): x -> -x on Z_n, or conjugation by a drawn element on the S3 of the fixture."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 12))
        return cyclic_group(n), [(-x) % n for x in range(n)]
    g = ser.group_from_json(ser.load_json(S3_TABLE))
    a = data.draw(st.integers(0, g.order - 1))
    t = g.table_array
    return g, [int(t[t[a, x], g.inverse[a]]) for x in range(g.order)]


@given(st.data())
def test_extension_commutes_with_group_automorphisms(data):
    """Extending u o phi^-1 on phi(H) gives v o phi^-1 bit for bit, and fails exactly when extending u fails."""
    g, phi = _automorphism(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for e in symmetric_subsets(g):
        if not is_chordal_subset(g, e):
            continue
        image = validate_subset(g, {phi[x] for x in e.members})
        for u in [random_pd_function(rng, g, e), _random_hermitian(rng, g, e)]:
            moved = group_function(g, {phi[x]: z for x, z in u.values.items()})
            try:
                v = positive_definite_extension(g, e, u)
            except NotPositiveDefinite:
                with pytest.raises(NotPositiveDefinite):
                    positive_definite_extension(g, image, moved)
                continue
            w = positive_definite_extension(g, image, moved)
            assert bits([w(phi[x]) for x in range(g.order)]) == bits([v(x) for x in range(g.order)])


def test_extension_of_the_trivial_subgroup_is_the_same_under_relabelling():
    """S3 with H = {0}: conjugation by the reflection 3 swaps the rotations 1 and 2 = 1^-1.

    The extension is u on H and +0j elsewhere, so phi maps it to itself,
    the signs of its zeros included.
    """
    g = ser.group_from_json(ser.load_json(S3_TABLE))
    phi = [0, 2, 1, 3, 5, 4]
    v = positive_definite_extension(g, validate_subset(g, {0}), group_function(g, {0: 1.0}))
    assert bits([v(phi[x]) for x in range(g.order)]) == bits([v(x) for x in range(g.order)])
    assert bits([v(x) for x in range(g.order)]) == bits([1.0] + [0j] * 5)


@st.composite
def _groups(draw):
    """A cyclic, dihedral or direct-product group, often relabelled."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "product"]))
    if kind == "cyclic":
        g = cyclic_group(draw(st.integers(1, 16)))
    elif kind == "dihedral":
        g = dihedral_group(draw(st.integers(1, 6)))
    else:
        left = draw(st.sampled_from([cyclic_group(2), cyclic_group(3), dihedral_group(3)]))
        g = direct_product(left, draw(st.sampled_from([cyclic_group(2), cyclic_group(4)])))
    if draw(st.booleans()):
        g = _relabelled(g, draw(st.permutations(range(g.order))))
    return g


def _generated_subgroup(g, gens):
    """The subgroup generated by gens, as a validated subset."""
    members = {g.identity, *gens}
    t = g.table_array.tolist()
    while len(grown := members | {t[a][b] for a in members for b in members}) > len(members):
        members = grown
    return validate_subset(g, members)


def _extends(g, h, u, tol) -> bool:
    """Whether positive_definite_extension returns, rather than raising NotPositiveDefinite."""
    try:
        positive_definite_extension(g, h, u, tol)
    except NotPositiveDefinite:
        return False
    return True


def _kernel_on(g, h, u):
    """K[a, b] = u(h_b h_a^{-1}) on sorted H, by the group law."""
    members, t = sorted(h.members), g.table_array.tolist()
    return np.array([[u(t[b][g.inverse[a]]) for b in members] for a in members])


@settings(max_examples=200)
@given(_groups(), st.data())
def test_extension_fails_exactly_when_pd_check_does(g, data):
    """positive_definite_extension raises NotPositiveDefinite iff is_positive_definite_on is False.

    u is positive definite, random Hermitian, or random Hermitian shifted
    at the identity so that the least eigenvalue of its kernel on H lies
    within a few ulps of -tol, where roundoff decides the verdict.
    """
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    h = _generated_subgroup(g, gens)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["psd", "hermitian", "boundary"]))
    u = random_pd_function(rng, g, h) if kind == "psd" else _random_hermitian(rng, g, h)
    tol = data.draw(st.sampled_from([None, 1e-9, 1e-6, 0.25]))
    if kind == "boundary":
        kernel = _kernel_on(g, h, u)
        least = np.linalg.eigvalsh(kernel)[0]
        ulps = data.draw(st.integers(-8, 8)) * np.spacing(np.abs(kernel).max())
        diag = u(g.identity).real - least + ulps
        # the default tol is 1e-9 (1 + the shifted diagonal entry)
        diag = (diag - 1e-9) / (1 + 1e-9) if tol is None else diag - tol
        u = group_function(g, {**u.values, g.identity: diag})
    assert _extends(g, h, u, tol) == is_positive_definite_on(g, h, u, tol)


@pytest.mark.parametrize(
    "tol, values",
    [
        (1e-9, ["0x1.8d1aeda7b67ebp+0", "-0x1.ea21ef31206fcp-1", "0x1.f3ca5834344c5p-3", "-0x1.ad068233f0a68p-1"]),
        (None, ["0x1.f3a4bfa564bb9p+0", "-0x1.1d6331f713659p-1", "0x1.b269f6d5ce410p-2", "0x1.f0b1520229de6p-1"]),
    ],
)
def test_extension_and_pd_check_agree_where_roundoff_straddles_tol(tol, values):
    """u on H = {0, 2, 5, 7} of D4, shifted at 0 so that the kernel's least eigenvalue is within ulps of -tol.

    The coset blocks are permuted copies of the block on H, and their
    computed eigenvalues differ in the last bits; checking every coset
    rejected these u while pd-check accepted them.
    """
    g = dihedral_group(4)
    h = validate_subset(g, {0, 2, 5, 7})
    u = group_function(g, dict(zip([0, 2, 5, 7], map(float.fromhex, values))))
    assert _extends(g, h, u, tol) == is_positive_definite_on(g, h, u, tol)


def test_extension_failure_names_the_first_clique_of_the_pattern():
    """The coset H 0 that the message names is the first clique that maximal_cliques lists.

    Each group is also taken under a random relabelling, whose identity
    is seldom 0.
    """
    rng = np.random.default_rng(21)
    for _, g in ORACLE_GROUPS:
        for g in [g, _relabelled(g, rng.permutation(g.order))]:
            for e in symmetric_subsets(g):
                if is_chordal_subset(g, e):
                    u = group_function(g, {x: -1.0 if x == g.identity else 0.0 for x in e.members})
                    first = maximal_cliques(star_pattern(g, e))[0]
                    with pytest.raises(NotPositiveDefinite) as info:
                        positive_definite_extension(g, e, u)
                    assert str(info.value) == f"kernel fails: clique {first} has a non-PSD block"


# -- Light's associativity test ---------------------------------------------------


def _row_cycle_switch(table, r1: int, r2: int, c: int, keep=None) -> bool:
    """Swap rows r1 and r2 on the cycle of columns through c; the square stays Latin.

    With keep = e, a cycle touching row e, column e or the symbol e is left
    alone, so e stays the identity and every two-sided inverse survives.
    Returns whether the table changed.
    """
    cycle = [c]
    while (nxt := table[r1].index(table[r2][cycle[-1]])) != c:
        cycle.append(nxt)
    if keep is not None and any(
        keep in (r1, r2, k, table[r1][k], table[r2][k]) for k in cycle
    ):
        return False
    for k in cycle:
        table[r1][k], table[r2][k] = table[r2][k], table[r1][k]
    return True


def _random_latin_square(rng, n: int) -> list[list[int]]:
    """Row by row, each row a random perfect matching of columns to unused symbols."""
    rows: list[list[int]] = []
    for _ in range(n):
        allowed = [set(range(n)) - {row[c] for row in rows} for c in range(n)]
        column_of: dict[int, int] = {}

        def augment(c: int, seen: set) -> bool:
            for s in rng.permutation(sorted(allowed[c])).tolist():
                if s not in seen:
                    seen.add(s)
                    if s not in column_of or augment(column_of[s], seen):
                        column_of[s] = c
                        return True
            return False

        for c in rng.permutation(n).tolist():
            augment(c, set())
        row = [0] * n
        for s, c in column_of.items():
            row[c] = s
        rows.append(row)
    return rows


def _random_loop(rng, n: int):
    """(table, identity) of a random loop of order n, often not a group.

    Even draws switch a relabelled cyclic or dihedral table away from the
    identity, so only associativity can fail. Odd draws take a random
    Latin square to a loop by a principal isotopy,
    x o y = L(row with x in column b, column with y in row a),
    whose identity is L(a, b); these mostly lack two-sided inverses.
    """
    if rng.random() < 0.5:
        g = dihedral_group(n // 2) if n % 2 == 0 and rng.random() < 0.5 else cyclic_group(n)
        label = rng.permutation(n).tolist()
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                table[label[x]][label[y]] = label[g.table_array[x, y]]
        e = label[g.identity]
        switches = int(rng.integers(0, 4))
        for _ in range(20 * n):
            if switches == 0:
                break
            r1, r2, c = rng.integers(n, size=3).tolist()
            if r1 != r2:
                switches -= _row_cycle_switch(table, r1, r2, c, keep=e)
        return table, e
    square = _random_latin_square(rng, n)
    a, b = rng.integers(n, size=2).tolist()
    row_of = {square[r][b]: r for r in range(n)}
    col_of = {square[a][c]: c for c in range(n)}
    return [[square[row_of[x]][col_of[y]] for y in range(n)] for x in range(n)], square[a][b]


def _validation_outcome(validate, table, identity):
    try:
        return validate(table, identity)
    except InputError as exc:
        return type(exc), str(exc)


def _sorted_latin_square_message(table) -> str | None:
    """The Latin-square test as it sorted the table along each axis: its message, or None."""
    mul = np.asarray(table)
    elements = np.arange(len(mul))
    if (np.sort(mul, axis=1) != elements).any():
        return "some row is not a permutation"
    if (np.sort(mul, axis=0) != elements[:, None]).any():
        return "some column is not a permutation"
    return None


def _latin_square_cases():
    """(id, table) pairs: each defect named in the test, then perturbed cyclic and random tables."""
    z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]

    def edited(*cells):
        t = [row[:] for row in z5]
        for r, c, x in cells:
            t[r][c] = x
        return t

    yield "row-duplicate-only", edited((0, 2, z5[1][2]), (1, 2, z5[0][2]))  # column 2 stays a permutation
    yield "column-duplicate-only", edited((3, 0, z5[3][4]), (3, 4, z5[3][0]))  # row 3 stays one
    yield "negative", edited((2, 2, -1))
    yield "equal-to-n", edited((4, 1, 5))
    yield "beyond-int64", edited((1, 3, 2**63))
    yield "beyond-int64-negative", edited((1, 3, -(2**63) - 1))
    yield "int64-array-negative", np.array(edited((0, 0, -5)), dtype=np.int64)
    yield "int64-array-equal-to-n", np.array(edited((0, 0, 5)), dtype=np.int64)
    rng = np.random.default_rng(22)
    for k in range(200):
        n = int(rng.integers(1, 9))
        t = (np.arange(n)[:, None] + np.arange(n)) % n
        t = t[rng.permutation(n)][:, rng.permutation(n)]
        for _ in range(int(rng.integers(0, 3))):
            r, c, r2, c2 = rng.integers(n, size=4)
            kind = k % 3
            if kind == 0:  # any entry, perhaps out of range
                t[r, c] = rng.integers(-1, n + 1)
            elif kind == 1:  # a swap within row r: its columns break
                t[r, c], t[r, c2] = t[r, c2], t[r, c]
            else:  # a swap within column c: its rows break
                t[r, c], t[r2, c] = t[r2, c], t[r, c]
        yield f"random-{k}", t if k % 2 else t.tolist()


@pytest.mark.parametrize("table", [t for _, t in _latin_square_cases()], ids=[i for i, _ in _latin_square_cases()])
def test_latin_square_test_matches_the_sorts(table):
    """The flag scatter rejects what sorting each axis rejected, with the same message."""
    want = _sorted_latin_square_message(table)
    try:
        validate_group(table, 0)
    except NotLatinSquare as exc:
        assert str(exc) == want
    except InputError:
        assert want is None  # a later check failed
    else:
        assert want is None


def test_light_test_agrees_with_the_full_scan_on_random_loops():
    outcomes = []
    for seed in range(300):
        rng = np.random.default_rng([seed, 6])
        table, e = _random_loop(rng, int(rng.integers(2, 13)))
        want = _validation_outcome(ref_validate_group, table, e)
        got = _validation_outcome(validate_group, table, e)
        if isinstance(got, tuple):
            assert got == want, seed
        else:
            assert group_fields(got) == want, seed
        outcomes.append(want[0] if isinstance(want[0], type) else "group")
    counts = {kind: outcomes.count(kind) for kind in set(outcomes)}
    assert counts[NotAssociative] >= 50 and counts["group"] >= 50, counts


@pytest.mark.parametrize("k", range(1, 6))
def test_elementary_abelian_group_needs_k_generators(k):
    g = cyclic_group(2)
    for _ in range(k - 1):
        g = direct_product(g, cyclic_group(2))
    assert len(_generators(g.table_array, g.identity)) == k
    rows = g.table_array.tolist()
    assert group_fields(g) == ref_validate_group(rows, g.identity)


def test_generating_sets_stay_logarithmic():
    for _, g in ORACLE_GROUPS + GROUPS:
        assert len(_generators(g.table_array, g.identity)) <= max(g.order - 1, 0).bit_length()


def _ref_generators(mul, e):
    """_generators as it scanned every element: the reference for the greedy generating set."""
    inside = np.zeros(len(mul), dtype=bool)
    inside[e] = True
    gens = []
    for x in range(len(mul)):
        if inside[x]:
            continue
        gens.append(x)
        inside[x] = True
        size = 0
        while size < inside.sum():
            size = inside.sum()
            members = np.flatnonzero(inside)
            inside[mul[np.ix_(members, members)]] = True
    return gens


@given(_groups())
def test_generators_match_the_element_scan_on_groups(g):
    got = _generators(g.table_array, g.identity)
    assert got == _ref_generators(g.table_array, g.identity)
    assert all(type(x) is int for x in got)


def test_generators_match_the_element_scan_on_random_loops():
    """The loops of the Light's test oracle, the non-associative ones included."""
    for seed in range(300):
        rng = np.random.default_rng([seed, 6])
        table, e = _random_loop(rng, int(rng.integers(2, 13)))
        mul = np.array(table)
        assert _generators(mul, e) == _ref_generators(mul, e), seed


def test_light_test_on_a_non_abelian_direct_product():
    g = direct_product(dihedral_group(3), dihedral_group(4))
    rows = g.table_array.tolist()
    assert group_fields(g) == ref_validate_group(rows, g.identity)
    rng = np.random.default_rng(48)
    broken = 0
    while broken < 3:
        r1, r2, c = rng.integers(g.order, size=3).tolist()
        if r1 != r2 and _row_cycle_switch(rows, r1, r2, c, keep=g.identity):
            broken += 1
            want = _validation_outcome(ref_validate_group, rows, g.identity)
            assert want[0] is NotAssociative
            assert _validation_outcome(validate_group, rows, g.identity) == want


@st.composite
def _int_tables(draw):
    """(rows, identity): a random loop, often with an entry changed, or random ints of a random shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows, e = _random_loop(rng, draw(st.integers(1, 9)))
        if draw(st.booleans()):
            r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows[r][c] = draw(st.integers(-2, len(rows) + 1))
    else:
        shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        rows = rng.integers(-1, max(shape) + 1, size=shape).tolist()
        e = draw(st.integers(-1, shape[0]))
    return rows, e


@given(_int_tables())
def test_an_int64_array_validates_as_its_rows_do(case):
    """validate_group on np.array(rows) gives the group, or the error, that it gives on the rows and the reference gives."""
    rows, e = case
    want = _validation_outcome(ref_validate_group, rows, e)
    got = _validation_outcome(validate_group, np.array(rows), e)
    assert got == _validation_outcome(validate_group, rows, e)
    if isinstance(got, tuple):
        assert got == want
    else:
        assert got.table_array.dtype == np.int64 and not got.table_array.flags.writeable
        assert group_fields(got) == want


def test_a_group_holds_its_table_as_one_read_only_array():
    table = np.array(_Z3)
    g = validate_group(table, 0)
    assert g.table_array is table and not table.flags.writeable  # taken over as it is
    assert "table" not in vars(g)
    assert g.table_array.tolist() == _Z3
    same = validate_group(_Z3, 0)
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    relabelled = validate_group([[2, 0, 1], [0, 1, 2], [1, 2, 0]], 1)  # Z_3 with 0 and 1 swapped
    assert g != relabelled and g != cyclic_group(4)
