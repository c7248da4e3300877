from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from posext import (
    cexi_truncation,
    closure,
    contains,
    contains_symmetric_neighborhood_of_zero,
    contains_zero,
    interior,
    is_closure_of_interior,
    is_positivity_domain_star,
    is_symmetric,
    negate,
    normalize,
)
from posext.circleset import MAX_CEXI_DEPTH, Interval, wrap
from posext.errors import (
    EmptyIntervalWithReversedEndpoints,
    InputError,
    NotDecreasing,
    TooLarge,
)


def test_wrap_reduces_into_half_open_period():
    assert wrap(F(11, 10)) == F(-9, 10)
    assert wrap(F(-1)) == F(1)
    assert wrap(F(1)) == F(1)
    assert wrap(F(7, 2)) == F(-1, 2)


def test_normalize_merges_overlaps():
    e = normalize([(F(1, 5), F(1, 2)), (F(2, 5), F(7, 10))])
    assert e.intervals == (Interval(F(1, 5), F(7, 10)),)
    assert e.points == ()


def test_normalize_splits_wrapping_interval():
    e = normalize([(F(9, 10), F(11, 10))])
    assert e.intervals == (
        Interval(F(-1), F(-9, 10)),
        Interval(F(9, 10), F(1)),
    )


def test_normalize_absorbs_covered_points():
    e = normalize([(F(1, 5), F(1, 2))], [F(3, 10)])
    assert e.points == ()
    assert contains(e, F(3, 10))


def test_normalize_rejects_reversed_endpoints():
    with pytest.raises(EmptyIntervalWithReversedEndpoints):
        normalize([(F(1, 2), F(1, 5))])


def test_normalize_degenerate_interval_becomes_point():
    e = normalize([(F(1, 3), F(1, 3))])
    assert e.intervals == ()
    assert e.points == (F(1, 3),)


def test_normalize_full_circle():
    e = normalize([(F(0), F(2))])
    assert e.intervals == (Interval(F(-1), F(1)),)


def test_interior_and_closure_examples():
    e = normalize([(F(-1, 2), F(1, 2))])
    inner = interior(e)
    assert inner.intervals == (Interval(F(-1, 2), F(1, 2), True, True),)
    assert closure(e) == e
    assert closure(inner) == e

    dotted = normalize([(F(1, 5), F(1, 2))], [F(0)])
    assert interior(dotted).intervals == (Interval(F(1, 5), F(1, 2), True, True),)
    assert interior(dotted).points == ()

    touching = normalize([(F(0), F(1, 5)), (F(1, 5), F(2, 5))])
    assert interior(touching).intervals == (Interval(F(0), F(2, 5), True, True),)


def test_interior_keeps_cut_point_when_covered_both_sides():
    e = normalize([(F(9, 10), F(11, 10))])
    inner = interior(e)
    assert contains(inner, F(1))
    assert not contains(inner, F(9, 10))
    assert closure(inner) == e
    assert is_closure_of_interior(e)


def test_closure_restores_cut_limit_point():
    # The closed arc through the cut with only its upper piece degenerate.
    e = normalize([(F(1), F(12, 10))])
    assert e.points == (F(1),)
    assert e.intervals == (Interval(F(-1), F(-8, 10)),)
    assert is_closure_of_interior(e)


def test_symmetry_examples():
    assert is_symmetric(normalize([(F(-1, 2), F(1, 2))]))
    assert not is_symmetric(normalize([(F(1, 5), F(1, 2))]))
    assert is_symmetric(
        normalize([(F(1, 5), F(1, 2)), (F(-1, 2), F(-1, 5))], [F(0)])
    )


def test_negate_wraps_exactly():
    e = normalize([(F(1, 2), F(1))])
    assert negate(negate(e)) == e


def test_closure_of_interior_examples():
    assert is_closure_of_interior(normalize([(F(-1, 2), F(1, 2))]))
    assert not is_closure_of_interior(normalize([(F(1, 5), F(1, 2))], [F(0)]))
    assert is_closure_of_interior(normalize([], []))


def test_neighborhood_of_zero_examples():
    assert contains_symmetric_neighborhood_of_zero(normalize([(F(-1, 2), F(1, 2))]))
    spiky = normalize(
        [(F(1, 5), F(1, 2)), (F(-1, 2), F(-1, 5))], [F(0)]
    )
    assert not contains_symmetric_neighborhood_of_zero(spiky)
    assert contains_symmetric_neighborhood_of_zero(
        normalize([(F(-1, 10), F(3, 10))])
    )
    assert not contains_symmetric_neighborhood_of_zero(
        normalize([(F(0), F(3, 10))])
    )


def test_positivity_domain_star_examples():
    flags = is_positivity_domain_star(normalize([(F(-1, 2), F(1, 2))]))
    assert (
        flags.symmetric
        and flags.contains_zero
        and flags.closure_of_interior
        and flags.generated_by_squares
    )

    flags = is_positivity_domain_star(cexi_truncation(2))
    assert flags.symmetric and flags.contains_zero
    assert not flags.closure_of_interior and not flags.generated_by_squares

    flags = is_positivity_domain_star(
        normalize([(F(1, 10), F(1, 2)), (F(-1, 2), F(-1, 10))])
    )
    assert flags.symmetric and not flags.contains_zero


def test_cexi_truncation_examples():
    e1 = cexi_truncation(1)
    assert e1.points == (F(0),)
    assert e1.intervals == (Interval(F(-1), F(-1, 2)), Interval(F(1, 2), F(1)))

    e2 = cexi_truncation(2)
    assert Interval(F(1, 4), F(1, 3)) in e2.intervals
    assert Interval(F(-1, 3), F(-1, 4)) in e2.intervals

    custom = cexi_truncation(1, [F(9, 10), F(3, 10)])
    assert custom.intervals == (
        Interval(F(-9, 10), F(-3, 10)),
        Interval(F(3, 10), F(9, 10)),
    )
    assert custom.points == (F(0),)


def test_cexi_truncation_errors():
    with pytest.raises(NotDecreasing):
        cexi_truncation(1, [F(1, 2), F(1, 2)])
    with pytest.raises(NotDecreasing):
        cexi_truncation(1, [F(1, 2), F(-1, 4)])
    with pytest.raises(InputError):
        cexi_truncation(1, [F(3, 2), F(1, 2)])
    with pytest.raises(InputError):
        cexi_truncation(2, [F(1, 2), F(1, 4)])
    with pytest.raises(InputError):
        cexi_truncation(0)


@pytest.mark.parametrize(
    "bad",
    [
        "1/0",
        "0/0",
        float("inf"),
        float("-inf"),
        "1e100000000",
        "1e4301",
        "1e-4301",
        "5E+4_301",
        " 1e00012345 ",
        pytest.param("1e" + "9" * 5000, id="5000-digit-exponent"),
    ],
)
def test_non_finite_rationals_are_input_errors(bad):
    with pytest.raises(InputError, match="not a finite rational"):
        normalize([(F(0), bad)])
    with pytest.raises(InputError, match="not a finite rational"):
        normalize([], [bad])
    with pytest.raises(InputError, match="not a finite rational"):
        cexi_truncation(1, [F(1, 2), bad])


@pytest.mark.parametrize("text", ["1e4300", "-1E-4300", "1e+0_4300", " 1e0004300 "])
def test_exponents_up_to_4300_are_read(text):
    assert wrap(text) == wrap(F(text.strip().replace("_", "")))


def test_cexi_depth_beyond_the_cap_is_refused_before_anything_is_built():
    cexi_truncation(1)  # within the cap
    for depth in (MAX_CEXI_DEPTH + 1, 10**18):
        with pytest.raises(TooLarge, match=f"^depth {depth} exceeds the cap of {MAX_CEXI_DEPTH}$"):
            cexi_truncation(depth)


@pytest.mark.parametrize("depth", range(1, 11))
def test_cexi_predicates_at_every_depth(depth):
    e = cexi_truncation(depth)
    assert is_symmetric(e)
    assert contains_zero(e)
    assert not contains_symmetric_neighborhood_of_zero(e)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=24)


@st.composite
def circle_sets(draw):
    k = draw(st.integers(0, 4))
    intervals = []
    for _ in range(k):
        a = draw(_rationals)
        width = draw(st.fractions(min_value=0, max_value=1, max_denominator=24))
        intervals.append((a, a + width))
    points = draw(st.lists(_rationals, max_size=3))
    return normalize(intervals, points)


@given(circle_sets())
def test_interior_closure_idempotent_and_nested(e):
    inner = interior(e)
    outer = closure(e)
    assert interior(inner) == inner
    assert closure(outer) == outer
    probes = (
        [iv.a for iv in e.intervals]
        + [iv.b for iv in e.intervals]
        + [(iv.a + iv.b) / 2 for iv in e.intervals]
        + list(e.points)
        + [F(0), F(1), F(-1, 2)]
    )
    for x in probes:
        if contains(inner, x):
            assert contains(e, x)
        if contains(e, x):
            assert contains(outer, x)


@given(circle_sets())
def test_symmetry_matches_negation_fixed_point(e):
    assert is_symmetric(e) == (negate(e) == e)
    sym = normalize(
        [(iv.a, iv.b) for iv in e.intervals]
        + [(-iv.b, -iv.a) for iv in e.intervals],
        list(e.points) + [-p for p in e.points],
    )
    assert is_symmetric(sym)


@given(
    st.integers(1, 5),
    st.lists(
        st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64),
        min_size=10,
        max_size=10,
        unique=True,
    ),
)
def test_cexi_never_contains_origin_neighborhood(depth, raw):
    seq = sorted(raw, reverse=True)[: 2 * depth]
    e = cexi_truncation(depth, seq)
    assert not contains_symmetric_neighborhood_of_zero(e)
    assert is_symmetric(e)
    assert contains_zero(e)
