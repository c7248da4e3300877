"""Exact interval-set calculus on the circle realised as (-1, 1] mod 2.

Sets are finite unions of closed intervals and isolated points with
rational endpoints. Arcs crossing the cut between 1 and -1 are stored
split into two pieces: one ending at 1 and one starting at the marker
endpoint -1, which never names a member itself (the circle point -1 is
identified with 1). Interior computations attach open-endpoint
annotations that only membership tests and canonical equality consult.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyIntervalWithReversedEndpoints, InputError, NotDecreasing, TooLarge

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)
# Fraction("1e<k>") builds the integer 10^|k|, in time superlinear in |k|; 4300 is
# the number of digits Python itself reads into an int from a string.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)
# cexi_truncation builds 2 depth Fractions 1/k: depth 10^4 takes about a second.
MAX_CEXI_DEPTH = 10_000


@dataclass(frozen=True, order=True)
class Interval:
    """Arc [a, b] with optional open endpoints; a == -1 marks a cut split."""

    a: Fraction
    b: Fraction
    left_open: bool = False
    right_open: bool = False


@dataclass(frozen=True)
class CircleSet:
    """Canonical finite union of arcs and isolated points."""

    intervals: tuple[Interval, ...]
    points: tuple[Fraction, ...]

    def is_closed_form(self) -> bool:
        return not any(iv.left_open or iv.right_open for iv in self.intervals)


def _rational(x) -> Fraction:
    """Fraction(x); a zero denominator, an infinite float or an exponent beyond 4300 is malformed input."""
    if isinstance(x, str) and (m := _EXPONENT.search(x)):
        digits = m[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
            raise InputError(f"not a finite rational: {x!r} has an exponent beyond {_MAX_EXPONENT}")
    try:
        return Fraction(x)
    except (ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"not a finite rational: {x!r}") from exc


def wrap(x) -> Fraction:
    """Reduce a rational modulo 2 into (-1, 1]."""
    r = _rational(x) % 2
    return r if r <= 1 else r - 2


def normalize(raw_intervals: Iterable[Sequence], raw_points: Iterable = ()) -> CircleSet:
    """Canonicalize raw closed intervals and points.

    Overlapping and touching arcs merge, covered points are absorbed, and
    arcs crossing the cut split into two pieces. Zero-length intervals
    become points. Raw endpoints must satisfy a <= b (an arc of length
    two or more is the whole circle); anything else raises
    EmptyIntervalWithReversedEndpoints.
    """
    segments: list[tuple[Fraction, Fraction]] = []
    points: set[Fraction] = set()
    for pair in raw_intervals:
        a, b = _rational(pair[0]), _rational(pair[1])
        if a > b:
            raise EmptyIntervalWithReversedEndpoints(
                f"interval [{a},{b}] has reversed endpoints; wrap by extending b past 1"
            )
        if b - a >= 2:
            segments.append((_MINUS_ONE, _ONE))
            continue
        na, nb = wrap(a), wrap(b)
        if a == b:
            points.add(na)
        elif na <= nb:
            segments.append((na, nb))
        else:
            if na == _ONE:
                points.add(_ONE)
            else:
                segments.append((na, _ONE))
            segments.append((_MINUS_ONE, nb))
    for x in raw_points:
        points.add(wrap(x))

    segments.sort()
    merged: list[list[Fraction]] = []
    for a, b in segments:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    kept = sorted(
        p for p in points if not any(a <= p <= b for a, b in merged)
    )
    return CircleSet(
        tuple(Interval(a, b) for a, b in merged),
        tuple(kept),
    )


def contains(e: CircleSet, x) -> bool:
    """Membership of a rational circle point, annotation-aware."""
    p = wrap(x)
    for iv in e.intervals:
        if iv.a < p < iv.b:
            return True
        if p == iv.a and not iv.left_open:
            return True
        if p == iv.b and not iv.right_open:
            return True
    return p in e.points


def interior(e: CircleSet) -> CircleSet:
    """Drop isolated points and open the interval endpoints.

    The two pieces of an arc split at the cut are treated as one arc, so
    the circle point 1 stays interior when both sides of the cut are
    covered.
    """
    has_low = any(iv.a == _MINUS_ONE for iv in e.intervals)
    up = next((iv for iv in e.intervals if iv.b == _ONE), None)
    keep_one = up is not None and not up.right_open and has_low
    pieces = [
        Interval(
            iv.a,
            iv.b,
            left_open=iv.a != _MINUS_ONE,
            right_open=not (iv.b == _ONE and keep_one),
        )
        for iv in e.intervals
    ]
    return CircleSet(tuple(pieces), ())


def closure(e: CircleSet) -> CircleSet:
    """Close every endpoint; a piece reaching the cut recovers the point 1."""
    points = list(e.points)
    if any(iv.a == _MINUS_ONE for iv in e.intervals):
        points.append(_ONE)
    return normalize([(iv.a, iv.b) for iv in e.intervals], points)


def negate(e: CircleSet) -> CircleSet:
    """Pointwise negation mod 2 of a closed canonical set."""
    if not e.is_closed_form():
        raise InputError("negation is defined on closed canonical sets")
    return normalize(
        [(-iv.b, -iv.a) for iv in e.intervals],
        [-p for p in e.points],
    )


def is_symmetric(e: CircleSet) -> bool:
    """True iff the set equals its pointwise negation."""
    return negate(e) == e


def contains_zero(e: CircleSet) -> bool:
    return contains(e, 0)


def contains_symmetric_neighborhood_of_zero(e: CircleSet) -> bool:
    """True iff 0 is an interior point of the set."""
    return contains(interior(e), 0)


def is_closure_of_interior(e: CircleSet) -> bool:
    return closure(interior(e)) == e


@dataclass(frozen=True)
class DomainPredicates:
    """The four predicates governing extension behaviour of a circle set."""

    symmetric: bool
    contains_zero: bool
    closure_of_interior: bool
    generated_by_squares: bool


def is_positivity_domain_star(e: CircleSet) -> DomainPredicates:
    """Evaluate the predicate bundle for the induced two-variable pattern.

    The induced pattern is a positivity domain iff the first three hold,
    and is generated by squares iff the set contains a symmetric open
    neighbourhood of zero.
    """
    return DomainPredicates(
        symmetric=is_symmetric(e),
        contains_zero=contains_zero(e),
        closure_of_interior=is_closure_of_interior(e),
        generated_by_squares=contains_symmetric_neighborhood_of_zero(e),
    )


def cexi_truncation(depth: int, t: Sequence | None = None) -> CircleSet:
    """Finite stage of the classical no-interior-squares construction.

    Returns {0} together with the arcs [t_{2n}, t_{2n-1}] and their
    negatives for n = 1..depth, where t defaults to t_k = 1/k. The
    sequence must be strictly decreasing, positive, and start at most at
    1; at every finite depth the origin stays isolated, so the set never
    contains a symmetric neighbourhood of zero. A depth above
    MAX_CEXI_DEPTH raises TooLarge.
    """
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth}")
    if depth > MAX_CEXI_DEPTH:
        raise TooLarge(f"depth {depth} exceeds the cap of {MAX_CEXI_DEPTH}")
    if t is None:
        seq = [Fraction(1, k) for k in range(1, 2 * depth + 1)]
    else:
        seq = [_rational(x) for x in t]
        if len(seq) < 2 * depth:
            raise InputError(
                f"need at least {2 * depth} sequence terms, got {len(seq)}"
            )
        seq = seq[: 2 * depth]
    if any(x <= 0 for x in seq) or any(
        seq[k] <= seq[k + 1] for k in range(len(seq) - 1)
    ):
        raise NotDecreasing("sequence must be strictly decreasing and positive")
    if seq[0] > 1:
        raise InputError(f"sequence must start at most at 1, got {seq[0]}")
    arcs = []
    for k in range(1, depth + 1):
        hi, lo = seq[2 * k - 2], seq[2 * k - 1]
        arcs.append((lo, hi))
        arcs.append((-hi, -lo))
    return normalize(arcs, [Fraction(0)])
