"""Closed-form boundary-slope data for the two classified pretzel families.

Only the closed forms and explicit lists needed by the classifier are
implemented; there is no general Montesinos edgepath machinery here.  Each
formula is computed as a reduced ``(numerator, denominator)`` pair of ints
with a positive denominator, and sets are ordered by cross-multiplication.
Each set carries a completeness tag saying what the generating formula proves:

* ``ALL_NONINTEGRAL``: the set is exactly the non-integral boundary slopes;
* ``FULL_LIST``: the set is the complete list of boundary slopes;
* ``CANDIDATE_ONLY``: no formula applies; the set proves nothing.

A formula value that reduces to an integer is excluded from non-integral
sets but kept on the ``dropped_integral`` shelf so certificates can record
that the formula degenerated.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .knots import FamilyError, FamilyTag, PretzelKnot, family
from .records import Record
from .slopes import Slope

Pair = tuple[int, int]  # n/d in lowest terms, d > 0


class Completeness(Enum):
    ALL_NONINTEGRAL = "ALL_NONINTEGRAL"
    FULL_LIST = "FULL_LIST"
    CANDIDATE_ONLY = "CANDIDATE_ONLY"


class BoundarySlopeSet(Record, namedtuple("BoundarySlopeSet",
                                          "slopes completeness dropped_integral")):
    """Ascending slopes, their completeness tag and the dropped integral values (a record)."""

    __slots__ = ()

    def __new__(cls, slopes: tuple[Slope, ...], completeness: Completeness,
                dropped_integral: tuple[Slope, ...] = ()) -> BoundarySlopeSet:
        s = slopes  # strictly ascending; with b >= 0 the meridian 1/0 sorts last
        if not all(x.a * y.b < y.a * x.b for x, y in zip(s, s[1:])):
            raise ValueError("boundary slopes must be deduplicated and sorted")
        return tuple.__new__(cls, (slopes, completeness, dropped_integral))

    @property
    def is_empty(self) -> bool:
        return not self.slopes


def _reduced(n: int, d: int) -> Pair:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


_ascending = cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])  # for d > 0


def _pack(values: list[Pair], completeness: Completeness) -> BoundarySlopeSet:
    """The set of at most two closed-form values, ascending by one cross-multiplication."""
    if len(values) == 2:
        (a, b), (c, d) = values
        cross = a * d - c * b  # 0 only for equal values: the pairs are reduced
        values = values if cross < 0 else values[::-1] if cross else values[:1]
    return BoundarySlopeSet(tuple([Slope(a, b) for a, b in values if b != 1]), completeness,
                            tuple([Slope(a, 1) for a, b in values if b == 1]))


def _require_odd_pair(p: int, q: int) -> None:
    if p % 2 == 0 or q % 2 == 0 or not (3 <= p <= q):
        raise ValueError(f"need odd 3 <= p <= q, got p={p}, q={q}")


def _steep(v: int, r: int = 2) -> Pair:
    """(v(v-1) + 1 - 3r) / ((v-1-r)/2), the steep non-integral slope formula.

    With r = 2 this specializes to (v^2 - v - 5) / ((v-3)/2), the form used
    for the (-2, p, q) family.
    """
    return _reduced(v * (v - 1) + 1 - 3 * r, (v - 1 - r) // 2)


def nonintegral_slopes_minus2_pq(p: int, q: int) -> BoundarySlopeSet:
    """All non-integral boundary slopes of the (-2,p,q) pretzel knot.

    The p-branch fires for p >= 7 and the q-branch for q >= 7; for smaller
    indices there are none.
    """
    _require_odd_pair(p, q)
    return _pack([_steep(v) for v in (p, q) if v >= 7], Completeness.ALL_NONINTEGRAL)


def slope_list_minus2_5_q(q: int) -> BoundarySlopeSet:
    """The complete boundary-slope list of the (-2,5,q) pretzel knot, q >= 5 odd."""
    if q % 2 == 0 or q < 5:
        raise ValueError(f"need odd q >= 5, got q={q}")
    values = {(0, 1), (14, 1), (15, 1), _steep(q), (2 * q + 10, 1), (2 * q + 12, 1)}
    return BoundarySlopeSet(tuple([Slope(a, b) for a, b in sorted(values, key=_ascending)]),
                            Completeness.FULL_LIST)


def _require_pq_minus_r(p: int, q: int, r: int) -> None:
    _require_odd_pair(p, q)
    if r % 2 != 0 or r < 4:
        raise ValueError(f"need even r >= 4, got r={r}")


def small_p_pair(p: int, q: int, r: int) -> Pair:
    """2(p+q+r-1) - 2(p-1)(q-1)/(p+q-2), the lone non-integral
    boundary-slope candidate when p < r."""
    d = p + q - 2
    return _reduced(2 * (p + q + r - 1) * d - 2 * (p - 1) * (q - 1), d)


def small_p_value(p: int, q: int, r: int) -> Fraction:
    return Fraction(*small_p_pair(p, q, r))


def nonintegral_slopes_pq_minus_r(p: int, q: int, r: int) -> BoundarySlopeSet:
    """Non-integral boundary slopes of the (p,q,-r) pretzel knot.

    For p >= 2r+1 the two steep formulas give the complete non-integral
    list; for p < r the single value of :func:`small_p_pair` does (when it
    is non-integral).  In between no closed form is available and the tag
    CANDIDATE_ONLY warns callers against window arguments.
    """
    _require_pq_minus_r(p, q, r)
    if p >= 2 * r + 1:
        return _pack([_steep(p, r), _steep(q, r)], Completeness.ALL_NONINTEGRAL)
    if p < r:
        return _pack([small_p_pair(p, q, r)], Completeness.ALL_NONINTEGRAL)
    return BoundarySlopeSet((), Completeness.CANDIDATE_ONLY)


def toroidal_slope(k: PretzelKnot) -> Slope:
    """The filling 2(p+q) along which the double of the spanning surface
    becomes an incompressible torus; defined for both classified families."""
    fam = family(k)
    if fam.tag not in (FamilyTag.MINUS2_PQ, FamilyTag.PQ_MINUS_R):
        raise FamilyError(f"toroidal slope formula does not cover {k}")
    p, q = fam.odd_pair
    return Slope(2 * (p + q), 1)


def toroidal_gap_pairs_large_p(p: int, q: int, r: int) -> tuple[Pair, Pair]:
    """Exact gaps 2(p+q) - steep(v, r) for v = p and v = q, as reduced pairs.

    Equal to 2q - 2r - (r-1)^2/((p-1-r)/2) and its p/q swap; the knot-level
    elimination for p > 2r+1 checks both are >= 11.
    """
    _require_pq_minus_r(p, q, r)
    if p < 2 * r + 1:
        raise FamilyError("gap formula needs p >= 2r+1")
    tor = 2 * (p + q)
    # n/d reduced, so (tor*d - n)/d is too.
    return tuple([(tor * d - n, d) for n, d in (_steep(p, r), _steep(q, r))])
