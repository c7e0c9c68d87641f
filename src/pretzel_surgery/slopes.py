"""Exact slope arithmetic on the boundary torus of a knot exterior.

Slopes are written a/b in meridian-longitude coordinates: the meridian is
1/0, the longitude 0/1, and integral surgery n is n/1.  Everything here is
arbitrary-precision integer arithmetic; floats never appear.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .records import Record


class SlopeError(ValueError):
    """A pair of integers that does not describe a normalized slope."""


class Slope(Record, namedtuple("Slope", "a b")):
    """A slope a/b in lowest terms, with b >= 0 and b = 0 only for 1/0 (a validated tuple record).

    Construct through :func:`make_slope`, which reduces and fixes signs;
    the raw constructor insists on normal form.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> Slope:
        if (a, b) == (0, 0):
            raise SlopeError("0/0 is not a slope")
        if b < 0:
            raise SlopeError(f"denominator must be nonnegative: {a}/{b}")
        if gcd(abs(a), b) != 1:
            raise SlopeError(f"slope {a}/{b} is not reduced")
        if b == 0 and a != 1:
            raise SlopeError(f"meridian must be written 1/0, not {a}/0")
        return tuple.__new__(cls, (a, b))

    # -- conversions --------------------------------------------------

    def __str__(self) -> str:
        return ratio_text(self.a, self.b)

    def __repr__(self) -> str:
        return f"Slope({self})"


def ratio_text(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` prints a reduced pair: n alone when d is 1."""
    return str(n) if d == 1 else f"{n}/{d}"


def make_slope(a: int, b: int) -> Slope:
    """Reduce (a, b) and normalize signs so the denominator is >= 0."""
    if a == 0 and b == 0:
        raise SlopeError("0/0 is not a slope")
    g = gcd(abs(a), abs(b))
    a //= g
    b //= g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return Slope(a, b)


MERIDIAN = Slope(1, 0)


def distance(s: Slope, t: Slope) -> int:
    """Minimal geometric intersection number |ad - bc| of two slopes."""
    return abs(s.a * t.b - s.b * t.a)

