"""Canonical forms, equivalences and family bookkeeping for (p,q,r) pretzel knots.

Two triples describe isotopic knots when they differ by a permutation, and
mirror images when all three signs flip.  The canonical representative picked
here is the ascending sort of whichever sign class has at most one negative
index, so the classified families read off directly:

* ``(-2, p, q)`` with ``p, q`` odd and ``3 <= p <= q``;
* ``(-r, p, q)`` with ``r >= 4`` even and ``p, q`` odd positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .facts import TORUS_TRIPLES


class FamilyError(ValueError):
    """An operation was applied to a knot outside its family of validity."""


class TorusStatus(Enum):
    TORUS = "TORUS"
    NOT_TORUS = "NOT_TORUS"
    UNCLASSIFIED = "UNCLASSIFIED"


class FamilyTag(Enum):
    TORUS = "TORUS"
    MINUS2_PQ = "MINUS2_PQ"
    PQ_MINUS_R = "PQ_MINUS_R"
    OTHER = "OTHER"


@dataclass(frozen=True)
class PretzelKnot:
    """A pretzel knot stored in canonical form (see module docstring)."""

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        t = (self.p, self.q, self.r)
        if any(v == 0 for v in t):
            raise ValueError("pretzel indices must be nonzero")
        if t != _canonical_triple(*t):
            raise ValueError(f"{t} is not in canonical form; use canonicalize()")

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    @property
    def even_indices(self) -> tuple[int, ...]:
        return tuple(v for v in self.indices if v % 2 == 0)

    @property
    def odd_indices(self) -> tuple[int, ...]:
        return tuple(v for v in self.indices if v % 2 != 0)

    @property
    def is_knot(self) -> bool:
        """Pretzel triples with two or more even indices give links, not knots."""
        return len(self.even_indices) <= 1

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r})"


def _canonical_triple(p: int, q: int, r: int) -> tuple[int, int, int]:
    plus = tuple(sorted((p, q, r)))
    minus = tuple(sorted((-p, -q, -r)))
    # The two mirrors have k and 3-k negative entries; keep the one with <= 1.
    return plus if sum(1 for v in plus if v < 0) <= 1 else minus


def canonicalize(p: int, q: int, r: int) -> PretzelKnot:
    if any(v == 0 for v in (p, q, r)):
        raise ValueError("pretzel indices must be nonzero")
    return PretzelKnot(*_canonical_triple(p, q, r))


@dataclass(frozen=True)
class KnotFamily:
    """Family tag plus the parameters of the matched pattern."""

    tag: FamilyTag
    odd_pair: tuple[int, int] | None = None
    even_value: int | None = None


def torus_status(k: PretzelKnot) -> TorusStatus:
    """Classify torus-ness exactly as far as the encoded patterns reach.

    With all indices of absolute value > 1 the answer is definitive; triples
    with a +-1 index are only classified when they match the degenerate
    (-2,1,n) pattern, and are UNCLASSIFIED otherwise.
    """
    t = k.indices
    if all(abs(v) > 1 for v in t):
        return TorusStatus.TORUS if t in TORUS_TRIPLES else TorusStatus.NOT_TORUS
    if t[0] == -2 and t[1] == 1 and t[2] >= 1 and t[2] % 2 == 1:
        return TorusStatus.TORUS
    return TorusStatus.UNCLASSIFIED


def is_torus(k: PretzelKnot) -> bool:
    return torus_status(k) is TorusStatus.TORUS


def family(k: PretzelKnot) -> KnotFamily:
    if is_torus(k):
        return KnotFamily(FamilyTag.TORUS)
    a, b, c = k.indices
    if a == -2 and b % 2 == c % 2 == 1 and 3 <= b <= c:
        return KnotFamily(FamilyTag.MINUS2_PQ, odd_pair=(b, c), even_value=-2)
    if a <= -4 and a % 2 == 0 and b % 2 == c % 2 == 1 and 3 <= b <= c:
        return KnotFamily(FamilyTag.PQ_MINUS_R, odd_pair=(b, c), even_value=a)
    return KnotFamily(FamilyTag.OTHER)


def hyperbolicity_condition(k: PretzelKnot) -> bool:
    """Exact test of 1/|p| + 1/|q| + 2/|r| < 1 for one-even-index triples."""
    evens = k.even_indices
    if len(evens) != 1:
        raise FamilyError(f"{k} does not have exactly one even index")
    o1, o2 = k.odd_indices
    total = Fraction(1, abs(o1)) + Fraction(1, abs(o2)) + Fraction(2, abs(evens[0]))
    return total < 1


def enumerate_canonical(bound: int) -> Iterator[PretzelKnot]:
    """All canonical pretzel triples with every |index| <= bound, ascending."""
    if bound < 1:
        return
    # Canonical form is an ascending triple with at most one negative entry.
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        lo = max(a, 1)
        for b in range(lo, bound + 1):
            for c in range(b, bound + 1):
                yield PretzelKnot(a, b, c)
