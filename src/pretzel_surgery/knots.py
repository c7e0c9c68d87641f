"""Canonical forms, equivalences and family bookkeeping for (p,q,r) pretzel knots.

Two triples describe isotopic knots when they differ by a permutation, and
mirror images when all three signs flip.  The canonical representative picked
here is the ascending sort of whichever sign class has at most one negative
index, so the classified families read off directly:

* ``(-2, p, q)`` with ``p, q`` odd and ``3 <= p <= q``;
* ``(-r, p, q)`` with ``r >= 4`` even and ``p, q`` odd positive.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

from .facts import TORUS_TRIPLES
from .records import Record


class FamilyError(ValueError):
    """An operation was applied to a knot outside its family of validity."""


class TorusStatus(Enum):
    TORUS = "TORUS"
    NOT_TORUS = "NOT_TORUS"
    UNCLASSIFIED = "UNCLASSIFIED"


class FamilyTag(Enum):
    TORUS = "TORUS"
    UNCLASSIFIED = "UNCLASSIFIED"
    MINUS2_PQ = "MINUS2_PQ"
    PQ_MINUS_R = "PQ_MINUS_R"
    OTHER = "OTHER"


class PretzelKnot(Record, namedtuple("PretzelKnot", "p q r")):
    """A pretzel knot in canonical form (see module docstring), a validated tuple record."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int) -> PretzelKnot:
        if not (p and q and r):
            raise ValueError("pretzel indices must be nonzero")
        if not is_canonical(p, q, r):
            raise ValueError(f"{(p, q, r)} is not in canonical form; use canonicalize()")
        return tuple.__new__(cls, (p, q, r))

    @property
    def indices(self) -> tuple[int, int, int]:
        return tuple(self)

    @property
    def even_indices(self) -> tuple[int, ...]:
        return tuple([v for v in (self.p, self.q, self.r) if v % 2 == 0])

    @property
    def odd_indices(self) -> tuple[int, ...]:
        return tuple([v for v in (self.p, self.q, self.r) if v % 2])

    @property
    def is_knot(self) -> bool:
        """Pretzel triples with two or more even indices give links, not knots."""
        return self.p % 2 + self.q % 2 + self.r % 2 >= 2

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r})"


def is_canonical(p: int, q: int, r: int) -> bool:
    """The fields of a ``PretzelKnot``: exactly the fixed points of
    _canonical_triple with no zero entry, ascending with at most one negative
    entry (a triple with no zero is never its own mirror), each exactly an
    ``int``: a ``bool`` or ``float`` compares equal but writes other bytes."""
    return type(p) is type(q) is type(r) is int and p != 0 < q and p <= q <= r


def _canonical_triple(p: int, q: int, r: int) -> tuple[int, int, int]:
    plus = tuple(sorted((p, q, r)))
    minus = tuple(sorted((-p, -q, -r)))
    # The two mirrors have k and 3-k negative entries; keep the one with <= 1.
    return plus if sum(1 for v in plus if v < 0) <= 1 else minus


def canonicalize(p: int, q: int, r: int) -> PretzelKnot:
    if any(v == 0 for v in (p, q, r)):
        raise ValueError("pretzel indices must be nonzero")
    return PretzelKnot(*_canonical_triple(p, q, r))


class KnotFamily(NamedTuple):
    """Family tag plus the parameters of the matched pattern.  A named tuple:
    sweeps and replay ask for the family of every knot several times."""

    tag: FamilyTag
    odd_pair: tuple[int, int] | None = None
    even_value: int | None = None


def torus_status(k: PretzelKnot) -> TorusStatus:
    """Classify torus-ness exactly as far as the encoded patterns reach.

    With all indices of absolute value > 1 the answer is definitive; triples
    with a +-1 index are only classified when they match the degenerate
    (-2,1,n) pattern, and are UNCLASSIFIED otherwise.
    """
    if 1 not in k and -1 not in k:  # a record hashes and compares as its plain tuple
        return TorusStatus.TORUS if k in TORUS_TRIPLES else TorusStatus.NOT_TORUS
    if k.p == -2 and k.q == 1 and k.r % 2 == 1:
        return TorusStatus.TORUS
    return TorusStatus.UNCLASSIFIED


_TORUS, _UNCLASSIFIED, _OTHER = (KnotFamily(tag) for tag in (  # parameter-free, shared
    FamilyTag.TORUS, FamilyTag.UNCLASSIFIED, FamilyTag.OTHER))


@lru_cache(maxsize=1)  # classify and replay ask for one knot's family in turn
def family(k: PretzelKnot) -> KnotFamily:
    """Sort k, reading its torus status once; OTHER is a non-torus knot in neither family."""
    status = torus_status(k)
    if status is not TorusStatus.NOT_TORUS:
        return _TORUS if status is TorusStatus.TORUS else _UNCLASSIFIED
    a, b, c = k
    if a == -2 and b % 2 == c % 2 == 1 and 3 <= b <= c:
        return KnotFamily(FamilyTag.MINUS2_PQ, odd_pair=(b, c), even_value=-2)
    if a <= -4 and a % 2 == 0 and b % 2 == c % 2 == 1 and 3 <= b <= c:
        return KnotFamily(FamilyTag.PQ_MINUS_R, odd_pair=(b, c), even_value=a)
    return _OTHER


def triangle_slack(p: int, q: int, m: int) -> int:
    """pqm(1 - 1/p - 1/q - 1/m) for positive p, q, m: positive exactly when
    1/p + 1/q + 1/m < 1, and >= 0 exactly when 1/p + 1/q + 1/m <= 1."""
    return p * q * m - (q * m + p * m + p * q)


def hyperbolicity_condition(k: PretzelKnot) -> bool:
    """Exact test of 1/|p| + 1/|q| + 2/|r| < 1 for one-even-index triples."""
    evens = k.even_indices
    if len(evens) != 1:
        raise FamilyError(f"{k} does not have exactly one even index")
    o1, o2 = k.odd_indices
    # 2/|r| = 1/(|r|/2), and |r|/2 is an integer since r is even.
    return triangle_slack(abs(o1), abs(o2), abs(evens[0]) // 2) > 0


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
                yield tuple.__new__(PretzelKnot, (a, b, c))  # canonical ints by the bounds
