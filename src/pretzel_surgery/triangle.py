"""Character counts for the triangle groups with presentation
``<f, g, h | f^r, g^p, h^q, fgh>``.

Only the arithmetic of the two counting formulas lives here: the total
number of PSL(2,C)-characters, the number coming from reducible (hence
abelian) representations, and their difference.  The classifier consumes
the difference as the "at least three irreducible characters" hypothesis
of the even-filling norm floor.
"""

from __future__ import annotations

from math import gcd


def _counts(p: int, q: int, r: int) -> tuple[int, int]:
    """(total, reducible) character counts; the orders are checked here, once."""
    if min(p, q, r) < 2:
        raise ValueError("triangle group orders must be >= 2")
    a = gcd(p, q, r)
    b = gcd(p * q, gcd(p * r, q * r))
    return ((p - p // 2 - 1) * (q - q // 2 - 1) * (r - r // 2 - 1)
            + (p // 2) * (q // 2) * (r // 2)
            + gcd(p, q) // 2 + gcd(p, r) // 2 + gcd(q, r) // 2
            + 1), b // 2 + (2 if a % 2 == 0 else 1)


def total_char_count(p: int, q: int, r: int) -> int:
    """Number of PSL(2,C)-characters, reducible ones included."""
    return _counts(p, q, r)[0]


def reducible_char_count(p: int, q: int, r: int) -> int:
    """Number of characters of reducible representations, counted through
    the abelianization Z/a + Z/(b/a) with a = gcd(p,q,r), b = gcd(pq,pr,qr)."""
    return _counts(p, q, r)[1]


def irreducible_char_count(p: int, q: int, r: int) -> int:
    total, reducible = _counts(p, q, r)
    if total < reducible:
        raise ArithmeticError(
            f"character counts out of order for ({p},{q},{r}): {total} < {reducible}")
    return total - reducible
