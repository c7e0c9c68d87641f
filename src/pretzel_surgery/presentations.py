"""Symbolic presentations attached to a (p,q,-r) pretzel knot.

Everything is built from the three-generator diagram presentation of the
knot group: the longitude word, Dehn-filled quotients, the two-generator
Coxeter-type factor group of an odd filling, and the triangle-group image
of the longitude whose collapse drives the even-filling parity rule.

That collapse is an identity on the whole family, proven in the Tier-1
tests (``tests/test_presentations.py``), so the classifier records it
directly and never reduces the word per knot.
``triangle_image_of_longitude``, ``reduce_modulo_orders`` and
``longitude_triviality_check`` stay as the reference that proof is checked
against, and the benchmark (``perfbench/run.py``) traces
``longitude_triviality_check`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .coxeter import CoxeterSignature
from .words import GroupPresentation, Word, gen


def _require_knot_parameters(p: int, q: int, r: int) -> None:
    if p % 2 == 0 or q % 2 == 0 or p < 3 or q < 3:
        raise ValueError(f"need odd p, q >= 3, got p={p}, q={q}")
    if r % 2 != 0 or r < 4:
        raise ValueError(f"need even r >= 4, got r={r}")


def wirtinger_presentation(p: int, q: int, r: int) -> GroupPresentation:
    """Diagram presentation of the (p,q,-r) pretzel knot group on x, y, z."""
    _require_knot_parameters(p, q, r)
    x, y, z = gen("x"), gen("y"), gen("z")
    zx, yx, yzi = z * x, y * x, y * ~z
    half_r = r // 2

    lhs1 = zx ** ((p - 1) // 2) * z * zx ** ((1 - p) // 2)
    rhs1 = yx ** (-((q + 1) // 2)) * y * yx ** ((q + 1) // 2)
    lhs2 = yzi ** (-half_r) * y * yzi ** half_r
    rhs2 = yx ** ((1 - q) // 2) * x * yx ** ((q - 1) // 2)
    lhs3 = yzi ** (-half_r) * z * yzi ** half_r
    rhs3 = zx ** ((p + 1) // 2) * x * zx ** (-((p + 1) // 2))

    k, m = (p - 1) // 2, (q + 1) // 2
    display = (
        f"(zx)^{k} z (zx)^{-k} = (yx)^{-m} y (yx)^{m}",
        f"(yz^-1)^{-half_r} y (yz^-1)^{half_r} = (yx)^{-(m - 1)} x (yx)^{m - 1}",
        f"(yz^-1)^{-half_r} z (yz^-1)^{half_r} = (zx)^{k + 1} x (zx)^{-(k + 1)}",
    )
    return GroupPresentation(
        ("x", "y", "z"),
        (lhs1 * ~rhs1, lhs2 * ~rhs2, lhs3 * ~rhs3),
        display=display,
    )


def longitude_word(p: int, q: int, r: int) -> Word:
    """The preferred longitude of the (p,q,-r) pretzel knot, freely reduced."""
    _require_knot_parameters(p, q, r)
    x, y, z = gen("x"), gen("y"), gen("z")
    zx, yx, yzi = z * x, y * x, y * ~z
    half_r = r // 2
    return (gen("x", -2 * (p + q))
            * yx ** ((q - 1) // 2)
            * yzi ** (-half_r)
            * yx ** ((q + 1) // 2)
            * zx ** ((p - 1) // 2)
            * yzi ** half_r
            * zx ** ((p + 1) // 2))


def filled_presentation(p: int, q: int, r: int, s: int) -> GroupPresentation:
    """Fundamental group of the integral s-filling: the knot group plus x^s l."""
    base = wirtinger_presentation(p, q, r)
    fill = gen("x", s) * longitude_word(p, q, r)
    return GroupPresentation(
        base.generators,
        base.relators + (fill,),
        display=base.display + (f"x^{s} l",),
    )


@dataclass(frozen=True)
class CoxeterQuotient:
    """The two-generator factor group of an odd filling and its normalized
    signature (a None signature flags |s-2p| < 2, where the (2,a,b;c) form
    degenerates)."""

    two_generator: GroupPresentation
    signature: CoxeterSignature | None


def coxeter_quotient(p: int, r: int, s: int) -> CoxeterQuotient:
    """Factor group of the s-filling obtained by killing (yz^-1)^(r/2),
    y x^-1 and (zx)^p, on y and w = (zy)^((p-1)/2); isomorphic to
    (2, p, |s-2p|; r/2)."""
    if p % 2 == 0 or p < 3:
        raise ValueError(f"need odd p >= 3, got p={p}")
    if r % 2 != 0 or r < 4:
        raise ValueError(f"need even r >= 4, got r={r}")
    if s % 2 == 0:
        raise ValueError(f"need an odd filling slope, got s={s}")
    if s == 2 * p:
        raise ValueError("degenerate quotient: s - 2p = 0")

    half_r = r // 2
    y, w = gen("y"), gen("w")
    two_generator = GroupPresentation(
        ("w", "y"),
        ((y * y * w * w) ** half_r, w ** p, (w * y) ** 2, gen("y", s - 2 * p)),
        display=(f"(y^2w^2)^{half_r}", f"w^{p}", "(wy)^2", f"y^{s - 2 * p}"),
    )
    d = abs(s - 2 * p)
    signature = CoxeterSignature.of(p, d, half_r) if d >= 2 else None
    return CoxeterQuotient(two_generator, signature)


def triangle_image_of_longitude(p: int, q: int, r: int) -> Word:
    """Image of the longitude in <f,g,h | f^|r/2|... >: the word
    g^k f^m g^(k+1) h^l f^m h^(l+1) with k=(|p|-1)/2, l=(|q|-1)/2, m=|r|/2."""
    if p % 2 == 0 or q % 2 == 0 or r % 2 != 0:
        raise ValueError("need odd p, q and even r")
    k, half = (abs(p) - 1) // 2, (abs(q) - 1) // 2
    m = abs(r) // 2
    return Word((("g", k), ("f", m), ("g", k + 1), ("h", half), ("f", m), ("h", half + 1)))


def reduce_modulo_orders(word: Word, orders: Mapping[str, int]) -> Word:
    """Normal form of a word in the free product of the cyclic groups
    <g | g^orders[g]>; empty output means the word is trivial there.  One pass
    over a stack of runs: merge a repeated generator, reduce mod its order."""
    stack: list[tuple[str, int]] = []
    for g, e in word.runs:
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        n = orders.get(g)
        if n:
            e %= n
        if e:
            stack.append((g, e))
    return Word(stack)


def longitude_triviality_check(p: int, q: int, r: int) -> bool:
    """True when the triangle-group image of the longitude collapses under
    f^m, g^|p|, h^|q|; this is the algebraic core of the even-filling rule."""
    word = triangle_image_of_longitude(p, q, r)
    orders = {"f": abs(r) // 2, "g": abs(p), "h": abs(q)}
    return reduce_modulo_orders(word, orders).is_trivial
