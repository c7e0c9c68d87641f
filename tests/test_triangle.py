import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.triangle import (irreducible_char_count, reducible_char_count,
                                      total_char_count)


@pytest.mark.parametrize("triple,want", [
    ((2, 3, 7), 4),   # 0 + 1*1*3 + 0 + 0 + 0 + 1
    ((3, 3, 3), 6),   # 1 + 1 + 1+1+1 + 1
    ((2, 2, 2), 5),   # 0 + 1 + 1+1+1 + 1
])
def test_total_counts(triple, want):
    assert total_char_count(*triple) == want


@pytest.mark.parametrize("triple,want", [
    ((2, 3, 7), 1),   # a=1, b=1
    ((3, 3, 3), 5),   # a=3, b=9
    ((2, 4, 6), 4),   # a=2, b=gcd(8,12,24)=4 -> 4/2 + 2
])
def test_reducible_counts(triple, want):
    assert reducible_char_count(*triple) == want


def test_irreducible_counts():
    assert irreducible_char_count(2, 3, 7) == 3
    assert irreducible_char_count(3, 3, 3) == 1


def test_triple_validation():
    with pytest.raises(ValueError):
        irreducible_char_count(1, 3, 3)
    with pytest.raises(ValueError):
        total_char_count(2, 3, 1)


orders = st.integers(2, 40)


@given(orders, orders, orders)
def test_counts_symmetric_under_permutation(p, q, r):
    totals = {total_char_count(*perm) for perm in itertools.permutations((p, q, r))}
    reds = {reducible_char_count(*perm) for perm in itertools.permutations((p, q, r))}
    assert len(totals) == 1 and len(reds) == 1


def test_hyperbolic_triples_have_at_least_three_irreducible():
    for p in range(2, 51):
        for q in range(p, 51):
            for r in range(q, 51):
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1:
                    assert irreducible_char_count(p, q, r) >= 3, (p, q, r)


def _counts_reference(p, q, r):
    """(total, reducible), written out as the counts were."""
    total = ((p - p // 2 - 1) * (q - q // 2 - 1) * (r - r // 2 - 1)
             + (p // 2) * (q // 2) * (r // 2)
             + gcd(p, q) // 2 + gcd(p, r) // 2 + gcd(q, r) // 2 + 1)
    a, b = gcd(p, q, r), gcd(p * q, gcd(p * r, q * r))
    return total, b // 2 + (2 if a % 2 == 0 else 1)


def test_counts_match_the_reference_formulas():
    for p in range(2, 41):
        for q in range(2, 41):
            for r in range(2, 41):
                total, reducible = _counts_reference(p, q, r)
                assert total_char_count(p, q, r) == total
                assert reducible_char_count(p, q, r) == reducible
                assert irreducible_char_count(p, q, r) == total - reducible


@pytest.mark.parametrize("triple", [(1, 3, 3), (3, 1, 3), (3, 3, 1), (0, 5, 5), (2, 2, -4)])
def test_every_count_rejects_an_order_below_two(triple):
    for count in (total_char_count, reducible_char_count, irreducible_char_count):
        with pytest.raises(ValueError, match="orders must be >= 2"):
            count(*triple)
