import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.knots import (FamilyError, FamilyTag, PretzelKnot, TorusStatus,
                                   _canonical_triple, canonicalize, enumerate_canonical,
                                   family, hyperbolicity_condition, is_canonical,
                                   torus_status, triangle_slack)


def test_canonicalize_permutation():
    assert canonicalize(7, 3, -2).indices == (-2, 3, 7)


def test_canonicalize_mirror():
    assert canonicalize(2, -3, -7).indices == (-2, 3, 7)


def test_canonicalize_fixes_figure_knot():
    assert canonicalize(-3, 3, 4).indices == (-3, 3, 4)


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize(0, 3, 4)


def test_raw_constructor_rejects_noncanonical():
    with pytest.raises(ValueError):
        PretzelKnot(3, -2, 7)


def test_constructor_accepts_exactly_the_canonical_fixed_points():
    indices = [v for v in range(-12, 13) if v != 0]
    for t in itertools.product(indices, repeat=3):
        if _canonical_triple(*t) != t:
            with pytest.raises(ValueError):
                PretzelKnot(*t)
            continue
        k = PretzelKnot(*t)
        evens = tuple(v for v in t if v % 2 == 0)
        assert k.even_indices == evens
        assert k.odd_indices == tuple(v for v in t if v % 2 != 0)
        assert k.is_knot == (len(evens) <= 1)


def test_is_canonical_holds_exactly_on_the_nonzero_fixed_points():
    # The one statement of the canonical form, read by the constructor and replay.
    for t in itertools.product(range(-6, 7), repeat=3):
        assert is_canonical(*t) == (0 not in t and _canonical_triple(*t) == t), t


@pytest.mark.parametrize("triple", [(2.0, 3, 5), (-2.0, 3.0, 7.0), (-2, 3, 7.0), (True, 3, 5),
                                    ("a", "b", "c")])
def test_a_field_that_is_not_exactly_an_int_is_not_canonical(triple):
    # A float or bool compares equal to its int but writes other bytes.
    assert is_canonical(*triple) is False
    with pytest.raises(ValueError):
        PretzelKnot(*triple)


def test_triangle_slack_matches_the_fraction_definition():
    wrong = []
    for p in range(2, 81):
        for q in range(2, 81):
            # 1/p + 1/q + 1/m against 1, as 1/m against 1 - 1/p - 1/q.
            rest = 1 - Fraction(1, p) - Fraction(1, q)
            for m in range(2, 81):
                slack, third = triangle_slack(p, q, m), Fraction(1, m)
                if (slack > 0) != (third < rest) or (slack >= 0) != (third <= rest):
                    wrong.append((p, q, m))
    assert wrong == []


nonzero = st.integers(-20, 20).filter(lambda v: v != 0)


@given(nonzero, nonzero, nonzero)
def test_canonicalize_idempotent(p, q, r):
    k = canonicalize(p, q, r)
    assert canonicalize(*k.indices) == k


@given(nonzero, nonzero, nonzero)
def test_family_invariant_under_permutation_and_mirror(p, q, r):
    base = family(canonicalize(p, q, r)).tag
    for perm in itertools.permutations((p, q, r)):
        assert family(canonicalize(*perm)).tag == base
        mirrored = tuple(-v for v in perm)
        assert family(canonicalize(*mirrored)).tag == base


def test_torus_status():
    assert torus_status(canonicalize(-2, 3, 5)) is TorusStatus.TORUS
    assert torus_status(canonicalize(2, -3, -3)) is TorusStatus.TORUS
    assert torus_status(canonicalize(-2, 3, 7)) is TorusStatus.NOT_TORUS
    assert torus_status(canonicalize(-2, 1, 7)) is TorusStatus.TORUS
    assert torus_status(canonicalize(1, 3, 4)) is TorusStatus.UNCLASSIFIED
    assert torus_status(canonicalize(-2, 5, 5)) is TorusStatus.NOT_TORUS


def test_families():
    assert family(canonicalize(-2, 3, 7)).tag is FamilyTag.MINUS2_PQ
    fam = family(canonicalize(3, 5, -4))
    assert fam.tag is FamilyTag.PQ_MINUS_R
    assert fam.odd_pair == (3, 5) and fam.even_value == -4
    assert family(canonicalize(-3, 3, 4)).tag is FamilyTag.OTHER
    assert family(canonicalize(-2, 3, 5)).tag is FamilyTag.TORUS


def test_families_with_a_plus_minus_one_index():
    # A +-1 triple is TORUS on the (-2,1,n) pattern and UNCLASSIFIED otherwise;
    # each parameter-free family is one shared record.
    assert family(canonicalize(-2, 1, 7)).tag is FamilyTag.TORUS
    assert family(canonicalize(1, 3, 4)).tag is FamilyTag.UNCLASSIFIED
    assert family(canonicalize(-1, 3, 5)).tag is FamilyTag.UNCLASSIFIED
    assert family(canonicalize(1, 3, 4)) is family(canonicalize(-1, 3, 5))
    assert family(canonicalize(-2, 3, 5)) is family(canonicalize(3, 3, -2))
    assert family(canonicalize(-3, 3, 4)) is family(canonicalize(-3, 5, 7))


def test_hyperbolicity_condition():
    assert not hyperbolicity_condition(canonicalize(3, 3, -4))
    assert not hyperbolicity_condition(canonicalize(3, 5, -4))
    assert not hyperbolicity_condition(canonicalize(3, 3, -6))
    assert hyperbolicity_condition(canonicalize(3, 3, -8))
    assert hyperbolicity_condition(canonicalize(3, 7, -4))
    with pytest.raises(FamilyError):
        hyperbolicity_condition(canonicalize(3, 5, 7))


def test_is_knot():
    assert canonicalize(-2, 3, 7).is_knot
    assert canonicalize(3, 5, 7).is_knot
    assert not canonicalize(-2, 4, 7).is_knot


@pytest.mark.parametrize("bound", range(1, 9))
def test_enumerate_canonical(bound):
    # The knots are built without validation, so each must be a genuine record.
    knots = list(enumerate_canonical(bound))
    assert len(knots) == len(set(knots))
    seen = {k.indices for k in knots}
    indices = [v for v in range(-bound, bound + 1) if v]
    for p in indices:
        for q in indices:
            for r in indices:
                assert canonicalize(p, q, r).indices in seen
    for k in knots:
        assert type(k) is PretzelKnot and is_canonical(*k), k
        assert canonicalize(*k.indices) == k
