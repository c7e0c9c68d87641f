import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery import facts
from pretzel_surgery.coxeter import CoxeterSignature
from pretzel_surgery.knots import triangle_slack
from pretzel_surgery.presentations import (coxeter_quotient, filled_presentation,
                                           longitude_triviality_check, longitude_word,
                                           reduce_modulo_orders,
                                           triangle_image_of_longitude,
                                           wirtinger_presentation)
from pretzel_surgery.smith import AbelianInvariants, abelian_invariants
from pretzel_surgery.words import GroupPresentation, Word, gen


def test_wirtinger_presentation_shape():
    pres = wirtinger_presentation(3, 3, 4)
    assert pres.generators == ("x", "y", "z")
    assert [len(list(w.letters())) for w in pres.relators] == [12, 12, 14]


def test_wirtinger_relators_have_zero_total_exponent():
    for p, q, r in [(3, 3, 4), (3, 7, 4), (5, 9, 8), (7, 7, 10)]:
        for rel in wirtinger_presentation(p, q, r).relators:
            assert sum(e for _, e in rel.runs) == 0


@pytest.mark.parametrize("p,q,r", [(3, 3, 4), (3, 7, 4), (5, 5, 6), (7, 9, 8)])
def test_knot_group_abelianizes_to_Z(p, q, r):
    assert wirtinger_presentation(p, q, r).abelianization() == AbelianInvariants((), 1)


def test_wirtinger_rejects_parity_violations():
    with pytest.raises(ValueError):
        wirtinger_presentation(4, 5, 4)
    with pytest.raises(ValueError):
        wirtinger_presentation(3, 5, 5)
    with pytest.raises(ValueError):
        wirtinger_presentation(3, 5, 2)


def test_longitude_golden_shape():
    word = longitude_word(3, 3, 4)
    assert len(list(word.letters())) == 28
    assert (word.exponent_sum("x"), word.exponent_sum("y"),
            word.exponent_sum("z")) == (-6, 3, 3)


@pytest.mark.parametrize("p,q,r", [(3, 3, 4), (5, 7, 6), (7, 9, 10)])
def test_longitude_is_null_homologous(p, q, r):
    word = longitude_word(p, q, r)
    # All three generators are meridians, so the homology class is the
    # total exponent sum; x alone carries -(p+q) balanced by y and z.
    assert sum(e for _, e in word.runs) == 0
    assert word.exponent_sum("x") == -(p + q)
    assert word.exponent_sum("y") == q
    assert word.exponent_sum("z") == p


@pytest.mark.parametrize("p,q,r,s", [(3, 3, 4, 13), (3, 5, 4, 1), (5, 7, 6, 9)])
def test_filled_presentation_homology(p, q, r, s):
    inv = filled_presentation(p, q, r, s).abelianization()
    assert inv == abelian_invariants(1, [[s]])  # Z/s


def test_zero_filling_has_free_rank_one():
    assert filled_presentation(3, 5, 4, 0).abelianization() == AbelianInvariants((), 1)


def test_homology_sweep():
    for p in range(3, 10, 2):
        for q in range(p, 10, 2):
            for r in (4, 6, 8):
                for s in range(1, 26, 2):
                    inv = filled_presentation(p, q, r, s).abelianization()
                    assert inv == abelian_invariants(1, [[s]]), (p, q, r, s)


@pytest.mark.parametrize("p,r,s,expected", [
    (3, 4, 11, (3, 5, 2)),
    (5, 6, 13, (3, 5, 3)),
    (7, 8, 21, (7, 7, 4)),
])
def test_coxeter_quotient_signature(p, r, s, expected):
    assert coxeter_quotient(p, r, s).signature == CoxeterSignature(*expected)


def test_coxeter_quotient_degenerate_cases():
    with pytest.raises(ValueError):
        coxeter_quotient(3, 4, 6)  # s = 2p, refused as an even slope
    assert coxeter_quotient(3, 4, 7).signature is None  # |s-2p| = 1
    with pytest.raises(ValueError):
        coxeter_quotient(3, 4, 8)  # even slope


def test_quotient_consistent_with_adding_relators_to_filling():
    for p, q, r, s in [(3, 3, 4, 11), (3, 5, 4, 13), (5, 7, 6, 13), (3, 7, 6, 9)]:
        filled = filled_presentation(p, q, r, s)
        y, z, x = gen("y"), gen("z"), gen("x")
        augmented = GroupPresentation(
            filled.generators,
            filled.relators + ((y * ~z) ** (r // 2), y * ~x, (z * x) ** p))
        quotient = coxeter_quotient(p, r, s)
        assert augmented.abelianization() == quotient.two_generator.abelianization()


@pytest.mark.parametrize("p,q,r", [(3, 3, 4), (5, 7, 8), (3, 5, 4), (9, 11, 14)])
def test_longitude_triviality(p, q, r):
    assert longitude_triviality_check(p, q, r)


def test_longitude_triviality_negative_control():
    # Mutating one exponent of the triangle-group word must break collapse.
    p, q, r = 3, 5, 4
    k, half = (p - 1) // 2, (q - 1) // 2
    m = r // 2
    mutated = (gen("g", k) * gen("f", m) * gen("g", k + 2)
               * gen("h", half) * gen("f", m) * gen("h", half + 1))
    orders = {"f": m, "g": p, "h": q}
    assert not reduce_modulo_orders(mutated, orders).is_trivial
    genuine = triangle_image_of_longitude(p, q, r)
    assert reduce_modulo_orders(genuine, orders).is_trivial


def test_longitude_image_equals_the_product_of_its_runs():
    for p in range(-31, 32, 2):
        for q in range(-31, 32, 2):
            k, half = (abs(p) - 1) // 2, (abs(q) - 1) // 2
            for r in range(-40, 41, 2):
                m = abs(r) // 2
                product = (gen("g", k) * gen("f", m) * gen("g", k + 1)
                           * gen("h", half) * gen("f", m) * gen("h", half + 1))
                assert triangle_image_of_longitude(p, q, r) == product, (p, q, r)


def test_reduce_modulo_orders_cascades():
    word = Word([("g", 2), ("f", 3), ("g", 1), ("h", 7)])
    reduced = reduce_modulo_orders(word, {"f": 3, "g": 3, "h": 7})
    assert reduced.is_trivial


def _reduce_reference(word, orders):
    """The Word reduction the run stack replaced: reduce every exponent, let
    Word merge the runs, and repeat until nothing changes."""
    current = word
    while True:
        runs = []
        for g, e in current.runs:
            n = orders.get(g)
            if n:
                e %= n
            if e:
                runs.append((g, e))
        reduced = Word(runs)
        if reduced == current:
            return reduced
        current = reduced


def test_longitude_check_matches_the_word_reduction():
    for p in range(-31, 32, 2):
        for q in range(-31, 32, 2):
            for r in range(-40, 41, 2):
                orders = {"f": abs(r) // 2, "g": abs(p), "h": abs(q)}
                word = triangle_image_of_longitude(p, q, r)
                want = _reduce_reference(word, orders)
                assert reduce_modulo_orders(word, orders) == want, (p, q, r)
                assert longitude_triviality_check(p, q, r) == want.is_trivial, (p, q, r)


@given(st.lists(st.tuples(st.sampled_from("fghx"), st.integers(-12, 12)), max_size=12),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_reduce_modulo_orders_matches_the_word_reduction(runs, f, g, h):
    # x has no order: it only merges and cancels freely.
    orders = {"f": f, "g": g, "h": h}
    word = Word(runs)
    assert reduce_modulo_orders(word, orders) == _reduce_reference(word, orders)


def test_longitude_collapse_is_an_identity_on_the_family():
    """The collapse that the ``even_numerator_infinite`` rule records as proven.

    For odd p, q >= 3 and even r >= 4, with k = (p-1)/2, l = (q-1)/2 and
    m = r/2, the image of the longitude is the six runs
    g^k f^m g^(k+1) h^l f^m h^(l+1), no run empty and no two neighbours on one
    generator.  One pass of ``reduce_modulo_orders`` modulo f^m, g^p, h^q
    keeps g^k (0 < k < p), drops f^m (m = 0 mod m), merges g^(k+1) into g^k
    and cancels it (k + (k+1) = p), keeps h^l (0 < l < q), drops the second
    f^m and cancels h^(l+1) against h^l (l + (l+1) = q).  Each step rests only
    on these identities, so the word is trivial on the whole family.  The
    prefixes are reduced on a head of the family to show the steps.  On the
    grid odd 3 <= p <= q <= 99, even 4 <= r <= 100 off the exceptional table,
    the triangle group is infinite and the reference check collapses the
    word: together, the claim that ``longitude_collapses: True`` records.
    """
    for p in range(3, 100, 2):
        for q in range(p, 100, 2):
            k, l = (p - 1) // 2, (q - 1) // 2
            assert (0 < k < p, k + (k + 1), 0 < l < q, l + (l + 1)) == (True, p, True, q)
            for r in range(4, 101, 2):
                m = r // 2
                word = triangle_image_of_longitude(p, q, r)
                assert word.runs == (("g", k), ("f", m), ("g", k + 1), ("h", l), ("f", m),
                                     ("h", l + 1)), (p, q, r)
                orders = {"f": m, "g": p, "h": q}
                if q <= 31 and r <= 40:
                    prefixes = [reduce_modulo_orders(Word(word.runs[:i]), orders).runs
                                for i in range(1, 7)]
                    assert prefixes == [(("g", k),), (("g", k),), (), (("h", l),),
                                        (("h", l),), ()], (p, q, r)
                assert longitude_triviality_check(p, q, r), (p, q, r)
                if (p, q, r) not in facts.EXCEPTIONAL_PQR:
                    assert triangle_slack(p, q, m) >= 0, (p, q, r)
