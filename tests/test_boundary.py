from fractions import Fraction
from math import gcd

import pytest

from pretzel_surgery.boundary import (BoundarySlopeSet, Completeness, _pack,
                                      nonintegral_slopes_minus2_pq,
                                      nonintegral_slopes_pq_minus_r, slope_list_minus2_5_q,
                                      small_p_value, toroidal_gap_pairs_large_p, toroidal_slope)
from pretzel_surgery.classify import toroidal_gap_large_p, toroidal_gap_small_p
from pretzel_surgery.knots import FamilyError, canonicalize
from pretzel_surgery.slopes import Slope, make_slope


def test_minus2_pq_both_branches_coincide():
    got = nonintegral_slopes_minus2_pq(7, 7)
    assert got.slopes == (make_slope(37, 2),)
    assert got.completeness is Completeness.ALL_NONINTEGRAL


def test_minus2_pq_only_q_branch():
    assert nonintegral_slopes_minus2_pq(3, 9).slopes == (make_slope(67, 3),)


def test_minus2_pq_empty():
    assert nonintegral_slopes_minus2_pq(3, 5).is_empty


def test_minus2_pq_rejects_bad_input():
    with pytest.raises(ValueError):
        nonintegral_slopes_minus2_pq(4, 7)
    with pytest.raises(ValueError):
        nonintegral_slopes_minus2_pq(7, 5)


def test_steep_denominators_never_share_a_factor():
    for v in range(7, 100, 2):
        assert gcd(v * v - v - 5, (v - 3) // 2) == 1


@pytest.mark.parametrize("q,expected", [
    (9, ["0", "14", "15", "67/3", "28", "30"]),
    (5, ["0", "14", "15", "20", "22"]),  # the steep entry merges into 15
    (7, ["0", "14", "15", "37/2", "24", "26"]),
])
def test_slope_list_minus2_5_q(q, expected):
    got = slope_list_minus2_5_q(q)
    assert [str(s) for s in got.slopes] == expected
    assert got.completeness is Completeness.FULL_LIST


def test_pq_minus_r_large_p():
    got = nonintegral_slopes_pq_minus_r(9, 9, 4)
    assert got.slopes == (make_slope(61, 2),)
    assert got.completeness is Completeness.ALL_NONINTEGRAL


def test_pq_minus_r_large_p_integral_dropped():
    got = nonintegral_slopes_pq_minus_r(11, 11, 4)
    assert got.is_empty
    assert got.dropped_integral == (make_slope(33, 1),)


def test_pq_minus_r_small_p_integral_value():
    assert small_p_value(3, 3, 4) == 16
    got = nonintegral_slopes_pq_minus_r(3, 3, 4)
    assert got.is_empty and got.dropped_integral == (make_slope(16, 1),)


def test_pq_minus_r_small_p_nonintegral_value():
    assert small_p_value(3, 5, 6) == Fraction(70, 3)
    got = nonintegral_slopes_pq_minus_r(3, 5, 6)
    assert got.slopes == (make_slope(70, 3),)


def test_pq_minus_r_middle_window_is_candidate_only():
    got = nonintegral_slopes_pq_minus_r(5, 7, 4)
    assert got.completeness is Completeness.CANDIDATE_ONLY
    assert got.is_empty


def test_pq_minus_r_rejects_parity_violations():
    with pytest.raises(ValueError):
        nonintegral_slopes_pq_minus_r(4, 5, 4)
    with pytest.raises(ValueError):
        nonintegral_slopes_pq_minus_r(3, 5, 3)


@pytest.mark.parametrize("triple,expected", [
    ((-2, 3, 7), 20),
    ((-2, 5, 9), 28),
    ((3, 5, -4), 16),
])
def test_toroidal_slope(triple, expected):
    assert toroidal_slope(canonicalize(*triple)) == make_slope(expected, 1)


def test_toroidal_slope_rejects_other_families():
    with pytest.raises(FamilyError):
        toroidal_slope(canonicalize(-3, 3, 4))


def test_gap_identity():
    # 2(p+q) - steep value == 2q - 2r - (r-1)^2 / ((p-1-r)/2), exactly.
    for r in range(4, 18, 2):
        for p in range(2 * r + 1, 2 * r + 20, 2):
            for q in range(p, p + 20, 2):
                half = Fraction(p - 1 - r, 2)
                gap_p = 2 * q - 2 * r - Fraction((r - 1) ** 2) / half
                half_q = Fraction(q - 1 - r, 2)
                gap_q = 2 * p - 2 * r - Fraction((r - 1) ** 2) / half_q
                assert toroidal_gap_pairs_large_p(p, q, r) == (gap_p.as_integer_ratio(),
                                                               gap_q.as_integer_ratio())


def test_gap_formula_needs_large_p():
    with pytest.raises(FamilyError):
        toroidal_gap_pairs_large_p(7, 9, 4)


# -- the int kernels against the Fraction forms they replaced -----------------


def _steep_reference(v, r=2):
    return Fraction(v * (v - 1) + 1 - 3 * r, (v - 1 - r) // 2)


def _small_p_reference(p, q, r):
    return 2 * (p + q + r - 1) - Fraction(2 * (p - 1) * (q - 1), p + q - 2)


def _pack_reference(values):
    """(non-integral, dropped integral) slopes, each sorted by the old key
    (0, Fraction(a, b)), the meridian last."""
    def key(s):
        return (1, Fraction(0)) if s.b == 0 else (0, Fraction(s.a, s.b))
    slopes = {make_slope(v.numerator, v.denominator) for v in values}
    return (tuple(sorted((s for s in slopes if s.b != 1), key=key)),
            tuple(sorted((s for s in slopes if s.b == 1), key=key)))


def _pq_minus_r_reference(p, q, r):
    if p >= 2 * r + 1:
        return _pack_reference([_steep_reference(p, r), _steep_reference(q, r)])
    if p < r:
        return _pack_reference([_small_p_reference(p, q, r)])
    return (), ()


def test_pq_minus_r_kernel_matches_the_fraction_form():
    for p in range(3, 100, 2):
        for q in range(p, 100, 2):
            for r in range(4, 101, 2):
                got = nonintegral_slopes_pq_minus_r(p, q, r)
                assert (got.slopes, got.dropped_integral) == _pq_minus_r_reference(p, q, r)


@pytest.mark.parametrize("values", [
    [],
    [_steep_reference(21, 10)],
    [_steep_reference(23, 10), _steep_reference(21, 10)],  # descending: (-10,21,23) swapped
    [_steep_reference(21, 10)] * 2,  # equal: p == q on (-10,21,21)
    [Fraction(33), Fraction(55)], [Fraction(55), Fraction(33)],  # both dropped: (-4,11,23)
    [Fraction(249, 4), Fraction(69)], [Fraction(69), Fraction(249, 4)],  # one dropped
    [Fraction(56)] * 2, [Fraction(-7, 2), Fraction(-9, 2)], [Fraction(-7, 2), Fraction(7, 2)],
], ids=lambda values: ",".join(map(str, values)) or "empty")
def test_pack_orders_dedups_and_shelves_like_the_reference(values):
    got = _pack([(v.numerator, v.denominator) for v in values], Completeness.ALL_NONINTEGRAL)
    assert (got.slopes, got.dropped_integral) == _pack_reference(values)
    assert got.completeness is Completeness.ALL_NONINTEGRAL


def test_minus2_pq_kernel_matches_the_fraction_form():
    for p in range(3, 200, 2):
        for q in range(p, 200, 2):
            got = nonintegral_slopes_minus2_pq(p, q)
            want = _pack_reference([_steep_reference(v) for v in (p, q) if v >= 7])
            assert (got.slopes, got.dropped_integral) == want


def test_slope_list_minus2_5_q_matches_the_fraction_form():
    for q in range(5, 200, 2):
        values = [Fraction(0), Fraction(14), Fraction(15), _steep_reference(q),
                  Fraction(2 * q + 10), Fraction(2 * q + 12)]
        slopes = {make_slope(v.numerator, v.denominator) for v in values}
        want = tuple(sorted(slopes, key=lambda s: Fraction(s.a, s.b)))
        assert slope_list_minus2_5_q(q).slopes == want


def test_gap_texts_match_the_fraction_form():
    for p in range(3, 100, 2):
        for q in range(p, 100, 2):
            for r in range(4, 101, 2):
                tor = 2 * (p + q)
                if p > 2 * r + 1:
                    want = [str(tor - _steep_reference(v, r)) for v in (p, q)]
                    assert toroidal_gap_large_p(p, q, r)["gaps"] == want
                    assert toroidal_gap_pairs_large_p(p, q, r) == tuple(
                        Fraction(g).as_integer_ratio() for g in want)
                elif p <= r - 5:
                    value = _small_p_reference(p, q, r)
                    assert small_p_value(p, q, r) == value
                    assert toroidal_gap_small_p(p, q, r)["gap"] == str(abs(value - tor))


def test_the_slope_set_order_check_is_exact():
    # Strictly ascending by cross-multiplication, the meridian 1/0 last.
    BoundarySlopeSet((Slope(1, 3), Slope(1, 2), Slope(1, 0)), Completeness.FULL_LIST)
    for bad in [(Slope(1, 2), Slope(1, 3)), (Slope(1, 2), Slope(1, 2)),
                (Slope(1, 0), Slope(5, 1)), (Slope(1, 0), Slope(1, 0))]:
        with pytest.raises(ValueError):
            BoundarySlopeSet(bad, Completeness.FULL_LIST)
