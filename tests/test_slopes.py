import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.slopes import (LONGITUDE, MERIDIAN, Slope, SlopeError, distance,
                                    integer_slope, make_slope)


def test_make_slope_reduces():
    assert make_slope(36, 2) == Slope(18, 1)


def test_make_slope_normalizes_signs():
    assert make_slope(-19, -1) == Slope(19, 1)
    assert make_slope(19, -2) == Slope(-19, 2)
    assert make_slope(-1, 0) == MERIDIAN


def test_meridian():
    assert make_slope(1, 0) == MERIDIAN
    assert MERIDIAN.is_meridian
    assert not MERIDIAN.is_integral


def test_rejects_zero_zero():
    with pytest.raises(SlopeError):
        make_slope(0, 0)
    with pytest.raises(SlopeError):
        Slope(0, 0)


def test_raw_constructor_requires_normal_form():
    with pytest.raises(SlopeError):
        Slope(4, 2)
    with pytest.raises(SlopeError):
        Slope(3, -1)
    with pytest.raises(SlopeError):
        Slope(-1, 0)


@pytest.mark.parametrize("s,t,want", [
    ((18, 1), (19, 1), 1),
    ((22, 1), (67, 3), 1),   # |22*3 - 1*67|
    ((1, 0), (17, 2), 2),
])
def test_distance_examples(s, t, want):
    assert distance(make_slope(*s), make_slope(*t)) == want


def test_parity_predicates():
    assert make_slope(18, 1).is_even_integral
    assert make_slope(17, 2).is_half_integral
    assert make_slope(37, 2).is_non_integral
    assert make_slope(19, 1).is_odd_integral
    assert not make_slope(19, 1).is_non_integral


def test_parse_and_str_round_trip():
    for text in ["18", "-19", "1/0", "37/2", "-67/3"]:
        assert str(Slope.parse(text)) == text
    assert Slope.parse("36/2") == Slope(18, 1)
    with pytest.raises(SlopeError):
        Slope.parse("1/2/3")
    with pytest.raises(SlopeError):
        Slope.parse("x")


slope_pairs = st.tuples(st.integers(-300, 300), st.integers(-300, 300)).filter(
    lambda ab: ab != (0, 0))


@given(slope_pairs, slope_pairs)
def test_distance_symmetric_nonnegative(ab, cd):
    s, t = make_slope(*ab), make_slope(*cd)
    d = distance(s, t)
    assert d >= 0
    assert d == distance(t, s)
    assert (d == 0) == (s == t)


@given(slope_pairs)
def test_meridian_distance_is_denominator(ab):
    s = make_slope(*ab)
    assert distance(MERIDIAN, s) == s.b


@given(slope_pairs)
def test_make_slope_idempotent(ab):
    s = make_slope(*ab)
    assert make_slope(s.a, s.b) == s


def test_integer_slope_and_longitude():
    assert integer_slope(7) == make_slope(7, 1)
    assert LONGITUDE == make_slope(0, 5)

