import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.slopes import MERIDIAN, Slope, SlopeError, distance, make_slope


def test_make_slope_reduces():
    assert make_slope(36, 2) == Slope(18, 1)


def test_make_slope_normalizes_signs():
    assert make_slope(-19, -1) == Slope(19, 1)
    assert make_slope(19, -2) == Slope(-19, 2)
    assert make_slope(-1, 0) == MERIDIAN


def test_meridian():
    assert make_slope(1, 0) == MERIDIAN
    assert MERIDIAN.b != 1


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
