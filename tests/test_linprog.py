from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.linprog import (EQ, GE, LE, row, satisfies, solve_feasibility,
                                     verify_witness)


def test_feasible_system_returns_exact_point():
    rows = [
        row([1, 1], GE, 2),
        row([1, -1], LE, 0),
        row([2, 1], EQ, 5),
    ]
    result = solve_feasibility(rows, 2)
    assert result.feasible
    assert satisfies(rows, result.point)


def test_infeasible_system_returns_verified_witness():
    rows = [
        row([1, 1], LE, 1),
        row([1, 0], GE, 2),
    ]
    result = solve_feasibility(rows, 2)
    assert not result.feasible
    assert verify_witness(rows, result.witness)


def test_equalities_with_negative_rhs():
    rows = [row([1, -2], EQ, -3), row([1, 1], GE, 1)]
    result = solve_feasibility(rows, 2)
    assert result.feasible
    assert satisfies(rows, result.point)


def test_infeasible_equalities():
    rows = [row([1, 1], EQ, 1), row([1, 1], EQ, 2)]
    result = solve_feasibility(rows, 2)
    assert not result.feasible
    assert verify_witness(rows, result.witness)


def test_fractional_data():
    rows = [
        row([Fraction(1, 3), Fraction(1, 7)], GE, Fraction(5, 21)),
        row([1, -1], EQ, 0),
        row([1, 0], LE, Fraction(1, 2)),
    ]
    result = solve_feasibility(rows, 2)
    assert result.feasible
    assert satisfies(rows, result.point)


def test_witness_rejects_wrong_sign():
    rows = [row([1], GE, 1), row([-1], GE, 0)]
    # x >= 1 and -x >= 0 is infeasible; a witness must be nonnegative here.
    result = solve_feasibility(rows, 1)
    assert not result.feasible
    assert verify_witness(rows, result.witness)
    assert not verify_witness(rows, (Fraction(-1), Fraction(0)))
    assert not verify_witness(rows, (Fraction(0), Fraction(0)))


def test_row_width_mismatch():
    with pytest.raises(ValueError):
        solve_feasibility([row([1, 2], GE, 0)], 3)


small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@given(st.integers(1, 4), st.data())
def test_random_systems_decided_with_checkable_evidence(nvars, data):
    # Denominators up to 7 make the solver scale columns to integers.
    raw = data.draw(st.lists(
        st.tuples(st.lists(small_fraction, min_size=nvars, max_size=nvars),
                  st.sampled_from([EQ, GE, LE]), small_fraction),
        min_size=1, max_size=5), label="rows")
    rows = [row(coeffs, rel, rhs) for coeffs, rel, rhs in raw]
    result = solve_feasibility(rows, nvars)
    if result.feasible:
        assert satisfies(rows, result.point)
    else:
        assert verify_witness(rows, result.witness)


@given(st.integers(1, 40), st.integers(1, 40))
def test_scaling_preserves_homogeneous_feasibility(na, nb):
    # Homogeneous system: points scale by any positive rational.
    rows = [row([2, -3, -1], EQ, 0), row([1, 1, -1], LE, 0)]
    result = solve_feasibility(rows + [row([1, 0, 0], GE, 1)], 3)
    assert result.feasible
    scale = Fraction(na, nb)
    scaled = tuple(scale * v for v in result.point)
    assert satisfies(rows, scaled)
