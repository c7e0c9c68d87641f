from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery import linprog
from pretzel_surgery.linprog import (EQ, GE, LE, row, satisfies, solve_feasibility,
                                     verify_witness)
from pretzel_surgery.norms import cyclic_infeasibility_minus2_5_q


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


def test_rows_take_only_integers():
    # Every row the norm model builds is integral; rational data is refused,
    # not scaled.  Points and witnesses stay rational.
    r = row([1, -2], GE, 3)
    assert (r.coeffs, r.rhs) == ((1, -2), 3) and {type(v) for v in (*r.coeffs, r.rhs)} == {int}
    for coeffs, rhs in [([Fraction(1, 3), 1], 1), ([1, 1], Fraction(1, 2)),
                        ([Fraction(2), 1], 1), ([1.0, 1], 1), ([1, 1], "1")]:
        with pytest.raises(TypeError):
            row(coeffs, GE, rhs)


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


small_int = st.integers(-6, 6)
small_fraction = st.builds(Fraction, small_int, st.integers(1, 7))


def integer_rows(nvars, max_size):
    return st.lists(
        st.tuples(st.lists(small_int, min_size=nvars, max_size=nvars),
                  st.sampled_from([EQ, GE, LE]), small_int),
        min_size=1, max_size=max_size)


@given(st.integers(1, 4), st.data())
def test_random_systems_decided_with_checkable_evidence(nvars, data):
    raw = data.draw(integer_rows(nvars, 5), label="rows")
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


# The Fraction definitions the integer checks replace, kept as references.

def reference_satisfies(rows, x):
    def holds(r):
        lhs = sum((c * v for c, v in zip(r.coeffs, x)), Fraction(0))
        if r.rel == EQ:
            return lhs == r.rhs
        if r.rel == GE:
            return lhs >= r.rhs
        return lhs <= r.rhs
    return all(holds(r) for r in rows)


def reference_verify_witness(rows, y):
    if len(y) != len(rows):
        return False
    for r, yi in zip(rows, y):
        if r.rel == GE and yi < 0:
            return False
        if r.rel == LE and yi > 0:
            return False
    nvars = len(rows[0].coeffs) if rows else 0
    for j in range(nvars):
        if sum((yi * r.coeffs[j] for r, yi in zip(rows, y)), Fraction(0)) > 0:
            return False
    return sum((yi * r.rhs for r, yi in zip(rows, y)), Fraction(0)) > 0


def _mutations(v):
    """v with one entry zeroed, negated, or moved by +-1/7, for every entry."""
    for i, vi in enumerate(v):
        for new in (Fraction(0), -vi, vi + Fraction(1, 7), vi - Fraction(1, 7)):
            yield v[:i] + (new,) + v[i + 1:]


small_rational = st.one_of(small_int, small_fraction)
positive_fraction = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))


@given(st.integers(1, 4), st.data())
def test_integer_checks_agree_with_the_fraction_definitions(nvars, data):
    raw = data.draw(integer_rows(nvars, 6), label="rows")
    rows = [row(coeffs, rel, rhs) for coeffs, rel, rhs in raw]
    m = len(rows)
    ys = [tuple(data.draw(st.lists(small_rational, min_size=m, max_size=m), label="y")),
          (Fraction(0),) * m]
    xs = [tuple(data.draw(st.lists(small_rational, min_size=nvars, max_size=nvars), label="x")),
          (Fraction(0),) * nvars]
    result = solve_feasibility(rows, nvars)
    if result.feasible:
        xs += [result.point, *_mutations(result.point)]
    else:
        scale = data.draw(positive_fraction, label="scale")
        scaled = tuple(scale * v for v in result.witness)
        assert verify_witness(rows, scaled)
        ys += [result.witness, scaled, *_mutations(result.witness)]
    for y in ys:
        assert verify_witness(rows, y) == reference_verify_witness(rows, y), y
    for x in xs:
        assert satisfies(rows, x) == reference_satisfies(rows, x), x


def test_integer_check_agrees_on_every_norm_family_witness(monkeypatch):
    # All 690 (-2,5,q) witnesses, q odd in [9,99], each with every
    # single-entry mutation.
    solved = []

    def recording(rows, nvars):
        result = solve_feasibility(rows, nvars)
        solved.append((rows, result.witness))
        return result

    monkeypatch.setattr(linprog, "solve_feasibility", recording)
    for q in range(9, 100, 2):
        cyclic_infeasibility_minus2_5_q(q)
    assert len(solved) == 690
    accepted = 0
    for rows, witness in solved:
        for y in (witness, *_mutations(witness)):
            verdict = verify_witness(rows, y)
            assert verdict == reference_verify_witness(rows, y), y
            accepted += verdict
    assert accepted > 690
