from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery import linprog
from pretzel_surgery.linprog import (EQ, GE, LinearRow, row, satisfies, solve_feasibility,
                                     verify_witness)
from pretzel_surgery.norms import cyclic_infeasibility_minus2_5_q


def test_feasible_system_returns_exact_point():
    rows = [
        row([1, 1], GE, 2),
        row([-1, 1], GE, 0),
        row([2, 1], EQ, 5),
    ]
    result = solve_feasibility(rows, 2)
    assert result.feasible
    assert satisfies(rows, result.point)


def test_infeasible_system_returns_verified_witness():
    rows = [
        row([-1, -1], GE, 0),
        row([1, 0], GE, 2),
    ]
    result = solve_feasibility(rows, 2)
    assert not result.feasible
    assert verify_witness(rows, result.witness)


def test_rows_outside_the_norm_models_shape_are_refused():
    # The norm model builds = and >= rows with a right-hand side >= 0, and the
    # solver takes nothing else.  x + y <= 2 is spelled here as a <= row and
    # as a >= row with a negative right-hand side; with x >= 3 it is infeasible.
    with pytest.raises(ValueError):
        row([1, 1], "LE", 2)
    with pytest.raises(ValueError):
        row([-1, -1], GE, -1)
    F, x_at_least_3 = Fraction, row([1, 0], GE, 3)
    for bad, y in [(LinearRow((1, 1), "LE", 2), (F(-1), F(1))),
                   (LinearRow((-1, -1), GE, -2), (F(1), F(1)))]:
        with pytest.raises(ValueError):
            solve_feasibility([bad, x_at_least_3], 2)
        # (1, 1) meets x + y <= 2 and y refutes the pair, but not in this shape.
        assert not satisfies([bad], (F(1), F(1)))
        assert not verify_witness([bad, x_at_least_3], y)
    # A <= row cannot pass as =: the same point and witness hold for x + y = 2.
    assert satisfies([row([1, 1], EQ, 2)], (F(1), F(1)))
    assert verify_witness([row([1, 1], EQ, 2), x_at_least_3], (F(-1), F(1)))


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
                  st.sampled_from([EQ, GE]), st.integers(0, 6)),
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
    rows = [row([2, -3, -1], EQ, 0), row([-1, -1, 1], GE, 0)]
    result = solve_feasibility(rows + [row([1, 0, 0], GE, 1)], 3)
    assert result.feasible
    scale = Fraction(na, nb)
    scaled = tuple(scale * v for v in result.point)
    assert satisfies(rows, scaled)


# The Fraction definitions the integer checks replace, kept as references.

def reference_satisfies(rows, x):
    if any(len(r.coeffs) != len(x) for r in rows) or any(v < 0 for v in x):
        return False

    def holds(r):
        lhs = sum((c * v for c, v in zip(r.coeffs, x)), Fraction(0))
        return lhs == r.rhs if r.rel == EQ else lhs >= r.rhs
    return all(holds(r) for r in rows)


def reference_verify_witness(rows, y):
    if len(y) != len(rows) or len({len(r.coeffs) for r in rows}) > 1:
        return False
    for r, yi in zip(rows, y):
        if r.rel == GE and yi < 0:
            return False
    nvars = len(rows[0].coeffs) if rows else 0
    for j in range(nvars):
        if sum((yi * r.coeffs[j] for r, yi in zip(rows, y)), Fraction(0)) > 0:
            return False
    return sum((yi * r.rhs for r, yi in zip(rows, y)), Fraction(0)) > 0


def test_rechecks_test_the_whole_system():
    F = Fraction
    probes = [
        (satisfies, reference_satisfies, [row([1, 1], GE, 2)], (F(2),)),  # too short
        # too long, with a negative entry although x >= 0 is part of the system
        (satisfies, reference_satisfies, [row([1], GE, 2)], (F(2), F(-7))),
        (satisfies, reference_satisfies, [row([-1], GE, 0)], (F(-3),)),
        # the second column, hidden by the first row's width
        (verify_witness, reference_verify_witness,
         [row([-1], GE, 1), row([0, -5], GE, 0)], (F(1), F(0))),
        # a later row narrower than the first
        (verify_witness, reference_verify_witness,
         [row([0, -5], GE, 0), row([-1], GE, 1)], (F(0), F(1))),
    ]
    for check, reference, rows, v in probes:
        assert (check(rows, v), reference(rows, v)) == (False, False), (rows, v)


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
    x = tuple(data.draw(st.lists(small_rational, min_size=nvars, max_size=nvars), label="x"))
    xs = [x, x[:-1], (*x, Fraction(0)), (Fraction(0),) * nvars]
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


def reference_phase_one(rows, nvars):
    """Phase one on a Fraction tableau with ordinary division: the same start
    (a -1 surplus column per GE row, then a unit artificial column per row, in
    row order, the artificials as basis), Bland's entering rule and the same
    ratio-test tie-break as solve_feasibility.  Returns (feasible, point or witness)."""
    m = len(rows)
    surplus = {i: nvars + k for k, i in enumerate(i for i, r in enumerate(rows) if r.rel == GE)}
    first_art = nvars + len(surplus)
    ncols = first_art + m
    T = []
    for i, r in enumerate(rows):
        t = [Fraction(c) for c in r.coeffs] + [Fraction(0)] * (ncols - nvars) + [Fraction(r.rhs)]
        if i in surplus:
            t[surplus[i]] = Fraction(-1)
        t[first_art + i] = Fraction(1)
        T.append(t)
    basis = list(range(first_art, ncols))
    # Reduced costs of min(sum of artificials), with -w in the last column.
    obj = [-sum((t[j] for t in T), Fraction(0)) for j in range(ncols + 1)]
    for j in range(first_art, ncols):
        obj[j] += 1
    T.append(obj)
    while True:
        enter = next((j for j in range(first_art) if T[m][j] < 0), None)
        if enter is None:
            break
        leave = min((i for i in range(m) if T[i][enter] > 0),
                    key=lambda i: (T[i][ncols] / T[i][enter], basis[i]))
        prow = [v / T[leave][enter] for v in T[leave]]
        T = [prow if i == leave else [v - t[enter] * w for v, w in zip(t, prow)]
             for i, t in enumerate(T)]
        basis[leave] = enter
    if T[m][ncols] == 0:
        x = [Fraction(0)] * nvars
        for i, b in enumerate(basis):
            if b < nvars:
                x[b] = T[i][ncols]
        return True, tuple(x)
    return False, tuple(1 - T[m][first_art + i] for i in range(m))


@given(st.integers(1, 4), st.data())
def test_integer_pivots_follow_the_fraction_simplex(nvars, data):
    # The integer tableau is the Fraction tableau times d at every step, so
    # both take the same pivots and return the same vector.  This stands in
    # for a per-pivot check that each division by d is exact.
    raw = data.draw(integer_rows(nvars, 6), label="rows")
    rows = [row(coeffs, rel, rhs) for coeffs, rel, rhs in raw]
    result = solve_feasibility(rows, nvars)
    vector = result.point if result.feasible else result.witness
    assert (result.feasible, vector) == reference_phase_one(rows, nvars)


def degenerate_rows(nvars, max_size):
    """Up to max_size rows drawn, with repeats, from a few rows whose
    right-hand sides are mostly 0: the ratio test ties and entering columns
    hold zeros."""
    base = st.tuples(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars),
                     st.sampled_from([EQ, GE]), st.sampled_from([0, 0, 0, 1, 2]))
    return st.lists(base, min_size=1, max_size=4).flatmap(
        lambda drawn: st.lists(st.sampled_from(drawn), min_size=1, max_size=max_size))


@given(st.integers(1, 7), st.data())
def test_degenerate_pivots_follow_the_fraction_simplex(nvars, data):
    # A row with a 0 in the entering column keeps its entries and determinant,
    # so it goes stale; ties send Bland's rule to the lower basis number.
    raw = data.draw(degenerate_rows(nvars, 7), label="rows")
    rows = [row(coeffs, rel, rhs) for coeffs, rel, rhs in raw]
    result = solve_feasibility(rows, nvars)
    vector = result.point if result.feasible else result.witness
    assert (result.feasible, vector) == reference_phase_one(rows, nvars)


def test_a_stale_pivot_row_is_brought_to_the_current_determinant():
    # 2x - y >= 0, y >= 1.  Bland enters x first; the pivot on row 0 leaves
    # row 1 (0 in x's column) at determinant 1 while d becomes 2, and y then
    # enters on row 1, so the pivot row is stale.  Found by a search over
    # random systems with entries in [-2, 2] and right-hand sides in [0, 3],
    # smallest first, for one where a copy of the solver that skips the
    # stale-row scaling returns another vector.
    rows = [row([2, -1], GE, 0), row([0, 1], GE, 1)]
    result = solve_feasibility(rows, 2)
    assert result == linprog.FeasibilityResult(True, point=(Fraction(1, 2), Fraction(1)))
    assert (result.feasible, result.point) == reference_phase_one(rows, 2)
