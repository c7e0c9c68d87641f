import hashlib
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery import linprog
from pretzel_surgery.linprog import EQ, GE
from pretzel_surgery.norms import (NormSystem, _pair_systems, cyclic_infeasibility_minus2_5_q,
                                   minus2_5q_norm_system, norm_coefficients,
                                   verify_infeasibility_report)
from pretzel_surgery.slopes import MERIDIAN, make_slope


def test_norm_form_at_meridian_q9():
    boundary = minus2_5q_norm_system(9).boundary
    coeffs = norm_coefficients(boundary, MERIDIAN)
    assert coeffs == (2, 2, 2, 6, 2, 2)


def test_norm_form_at_candidate_q9():
    boundary = minus2_5q_norm_system(9).boundary
    coeffs = norm_coefficients(boundary, make_slope(23, 1))
    assert coeffs == (46, 18, 16, 4, 10, 14)


def test_norm_form_vanishes_on_own_boundary_slope():
    boundary = minus2_5q_norm_system(9).boundary
    coeffs = norm_coefficients(boundary, boundary[0])
    assert coeffs[0] == 0


@given(st.integers(0, 20))
def test_norm_coefficients_always_even(n):
    boundary = minus2_5q_norm_system(9).boundary
    coeffs = norm_coefficients(boundary, make_slope(2 * n + 1, 2))
    assert all(c % 2 == 0 for c in coeffs)


@pytest.mark.parametrize("q", range(9, 52, 2))
def test_displayed_coefficient_identities(q):
    boundary = minus2_5q_norm_system(q).boundary
    steep = make_slope(q * q - q - 5, (q - 3) // 2)
    idx = boundary.index(steep)
    c_mu = norm_coefficients(boundary, MERIDIAN)
    c_odd = norm_coefficients(boundary, make_slope(2 * q + 5, 1))
    c_even = norm_coefficients(boundary, make_slope(2 * q + 4, 1))
    assert c_mu[idx] == 2 * ((q - 3) // 2)
    assert c_odd[idx] == 2 * ((q - 5) // 2)
    assert c_even[idx] == 2


def test_infeasibility_q9_all_pairs():
    report = cyclic_infeasibility_minus2_5_q(9)
    assert report.infeasible_for_all_pairs
    assert len(report.verdicts) == 15
    assert verify_infeasibility_report(report)


def test_infeasibility_uniform_in_q():
    report = cyclic_infeasibility_minus2_5_q(99)
    assert report.infeasible_for_all_pairs
    assert verify_infeasibility_report(report)


def test_witnesses_pinned_for_the_whole_family():
    # Every Farkas witness for odd q in 9..99 (690 LPs).  Bland's rule fixes
    # one pivot path per LP, so a solver that strays from it changes the digest.
    lines = []
    for q in range(9, 100, 2):
        report = cyclic_infeasibility_minus2_5_q(q)
        pairs = combinations(range(len(report.system.boundary)), 2)
        for (i, j), v in zip(pairs, report.verdicts, strict=True):
            lines.append(f"{q} {i},{j} " + ",".join(str(w) for w in v.witness))
    assert len(lines) == 690
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "572bafb61c34e6b00d9ed7e6825282cf88791bdf2547a63ddbaed283a1057058"


@pytest.mark.parametrize("q", [7, 8, 5])
def test_infeasibility_rejects_small_or_even_q(q):
    with pytest.raises(ValueError):
        cyclic_infeasibility_minus2_5_q(q)


def test_tampered_witness_fails_verification():
    report = cyclic_infeasibility_minus2_5_q(9)
    bad = report.verdicts[0]
    tampered = bad._replace(witness=tuple(w + 1 for w in bad.witness))
    broken = report._replace(verdicts=(tampered, *report.verdicts[1:]))
    assert not verify_infeasibility_report(broken)


def test_norm_system_without_pair_constraints_has_scalable_ray():
    # Dropping the minimality constraints leaves a feasible homogeneous cone.
    system = NormSystem(minus2_5q_norm_system(9).boundary)
    system.add(MERIDIAN, linprog.EQ)
    rows = [r for _, r in system.constraints]
    unit = [0] * system.nvars
    unit[0] = 1
    result = linprog.solve_feasibility(rows + [linprog.row(unit, linprog.GE, 1)],
                                       system.nvars)
    assert result.feasible
    for scale in (Fraction(1, 7), 3, Fraction(22, 5)):
        scaled = tuple(scale * v for v in result.point)
        assert linprog.satisfies(rows, scaled)



def _at(a, b):
    """a*q + b at q = 9 + 2t, as coefficients in t, lowest first."""
    return [9 * a + b, 2 * a]


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _plus(f, g):
    return [x + y for x, y in zip_longest(f, g, fillvalue=0)]


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _fitted(values):
    """(a, b, c, d) with (aq + b)/(cq + d) equal to values[q] at q = 9, 11, 13,
    in lowest terms with 9c + d > 0: the null vector of the rows
    (q, 1, -wq, -w), by signed 3x3 minors; a constant when they all vanish."""
    rows = [(q, 1, -w * q, -w) for q, w in values.items()]
    x = [(-1) ** j * _det3([r[:j] + r[j + 1:] for r in rows]) for j in range(4)]
    if not any(x):
        w = values[9]
        return 0, w.numerator, 0, w.denominator
    x = [v * lcm(*(u.denominator for u in x)) for v in x]
    g = gcd(*(int(v) for v in x)) * (1 if 9 * x[2] + x[3] > 0 else -1)
    return tuple(int(v) // g for v in x)


def test_the_farkas_witnesses_hold_for_every_odd_q():
    """The (-2,5,q) norm model is infeasible on every pair, for every odd q >= 9.

    For odd q >= 9, steep(q) = (q^2-q-5)/((q-3)/2) = 2q+4 + 2/(q-3) lies
    strictly between 15 and 2q+10, so the boundary order is [0, 14, 15,
    steep(q), 2q+10, 2q+12], and the rows |mu| - S, |2q+5| - S and
    |2q+4| - S (twice the distances to each slope, then -1 for S) are
    [2, 2, 2, q-3, 2, 2, -1], [4q+10, 4q-18, 4q-20, q-5, 10, 14, -1] and
    [4q+8, 4q-20, 4q-22, 2, 12, 16, -1]: the distance from a/1 to a slope
    c/d is |ad - c| (from the meridian 1/0, d), linear in q with a fixed sign
    across the family.  A pair (i, j) adds S >= 1, a_i >= 1 and a_j >= 1.

    Each entry of the solver's witness on a pair is a ratio (aq+b)/(cq+d) of
    linear polynomials, fitted from q = 9, 11, 13.  Put q = 9 + 2t and
    multiply each Farkas condition by the product of the denominators, each
    positive (c >= 0 and 9c + d > 0); every condition becomes a polynomial
    in t whose coefficients all have the needed sign: >= 0 on the entries of
    the >= rows, <= 0 on every column sum, and >= 0 with a positive constant
    on y.b.  So every fitted witness is a Farkas witness for every t >= 0, no
    pair is feasible and seminorm_infeasibility eliminates 2q+5 on every
    (-2,5,q) knot with q >= 9.  The fit reproduces every solver witness on
    [9, 99], and the rows are checked against the code there and at two large q.
    """
    def rows(q):
        return [(2, 2, 2, q - 3, 2, 2, -1),
                (4 * q + 10, 4 * q - 18, 4 * q - 20, q - 5, 10, 14, -1),
                (4 * q + 8, 4 * q - 20, 4 * q - 22, 2, 12, 16, -1)]

    def unit(k):
        return tuple(int(i == k) for i in range(7))

    pairs = list(combinations(range(6), 2))
    for q in [*range(9, 100, 2), 1001, 10**9 + 7]:
        _, built = _pair_systems(q)
        assert list(built) == pairs
        for (i, j), made in built.items():
            assert [(r.coeffs, r.rel, r.rhs) for r in made] == [
                *((c, rel, 0) for c, rel in zip(rows(q), (EQ, EQ, GE))),
                *((unit(k), GE, 1) for k in (6, i, j))]
    solved = {q: cyclic_infeasibility_minus2_5_q(q).verdicts for q in range(9, 100, 2)}
    # The entries of the three norm rows as polynomials in t: rows(q) is linear in q.
    norm_rows = [[_at(a1 - a0, a0) for a1, a0 in zip(r1, r0)] for r1, r0 in zip(rows(1), rows(0))]
    for k, (i, j) in enumerate(pairs):
        family = [_fitted({q: solved[q][k].witness[m] for q in (9, 11, 13)}) for m in range(6)]
        for q, verdicts in solved.items():
            assert verdicts[k].witness == tuple(Fraction(a * q + b, c * q + d)
                                                for a, b, c, d in family), (q, i, j)
        assert all(c >= 0 and 9 * c + d > 0 for _, _, c, d in family)
        nums, dens = [_at(a, b) for a, b, _, _ in family], [_at(c, d) for _, _, c, d in family]
        cleared = []  # y_m times the product of the denominators
        for m in range(6):
            cleared.append(nums[m])
            for den in dens[:m] + dens[m + 1:]:
                cleared[m] = _times(cleared[m], den)
        matrix = [*norm_rows, *([[int(col == u)] for col in range(7)] for u in (6, i, j))]
        assert all(c >= 0 for m in (2, 3, 4, 5) for c in nums[m]), (i, j)
        for col in range(7):
            total = [0]
            for m in range(6):
                total = _plus(total, _times(cleared[m], matrix[m][col]))
            assert all(c <= 0 for c in total), (i, j, col)
        rhs = _plus(_plus(cleared[3], cleared[4]), cleared[5])
        assert rhs[0] > 0 and all(c >= 0 for c in rhs), (i, j)
