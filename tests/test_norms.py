import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery import linprog
from pretzel_surgery.norms import (NormSystem, cyclic_infeasibility_minus2_5_q,
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
    tampered = replace(bad, witness=tuple(w + 1 for w in bad.witness))
    broken = replace(report, verdicts=(tampered, *report.verdicts[1:]))
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

