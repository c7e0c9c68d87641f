import copy
import hashlib
import importlib
import json
import pickle
import sys
from fractions import Fraction
from math import gcd
from types import ModuleType

import pytest

import pretzel_surgery.classify as classify_module
import pretzel_surgery.knots as knots_module
from pretzel_surgery import facts
from pretzel_surgery.classify import (CYCLIC, FINITE_Q, NONE, REALIZED, RULES, STATUS_ELIMINATED,
                                      TORUS_INFINITE, UNRESOLVED, Certificate, Rule,
                                      classify_cyclic, classify_finite, conclude,
                                      emit_certificate, quotient_certified_infinite)
from pretzel_surgery.cli import main
from pretzel_surgery.coxeter import INFINITE, CoxeterSignature, edjvet_verdict
from pretzel_surgery.knots import (FamilyTag, KnotFamily, PretzelKnot, canonicalize,
                                   enumerate_canonical, family, triangle_slack)
from pretzel_surgery.replay import replay_certificate
from pretzel_surgery.slopes import ratio_text
from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite
from pretzel_surgery.triangle import irreducible_char_count
from schema import validate_certificate_json


def _slope_map(cert):
    return {ratio_text(a, b): (status, rule) for a, b, status, rule in cert.slopes}


# -- cyclic ------------------------------------------------------------------


def test_cyclic_minus2_3_7():
    cert = classify_cyclic(canonicalize(-2, 3, 7))
    assert cert.verdict == REALIZED
    assert cert.realized == (18, 19)


def test_cyclic_minus2_5_9_uses_distance_and_norm():
    cert = classify_cyclic(canonicalize(-2, 5, 9))
    assert cert.verdict == NONE
    statuses = _slope_map(cert)
    assert statuses["22"][1].startswith("lens_toroidal_distance")
    assert statuses["23"][1].startswith("seminorm_infeasibility")


def test_submodule_names_are_modules():
    assert isinstance(classify_module, ModuleType)
    assert importlib.import_module("pretzel_surgery.classify") is classify_module


def test_cyclic_refuses_a_feasible_norm_report(feasible_norm_model):
    with pytest.raises(ArithmeticError, match=r"feasible at pair \(0, 1\)"):
        classify_cyclic(canonicalize(-2, 5, 9))


def test_cyclic_minus2_5_7_uses_external_fact():
    cert = classify_cyclic(canonicalize(-2, 5, 7))
    assert cert.verdict == NONE
    assert _slope_map(cert)["19"][1].startswith("snappea_hyperbolic")


def test_cyclic_minus2_5_5_has_no_candidates():
    cert = classify_cyclic(canonicalize(-2, 5, 5))
    assert cert.verdict == NONE
    assert not cert.slopes
    assert any(r.id == "no_nonintegral_slopes" for r in cert.rules)


def test_cyclic_large_p_distance_rule():
    cert = classify_cyclic(canonicalize(-2, 7, 11))
    assert cert.verdict == NONE
    statuses = _slope_map(cert)
    assert set(statuses) == {"18", "19", "26", "27"}
    # distance from 2q+5 = 27 to 2(p+q) = 36 is 2p-5 = 9 > 5
    rule = next(r for r in cert.rules if r.id == "lens_toroidal_distance:27")
    assert rule.inputs["distance"] == 9


def test_cyclic_torus_and_unclassified():
    assert classify_cyclic(canonicalize(-2, 3, 5)).verdict == TORUS_INFINITE
    assert classify_cyclic(canonicalize(-2, 1, 9)).verdict == TORUS_INFINITE
    assert classify_cyclic(canonicalize(1, 3, 4)).verdict == UNRESOLVED


def test_cyclic_outside_form_via_lamination():
    cert = classify_cyclic(canonicalize(-3, 3, 4))
    assert cert.verdict == NONE
    assert cert.rules[0].id == "lamination_form"


def test_cyclic_even_r_family_via_finite():
    cert = classify_cyclic(canonicalize(3, 5, -4))
    assert cert.verdict == NONE
    assert any(r.id == "cyclic_via_finite" for r in cert.rules)


def test_links_rejected():
    with pytest.raises(ValueError):
        classify_cyclic(canonicalize(-2, 4, 6))


# -- finite ------------------------------------------------------------------


def test_finite_minus2_3_7_and_9():
    cert = classify_finite(canonicalize(-2, 3, 7))
    assert cert.verdict == REALIZED and cert.realized == (17, 18, 19)
    cert = classify_finite(canonicalize(-2, 3, 9))
    assert cert.verdict == REALIZED and cert.realized == (22, 23)
    cert = classify_finite(canonicalize(-2, 3, 11))
    assert cert.verdict == NONE


def test_finite_minus2_p_geq_5_unresolved_not_cyclic():
    cert = classify_finite(canonicalize(-2, 5, 9))
    assert cert.verdict == UNRESOLVED
    assert any("not cyclic" in note for note in cert.annotations)


def test_finite_exceptional_knots_table_resolved():
    for triple in [(3, 3, -4), (3, 5, -4), (3, 3, -6)]:
        cert = classify_finite(canonicalize(*triple))
        assert cert.verdict == NONE
        assert cert.rules[0].id == "exceptional_knot_table"


def test_finite_large_p_gap_rule():
    cert = classify_finite(canonicalize(11, 13, -4))
    assert cert.verdict == NONE
    assert any(r.id == "toroidal_gap_large_p" for r in cert.rules)


def test_finite_small_p_gap_rule():
    cert = classify_finite(canonicalize(3, 9, -24))
    assert cert.verdict == NONE
    assert any(r.id == "toroidal_gap_small_p" for r in cert.rules)


def test_finite_boundary_case_p_equal_2r_plus_1():
    cert = classify_finite(canonicalize(9, 9, -4))
    assert cert.verdict == NONE
    statuses = _slope_map(cert)
    assert statuses["31"][1] == "coxeter_quotient_infinite:31"
    rule = next(r for r in cert.rules if r.id == "coxeter_quotient_infinite:31")
    assert rule.inputs["signature"] == [2, 9, 13, 2]


def test_finite_middle_window_uses_quotient_window():
    cert = classify_finite(canonicalize(7, 9, -6))
    assert cert.verdict == NONE
    assert any(r.id == "coxeter_distance_window" for r in cert.rules)


def test_finite_residual_window_table():
    cert = classify_finite(canonicalize(5, 7, -4))
    assert cert.verdict == NONE
    assert any(r.id == "residual_case_table" for r in cert.rules)


def test_finite_candidate_slopes():
    cert = classify_finite(canonicalize(9, 9, -4))
    assert [(a, status) for a, _, status, _ in cert.slopes] == [(31, "ELIMINATED")]


def test_finite_refuses_a_gap_below_eleven(monkeypatch, capsys):
    # A soundness guard, not an assert: it must survive ``python -O`` and
    # reach the CLI as an internal error (exit 1), not a usage error.
    # The knot is classified unpatched first, so the patch is seen only
    # because the kept last-knot run is cleared.
    k = canonicalize(11, 13, -4)
    assert classify_finite(k).verdict == NONE
    classify_finite.cache_clear()
    monkeypatch.setattr(classify_module, "toroidal_gap_pairs_large_p",
                        lambda p, q, r: ((21, 2), (12, 1)))
    with pytest.raises(ArithmeticError, match="gap < 11"):
        classify_finite(k)
    with pytest.raises(ArithmeticError, match="gap < 11"):
        classify_finite(k)  # a raise is not kept
    assert main(["classify", "--pretzel", "11,13,-4", "--question", "finite"]) == 1
    assert capsys.readouterr().err.startswith("internal error: ")


def test_quotient_oracle_abstains_on_collapse_corner():
    # (2,3,21;2) and (2,3,17;3) are INFINITE in the quoted table, yet sit in
    # the corner a = 3, c <= 3 where the oracle abstains.
    for abc, certified in [((3, 21, 2), False), ((3, 17, 3), False), ((9, 13, 2), True),
                           ((3, 7, 6), False)]:
        sig = CoxeterSignature(*abc)
        assert quotient_certified_infinite(sig, edjvet_verdict(sig).status) == certified, abc
    assert edjvet_verdict(CoxeterSignature(3, 21, 2)).status == INFINITE
    assert edjvet_verdict(CoxeterSignature(3, 17, 3)).status == INFINITE


def test_parity_split_is_exclusive():
    # No even-numerator slope may be eliminated by anything but the parity
    # rule; the pipelines only ever list odd candidates individually.
    for triple in [(9, 9, -4), (5, 7, -4), (3, 9, -6), (13, 15, -8)]:
        cert = classify_finite(canonicalize(*triple))
        for a, _, status, _ in cert.slopes:
            if status == "ELIMINATED":
                assert a % 2 == 1


def _family_off_the_table(p_max, q_max, r_max):
    """The (p,q,-r) family triples (p, q, r) up to the bounds, off facts.EXCEPTIONAL_PQR."""
    return [(p, q, r) for p in range(3, p_max + 1, 2) for q in range(p, q_max + 1, 2)
            for r in range(4, r_max + 1, 2) if (p, q, r) not in facts.EXCEPTIONAL_PQR]


def test_strict_triangle_holds_on_the_whole_family():
    """triangle_slack(p, q, m) = pqm - qm - pm - pq, m = r/2, grows in each
    argument on p, q >= 3, m >= 2: a unit step in p adds (q-1)(m-1) - 1 >= 1,
    in q adds (p-1)(m-1) - 1 >= 1 and in m adds (p-1)(q-1) - 1 >= 3.  Every
    family triple off the exceptional table is at least one of the corners
    (3,7,4), (5,5,4), (3,5,6), (3,3,8) in each coordinate (r >= 8; r = 6 and
    q >= 5; r = 4 and p >= 5; r = 4, p = 3 and q >= 7), and the slack there is
    1, 5, 6 and 3.  So the slack is positive on the whole family: the three
    norm rules that record nothing hold wherever the pipeline records them,
    and so does even_numerator_infinite's infinite triangle group (``>= 0``).
    """
    corners = [(3, 7, 4), (5, 5, 4), (3, 5, 6), (3, 3, 8)]
    assert [triangle_slack(p, q, r // 2) for p, q, r in corners] == [1, 5, 6, 3]
    for p in range(3, 42):
        for q in range(3, 42):
            for m in range(2, 42):
                slack = triangle_slack(p, q, m)
                assert triangle_slack(p + 1, q, m) - slack == (q - 1) * (m - 1) - 1 >= 1
                assert triangle_slack(p, q + 1, m) - slack == (p - 1) * (m - 1) - 1 >= 1
                assert triangle_slack(p, q, m + 1) - slack == (p - 1) * (q - 1) - 1 >= 3
    for p, q, r in _family_off_the_table(41, 41, 42):
        assert any(p >= a and q >= b and r >= c for a, b, c in corners), (p, q, r)
    for p, q, r in _family_off_the_table(99, 99, 100):
        assert triangle_slack(p, q, r // 2) > 0, (p, q, r)


def test_even_norm_floor_holds_on_the_whole_family():
    """irreducible_char_count(p, q, m) >= 3 for odd 3 <= p <= q and m = r/2 >= 2
    off the exceptional table.

    For odd p and q, ``triangle._counts`` is exact in closed form.  Its two
    products share (p-1)/2 * (q-1)/2, and their m factors, m - m//2 - 1 and
    m//2, add up to m - 1 for either parity of m.  The gcds g, h, k of (p,q),
    (p,m), (q,m) and b = gcd(pq, pm, qm) are odd, as is gcd(p,q,m), so
    4 * irreducible = (p-1)(q-1)(m-1) + 2(g + h + k - b - 2).  Since b divides
    pq and pm, b <= p * min(q,m), and g + h + k >= 3, so
    4 * irreducible - 12 >= F = (p-1)(q-1)(m-1) - 2p * min(q,m) - 10.

    F does not fall along a step inside the family, save m = 2 -> 3 at
    p = q = 3: p -> p+2 (q >= p+2) adds 2((q-1)(m-1) - 2 min(q,m)); q -> q+2
    adds 2(p-1)(m-1) - 2p(min(q+2,m) - min(q,m)); m -> m+1 adds
    (p-1)(q-1) - 2p when m < q, else (p-1)(q-1).  A triple outside the head
    p <= 7, q <= 11, m <= 7 (r <= 14) is reached from (9,9,2), (3,13,2) or
    (3,3,8), where F is 18, 2 and 0, by raising q, then p, then m.  The head
    is checked directly.
    """
    def f(p, q, m):
        return (p - 1) * (q - 1) * (m - 1) - 2 * p * min(q, m) - 10

    assert [f(9, 9, 2), f(3, 13, 2), f(3, 3, 8)] == [18, 2, 0]
    for p in range(3, 42, 2):
        for q in range(p, 42, 2):
            for m in range(2, 42):
                g, h, k = gcd(p, q), gcd(p, m), gcd(q, m)
                b = gcd(p * q, p * m, q * m)
                assert 4 * irreducible_char_count(p, q, m) == \
                    (p - 1) * (q - 1) * (m - 1) + 2 * (g + h + k - b - 2), (p, q, m)
                assert (p * q) % b == (p * m) % b == 0 and b <= p * min(q, m)
                assert f(p, q + 2, m) >= f(p, q, m)
                assert q < p + 2 or f(p + 2, q, m) >= f(p, q, m)
                assert (p, q, m) == (3, 3, 2) or f(p, q, m + 1) >= f(p, q, m)
    head = _family_off_the_table(7, 11, 14)
    assert min(irreducible_char_count(p, q, r // 2) for p, q, r in head) == 3
    for p, q, r in _family_off_the_table(99, 99, 100):
        assert irreducible_char_count(p, q, r // 2) >= 3, (p, q, r)


def test_the_rows_with_no_premise_are_the_opening_and_norm_rows():
    # These rows hold wherever a pipeline reaches them, so the pipelines record
    # them directly.  A pipeline that applied one would raise TypeError, which
    # replay does not catch.
    opening = ("torus_pretzel", "unclassified_indices", "lamination_form")
    norm = ("even_numerator_infinite", "denominator_bound", "even_norm_floor",
            "half_integral_excluded", "odd_uniqueness")
    unconditional = {(question, key) for question, rows in RULES.items()
                     for key, row in rows.items() if row.premise is None}
    assert unconditional == {*((question, key) for question in RULES for key in opening),
                             *((FINITE_Q, key) for key in norm)}
    assert len({key for _, key in unconditional}) == 8
    for question, key in unconditional:
        with pytest.raises(TypeError):
            classify_module._apply([], question, key, 7, 9, 10)


# -- certificates ------------------------------------------------------------


def test_certificate_json_round_trip_and_schema():
    for cert in [classify_cyclic(canonicalize(-2, 3, 7)),
                 classify_finite(canonicalize(5, 7, -4)),
                 classify_cyclic(canonicalize(-2, 5, 9))]:
        blob = emit_certificate(cert, "json")
        parsed = json.loads(blob)
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == blob
        assert validate_certificate_json(parsed) == []


def test_certificate_text_contains_citations_when_asked():
    cert = classify_cyclic(canonicalize(-2, 5, 9))
    text = emit_certificate(cert, "text", cite=True)
    assert "cite:" in text
    assert emit_certificate(cert, "text").count("cite:") == 0


def test_certificate_rule_order_stable():
    first = emit_certificate(classify_finite(canonicalize(5, 7, -4)), "json")
    second = emit_certificate(classify_finite(canonicalize(5, 7, -4)), "json")
    assert first == second


def test_replay_accepts_genuine_and_rejects_tampered():
    cert = classify_finite(canonicalize(9, 9, -4))
    assert replay_certificate(cert)
    bad = next(r for r in cert.rules if r.id.startswith("coxeter_quotient_infinite"))
    assert not replay_certificate(_edit_rule(bad.id, signature=[2, 3, 7, 6])(cert))


# Each forgery builds a new certificate with _replace: a certificate is an
# immutable record.

def _add_rule(rule_id, inputs):
    def forge(cert):
        return cert._replace(rules=(*cert.rules, Rule(rule_id, inputs)))
    return forge


def _edit_rule(rule_id, **changes):
    def forge(cert):
        i = next(i for i, r in enumerate(cert.rules) if r.id == rule_id)
        rule = cert.rules[i]._replace(inputs={**cert.rules[i].inputs, **changes})
        return cert._replace(rules=(*cert.rules[:i], rule, *cert.rules[i + 1:]))
    return forge


def _recorded(cert, rule_id):
    return next(r for r in cert.rules if r.id.split(":")[0] == rule_id)


def _copy_rule(rule_id, inputs):
    # A rule of another knot: the certificate's rule of that id takes its
    # inputs (the same rule records the same keys on every knot), and a rule
    # the certificate lacks is appended.
    def forge(cert):
        if any(r.id == rule_id for r in cert.rules):
            return _edit_rule(rule_id, **inputs)(cert)
        return _add_rule(rule_id, inputs)(cert)
    return forge


def _drop_rule(rule_id):
    def forge(cert):
        return cert._replace(rules=tuple(r for r in cert.rules if r.id != rule_id))
    return forge


def _cut_after(rule_id):
    # Keep the chain up to rule_id.
    def forge(cert):
        i = next(i for i, r in enumerate(cert.rules) if r.id == rule_id)
        return cert._replace(rules=cert.rules[:i + 1])
    return forge


def _respell(rule_id, new_id):
    # Rename a per-slope rule; the emitted conclusion and slope mark follow the id.
    def forge(cert):
        i = next(i for i, r in enumerate(cert.rules) if r.id == rule_id)
        return cert._replace(rules=(*cert.rules[:i], cert.rules[i]._replace(id=new_id),
                                    *cert.rules[i + 1:]))
    return forge


def _rechain(rule_id, chain):
    # Rebuild the chain around the rule rule_id: chain(before, rule, after)
    # gives the new one.
    def forge(cert):
        i = next(i for i, r in enumerate(cert.rules) if r.id == rule_id)
        return cert._replace(rules=tuple(chain(cert.rules[:i], cert.rules[i],
                                               cert.rules[i + 1:])))
    return forge


def _replace_by(rule_id, new_id, inputs):
    return _rechain(rule_id, lambda before, rule, after: (*before, Rule(new_id, inputs), *after))


def _reconcluded(*forges):
    # Apply the forges in turn, then store the realized slopes and verdict the
    # forged chain implies, so that only its premises can reject it.
    def forge(cert):
        for edit in forges:
            cert = edit(cert)
        _, realized, verdict = conclude(cert.rules)
        return cert._replace(verdict=verdict, realized=realized)
    return forge


SLOPE_RESPELLINGS = {"leading_zero": "043", "arabic_indic_digits": "\u0664\u0663"}


def _set(**fields):
    def forge(cert):
        return cert._replace(**fields)
    return forge


# The rows that record the same inputs on every knot that records them, each
# with a knot whose certificate records it.
SHARED_ROWS = [
    ("torus_pretzel", classify_cyclic, (-2, 3, 5)),
    ("unclassified_indices", classify_finite, (-1, 3, 5)),
    ("lamination_form", classify_cyclic, (-3, 3, 5)),
    *((key, classify_finite, (7, 9, -10))
      for key in ("denominator_bound", "half_integral_excluded", "odd_uniqueness")),
    ("cyclic_via_finite", classify_cyclic, (7, 9, -10)),
]


# Rules that record knot parameters, each with two knots where it applies.
# The last cases forge a certificate of the source knot instead: the target
# is then the forging function.
COPIED_RULES = [
    ("toroidal_gap_large_p", classify_finite, (11, 13, -4), (11, 15, -4)),
    ("toroidal_gap_small_p", classify_finite, (3, 5, -8), (3, 5, -10)),
    ("coxeter_distance_window", classify_finite, (5, 5, -4), (5, 7, -4)),
    ("residual_case_table", classify_finite, (3, 5, -6), (3, 9, -4)),
    ("even_numerator_infinite", classify_finite, (3, 3, -8), (3, 3, -10)),
    ("even_norm_floor", classify_finite, (3, 3, -8), (3, 3, -10)),
    ("exceptional_knot_table", classify_finite, (3, 3, -4), (3, 3, -6)),
    ("not_cyclic_annotation", classify_finite, (-2, 5, 9), (-2, 5, 11)),
    ("published_minus2_3_cyclic", classify_cyclic, (-2, 3, 7), (-2, 3, 9)),
    ("published_minus2_3_finite", classify_finite, (-2, 3, 7), (-2, 3, 9)),
    ("seminorm_infeasibility", classify_cyclic, (-2, 5, 9), (-2, 5, 11)),
    ("coxeter_signature_of_another_knot", classify_finite, (3, 5, -6),
     _add_rule("coxeter_quotient_infinite:1", {"slope": 1, "signature": [2, 9, 13, 2]})),
    ("toroidal_of_another_knot", classify_finite, (7, 9, -10),
     _edit_rule("exceptional_distance:43", toroidal="28")),
    ("verdict_flipped", classify_finite, (-2, 5, 9), _set(verdict=NONE)),
    ("realized_slope_dropped", classify_cyclic, (-2, 3, 7), _set(realized=(18,))),
    ("residual_survivors_forged", classify_finite, (3, 5, -6),
     _edit_rule("residual_case_table", survivors=[999])),
    ("residual_survivors_not_a_list", classify_finite, (3, 5, -6),
     _edit_rule("residual_case_table", survivors=5)),
    ("rule_of_another_family", classify_cyclic, (-2, 3, 11),
     _add_rule("cyclic_via_finite", {"finite_verdict": NONE})),
    ("proximity_candidate_dropped", classify_cyclic, (-2, 5, 9),
     _drop_rule("seminorm_infeasibility:23")),
    ("finite_window_candidate_dropped", classify_finite, (7, 9, -10),
     _drop_rule("exceptional_distance:43")),
    # A chain that settles no slope leaves the question open.
    ("chain_cut_after_the_norm_rules", classify_finite, (7, 9, -10),
     _cut_after("odd_uniqueness")),
    # A per-slope rule must eliminate an open slope: a true elimination of a
    # slope outside the window marks nothing.
    ("slope_outside_the_window_eliminated", classify_finite, (7, 9, -10),
     _add_rule("exceptional_distance:1001", {"slope": 1001, "toroidal": "32", "distance": 969})),
    # The slope of a per-slope rule id spelled another way.
    *((f"slope_spelled_with_{name}", classify_finite, (7, 9, -10),
       _respell("exceptional_distance:43", f"exceptional_distance:{u}"))
      for name, u in SLOPE_RESPELLINGS.items()),
    # Slopes within distance 9 of 2(p+q) that only the residual table settles:
    # without it they stay open.
    *((f"near_slope_left_open_without_the_residual_table_{q}", classify_finite, (5, q, -4),
       _drop_rule("residual_case_table")) for q in (5, 7, 9)),
    # A premise that fails returns None, so a rule recorded with None as its
    # inputs must not pass for a recorded one.
    ("lamination_form_with_no_inputs", classify_cyclic, (-1, 3, 5),
     _reconcluded(_add_rule("lamination_form", None))),
    ("torus_pretzel_with_no_inputs", classify_cyclic, (-1, 3, 5),
     _reconcluded(_add_rule("torus_pretzel", None))),
    ("lamination_form_with_no_inputs_after_the_published_list", classify_cyclic, (-2, 3, 7),
     _reconcluded(_add_rule("lamination_form", None))),
    ("toroidal_gap_small_p_with_no_inputs_for_an_elimination", classify_finite, (7, 9, -10),
     _reconcluded(_drop_rule("exceptional_distance:43"), _add_rule("toroidal_gap_small_p", None))),
    # A row that records the same inputs on every knot, recorded with other
    # ones.
    *((f"{key}_with_inputs", classifier, triple, _edit_rule(key, slope=1))
      for key, classifier, triple in SHARED_ROWS),
    # residual_case_table eliminates exactly the candidates still open, in order.
    *((f"residual_survivors_{name}", classify_finite, (3, 5, -6),
       _reconcluded(_edit_rule("residual_case_table", survivors=survivors)))
      for name, survivors in (("with_a_slope_added", [23, 1]), ("emptied", []))),
    # Sound but out of the one path through the case analysis: a chain that
    # is empty, repeats a rule, swaps or moves rules, leaves out a rule that
    # settles nothing, or applies a later alternative of a first-match choice.
    *((f"empty_chain_of_{name}", classifier, triple, _reconcluded(_set(rules=())))
      for name, classifier, triple in (("a_finite_window", classify_finite, (7, 9, -10)),
                                       ("a_proximity_window", classify_cyclic, (-2, 5, 9)),
                                       ("an_opening_row", classify_cyclic, (-3, 3, 5)))),
    ("denominator_bound_duplicated", classify_finite, (7, 9, -10),
     _reconcluded(_rechain("denominator_bound", lambda before, rule, after: (
         *before, rule, rule, *after)))),
    ("denominator_bound_swapped_with_even_norm_floor", classify_finite, (7, 9, -10),
     _reconcluded(_rechain("denominator_bound", lambda before, rule, after: (
         *before, after[0], rule, *after[1:])))),
    ("nonintegral_proximity_duplicated", classify_cyclic, (-2, 5, 9),
     _reconcluded(_rechain("nonintegral_proximity", lambda before, rule, after: (
         *before, rule, rule, *after)))),
    *((f"known_examples_{name}_{classifier.__name__}", classifier, (-2, 3, 7),
       _reconcluded(_rechain("known_examples", chain)))
      for name, chain in (("dropped", lambda before, rule, after: (*before, *after)),
                          ("moved_first", lambda before, rule, after: (rule, *before, *after)))
      for classifier in (classify_cyclic, classify_finite)),
    ("not_cyclic_annotation_dropped", classify_finite, (-2, 7, 9),
     _reconcluded(_drop_rule("not_cyclic_annotation"))),
    ("toroidal_gap_small_p_replaced_by_a_slope_elimination", classify_finite, (3, 5, -8),
     _reconcluded(_replace_by("toroidal_gap_small_p", "exceptional_distance:27",
                              classify_module.exceptional_distance(3, 5, 8, 27)))),
    ("exceptional_distance_replaced_by_the_quotient_rule", classify_finite, (7, 9, -10),
     _reconcluded(_replace_by("exceptional_distance:43", "coxeter_quotient_infinite:43",
                              classify_module.coxeter_quotient_infinite(7, 9, 10, 43)))),
    # A certificate of a knot moved onto a link, which classify refuses.
    *((f"{classifier.__name__}_moved_onto_the_link_{'_'.join(map(str, link))}", classifier,
       (-3, 3, 5), _set(knot=PretzelKnot(*link)))
      for link in ((2, 4, 5), (-4, 2, 6), (2, 2, 2)) for classifier in (classify_cyclic,
                                                                           classify_finite)),
]


@pytest.mark.parametrize("rule_id,classifier,source,target", COPIED_RULES,
                         ids=[case[0] for case in COPIED_RULES])
def test_replay_rejects_a_rule_copied_from_another_knot(rule_id, classifier, source,
                                                        target):
    if callable(target):
        cert, forge = classifier(canonicalize(*source)), target
    else:
        genuine = classifier(canonicalize(*source))
        assert replay_certificate(genuine)
        rule = _recorded(genuine, rule_id)
        cert = classifier(canonicalize(*target))
        assert _recorded(cert, rule_id).inputs != rule.inputs
        forge = _copy_rule(rule.id, rule.inputs)
    assert replay_certificate(cert)
    assert not replay_certificate(forge(cert))


# A certificate stores neither its data nor its slope marks: both are derived
# from the knot and the chain when read, so no forgery can set them, and an
# in-place edit changes a copy.
DERIVED_FIELDS = [
    ("toroidal_slope_forged", (7, 9, -10), "data", {"toroidal_slope": "999"}),
    ("nonintegral_slopes_junk", (7, 9, -10), "data",
     {"nonintegral_slopes": {"boundary_slopes": ["junk"]}}),
    ("residual_slope_added", (3, 5, -6), "slopes",
     [(23, 1, STATUS_ELIMINATED, "residual_case_table"),
      (1, 1, STATUS_ELIMINATED, "residual_case_table")]),
    ("slope_linked_to_another_slope", (7, 9, -10), "slopes",
     [(43, 1, STATUS_ELIMINATED, "exceptional_distance:43"),
      (1001, 1, STATUS_ELIMINATED, "exceptional_distance:43")]),
]


@pytest.mark.parametrize("triple,field,forged", [case[1:] for case in DERIVED_FIELDS],
                         ids=[case[0] for case in DERIVED_FIELDS])
def test_a_derived_field_cannot_be_set(triple, field, forged):
    cert = classify_finite(canonicalize(*triple))
    genuine = emit_certificate(cert)
    with pytest.raises(ValueError, match="unexpected field"):
        cert._replace(**{field: forged})
    with pytest.raises(AttributeError):
        setattr(cert, field, forged)
    getattr(cert, field).clear()
    assert getattr(cert, field) and getattr(cert, field) != forged
    assert emit_certificate(cert) == genuine and replay_certificate(cert)


@pytest.mark.parametrize("u", SLOPE_RESPELLINGS.values(), ids=SLOPE_RESPELLINGS.keys())
def test_a_respelled_slope_changes_the_bytes(u):
    # Each spelling is its own certificate, so only the genuine one may replay.
    assert int(u) == 43
    cert = classify_finite(canonicalize(7, 9, -10))
    genuine = emit_certificate(cert)
    forged = _respell("exceptional_distance:43", f"exceptional_distance:{u}")(cert)
    assert emit_certificate(forged) != genuine
    assert not replay_certificate(forged)


def test_replay_rejects_parameters_of_another_knot():
    gaps = _recorded(classify_finite(canonicalize(11, 13, -4)), "toroidal_gap_large_p")
    for triple, rule_id, inputs in [((3, 5, -4), gaps.id, gaps.inputs),
                                    ((9, 9, -4), "residual_case_table",
                                     {"p": 5, "r": 4, "survivors": [999]})]:
        cert = classify_finite(canonicalize(*triple))
        assert replay_certificate(cert)
        assert not replay_certificate(_copy_rule(rule_id, inputs)(cert))


def test_replay_rejects_inputs_that_were_never_recorded():
    k = canonicalize(9, 9, -4)
    for rule_id in ("denominator_bound", "half_integral_excluded", "odd_uniqueness"):
        cert = classify_finite(k)
        assert replay_certificate(cert) and _recorded(cert, rule_id).inputs == {}
        assert not replay_certificate(_edit_rule(rule_id, b=99)(cert))
        assert not replay_certificate(_add_rule(rule_id, {})(classify_finite(
            canonicalize(-2, 5, 9))))
    minus2_3_7 = canonicalize(-2, 3, 7)
    for classifier in (classify_cyclic, classify_finite):
        examples = _recorded(classifier(minus2_3_7), "known_examples")
        assert replay_certificate(classifier(minus2_3_7))
        forged = _copy_rule(examples.id, examples.inputs)(classifier(canonicalize(-2, 5, 7)))
        assert not replay_certificate(forged)
        forged = _edit_rule("known_examples", slopes=[1])(classifier(minus2_3_7))
        assert not replay_certificate(forged)


def test_replay_table_covers_exactly_the_emitted_rules():
    certs = sweep_cyclic(11).certificates + sweep_finite((3, 25), (3, 25), (4, 24)).certificates
    for p in range(3, 16, 2):
        for q in range(p, 16, 2):
            k = canonicalize(-2, p, q)
            certs += [classify_cyclic(k), classify_finite(k)]
    emitted = set()
    for cert in certs:
        for rule in cert.rules:
            base, colon, _ = rule.id.partition(":")
            emitted.add(base + colon)
    assert emitted == set(RULES[CYCLIC]) | set(RULES[FINITE_Q])


def test_a_rule_of_both_questions_settles_the_same():
    # conclude reads what a rule settles by its id alone.
    shared = set(RULES[CYCLIC]) & set(RULES[FINITE_Q])
    assert shared
    assert all(RULES[CYCLIC][key].settles == RULES[FINITE_Q][key].settles for key in shared)


def test_cyclic_sweep_runs_each_finite_pipeline_once(monkeypatch):
    # cyclic_via_finite asks for the finite verdict in classify and again in
    # replay; the second call reuses the kept run.
    calls = {"classify_finite": 0, "_finite_pq_minus_r": 0}

    def counting(name):
        fn = getattr(classify_module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    classify_finite.cache_clear()
    for name in calls:
        monkeypatch.setattr(classify_module, name, counting(name))
    report = sweep_cyclic(11)
    knots = sum(1 for c in report.certificates if c.rules[0].id == "cyclic_via_finite")
    assert knots > 0 and not report.violations
    assert calls == {"classify_finite": 2 * knots, "_finite_pq_minus_r": knots}


def test_a_certificate_cannot_be_edited():
    # The kept finite run is handed out as it is, so no field of it may be
    # set and its rules and realized slopes are tuples.
    k = canonicalize(7, 9, -10)
    cert = classify_finite(k)
    assert cert.rules and cert.slopes and cert.data
    for name in (*Certificate._fields, "data", "slopes", "annotations", "extra"):
        with pytest.raises(AttributeError):
            setattr(cert, name, UNRESOLVED)
    assert [type(field) for field in (cert.rules, cert.realized)] == [tuple] * 2
    hits = classify_finite.cache_info().hits
    assert classify_finite(k) is cert
    assert classify_finite.cache_info().hits == hits + 1
    assert replay_certificate(classify_cyclic(k))


# -- replay right after classify and after another knot ----------------------

# A knot outside every stream and forgery below: classifying it leaves the
# one-knot memos (boundary slopes, finite run, family) on another knot.
_ELSEWHERE = canonicalize(27, 29, -26)


def _inputs(cert, rule_id):
    return next(r for r in cert.rules if r.id == rule_id).inputs


@pytest.fixture
def kept_run_cleared():
    # An in-place edit of a rule's inputs also reaches the kept finite run.
    yield
    classify_finite.cache_clear()


@pytest.mark.parametrize("classifier,triple,rule_id,edit", [
    (classify_finite, (21, 35, -12), "coxeter_distance_window",
     lambda inputs: inputs["window"][0].__setitem__(1, "forged")),
    (classify_finite, (7, 9, -10), "even_norm_floor",
     lambda inputs: inputs.__setitem__("irreducible_characters",
                                       inputs["irreducible_characters"] + 1)),
    (classify_finite, (7, 9, -10), "finite_window",
     lambda inputs: inputs["candidates"].append(1001)),
    (classify_cyclic, (-2, 5, 23), "nonintegral_proximity",
     lambda inputs: inputs["slopes"].append("1/3")),
], ids=["window_entry", "irreducible_characters", "window_candidate", "proximity_slopes"])
def test_replay_rejects_inputs_edited_in_place_right_after_classify(
        kept_run_cleared, classifier, triple, rule_id, edit):
    classify_finite(_ELSEWHERE)
    cert = classifier(canonicalize(*triple))
    edit(_inputs(cert, rule_id))
    assert not replay_certificate(cert)


SHARED_EDITS = {
    "setitem": lambda d: d.__setitem__("slope", 1),
    "delitem": lambda d: d.__delitem__(next(iter(d), "slope")),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop(next(iter(d), "slope"), None),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("slope", 1),
    "update": lambda d: d.update(slope=1),
    "ior": lambda d: d.__ior__({"slope": 1}),
}


@pytest.mark.parametrize("edit", SHARED_EDITS.values(), ids=SHARED_EDITS.keys())
def test_shared_inputs_cannot_be_edited_in_place(edit):
    # Every certificate that records the row holds the same inputs.
    for key, classifier, triple in SHARED_ROWS:
        cert = classifier(canonicalize(*triple))
        genuine, inputs = emit_certificate(cert), _inputs(cert, key)
        with pytest.raises(TypeError, match="read-only"):
            edit(inputs)
        assert inputs == dict(inputs) and inputs is classify_module._SHARED[key].inputs
        assert emit_certificate(cert) == genuine and replay_certificate(cert), key


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_certificate_is_equal_and_replays(duplicate):
    # A deep copy of shared inputs is a plain dict, which the copy may edit.
    for key, classifier, triple in SHARED_ROWS:
        cert = classifier(canonicalize(*triple))
        copied = duplicate(cert)
        assert copied == cert and type(copied) is Certificate
        assert emit_certificate(copied) == emit_certificate(cert) and replay_certificate(copied)
        if duplicate is not copy.copy:
            assert all(type(r.inputs) is dict for r in copied.rules)
            _inputs(copied, key)["slope"] = 1
            assert not replay_certificate(copied) and replay_certificate(cert), key


def _stream_jobs():
    """(classifier, knot) for every certificate of the three pinned streams."""
    jobs = [(classify_cyclic, c.knot) for c in sweep_cyclic(11).certificates]
    jobs += [(classify_finite, c.knot)
             for c in sweep_finite((3, 25), (3, 25), (4, 24)).certificates]
    for p in range(3, 16, 2):
        for q in range(p, 16, 2):
            jobs += [(classify_cyclic, canonicalize(-2, p, q)),
                     (classify_finite, canonicalize(-2, p, q))]
    return jobs


def test_replay_agrees_right_after_classify_and_after_another_knot():
    jobs = _stream_jobs()
    assert len(jobs) == 1486
    warm = [job for job in jobs if not replay_certificate(job[0](job[1]))]
    cold = []
    for classifier, k in jobs:
        cert = classifier(k)
        classify_finite(_ELSEWHERE)
        if not replay_certificate(cert):
            cold.append((classifier, k))
    assert warm == [] and cold == []


@pytest.mark.parametrize("rule_id,classifier,source,target", COPIED_RULES,
                         ids=[case[0] for case in COPIED_RULES])
def test_a_copied_rule_is_rejected_with_the_store_warm_and_cold(rule_id, classifier, source,
                                                               target):
    if callable(target):
        classify_finite(_ELSEWHERE)
        forged = target(classifier(canonicalize(*source)))
        assert not replay_certificate(forged)
        classify_finite(_ELSEWHERE)
        assert not replay_certificate(forged)
        return
    rule = _recorded(classifier(canonicalize(*source)), rule_id)
    classify_finite(_ELSEWHERE)
    forged = _copy_rule(rule.id, rule.inputs)(classifier(canonicalize(*target)))
    assert not replay_certificate(forged)
    classify_finite(_ELSEWHERE)
    assert not replay_certificate(forged)


def test_replay_evaluates_each_premise_on_the_knot(monkeypatch):
    # Replay reads no value classify computed: a kernel of the pipeline that gives
    # another count after classify makes the certificate fail replay, and so
    # does a family that moves a knot off the shared opening chain it got.
    # Each patch is checked alone, while the other certificate still replays.
    cert = classify_finite(canonicalize(7, 9, -10))
    unclassified = canonicalize(-1, 3, 5)
    opened = classify_cyclic(unclassified)
    assert replay_certificate(cert) and replay_certificate(opened)
    assert opened.rules is classify_module._OPENED["unclassified_indices"][2]
    count = classify_module.irreducible_char_count
    monkeypatch.setattr(classify_module, "irreducible_char_count",
                        lambda p, q, m: count(p, q, m) + 1)
    assert not replay_certificate(cert)
    assert replay_certificate(opened)
    monkeypatch.setattr(classify_module, "irreducible_char_count", count)
    sort = classify_module.family
    monkeypatch.setattr(classify_module, "family", lambda k: (
        KnotFamily(FamilyTag.OTHER) if k == unclassified else sort(k)))
    assert replay_certificate(cert)
    assert not replay_certificate(opened)


def _counting(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in names:
        monkeypatch.setattr(classify_module, name, counted(name, getattr(classify_module, name)))
    return calls


def test_cyclic_sweep_still_recomputes_nested_runs_and_norm_models(monkeypatch):
    # Replay runs both nested computations again: the finite verdict comes
    # from classify_finite's one-knot memo, the norm models are solved anew.
    classify_finite.cache_clear()
    calls = _counting(monkeypatch, ("classify_finite", "cyclic_infeasibility_minus2_5_q"))
    report = sweep_cyclic(11)
    pqr = sum(1 for c in report.certificates if c.rules[0].id == "cyclic_via_finite")
    norm = sum(1 for c in report.certificates if c.knot.indices[:2] == (-2, 5)
               and c.knot.indices[2] >= 9)
    assert pqr > 0 and norm > 0 and not report.violations
    assert calls == {"classify_finite": 2 * pqr, "cyclic_infeasibility_minus2_5_q": 2 * norm}


_OPENING = {FamilyTag.OTHER: "lamination_form", FamilyTag.UNCLASSIFIED: "unclassified_indices",
            FamilyTag.TORUS: "torus_pretzel"}


def test_the_family_tag_picks_the_row_that_settles_a_knot_alone():
    # Off the two families exactly one opening row's tag matches, and inside
    # them none; classify returns the shared chain of the row that the
    # (question, tag) table names, and on the cyclic question that row is
    # cyclic_via_finite for every (p,q,-r) knot.
    families = (FamilyTag.MINUS2_PQ, FamilyTag.PQ_MINUS_R)
    seen = dict.fromkeys((CYCLIC, FINITE_Q), 0)
    for k in enumerate_canonical(60):
        if not k.is_knot:
            continue
        fam = family(k)
        holds = [key for tag, key in _OPENING.items() if fam.tag is tag]
        assert len(holds) == (0 if fam.tag in families else 1), k
        for question in (CYCLIC, FINITE_Q):
            key = classify_module._ALONE.get((question, fam.tag))
            if question == CYCLIC and fam.tag is FamilyTag.PQ_MINUS_R:
                assert key == "cyclic_via_finite"
            else:
                assert ([key] if key else []) == holds, k
            if key is None:
                continue
            seen[question] += 1
            cert = classify_module.classify(k, question)
            assert cert.rules is classify_module._OPENED[key][2], k
            assert (cert.verdict, cert.realized) == classify_module._OPENED[key][:2]
    assert 0 < seen[FINITE_Q] < seen[CYCLIC]


def test_cyclic_sweep_reads_torus_status_once_per_knot(monkeypatch):
    # knots.family is the one reader of a knot's torus status, and its
    # one-entry memo serves classify, the nested finite run and replay.
    original, calls = knots_module.torus_status, []

    def counted(k):
        calls.append(k)
        return original(k)

    for module in [m for name, m in sys.modules.items() if name.startswith("pretzel_surgery")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    family.cache_clear()
    report = sweep_cyclic(11)
    assert len(report.certificates) == 572 and not report.violations
    assert len(calls) == 572 and set(calls) == {c.knot for c in report.certificates}


# One knot of each branch of the finite (p,q,-r) pipeline, and the rule that
# marks it: exceptional table, large p, small p, middle window, residual
# table, the two per-slope rules and no non-integral slope.
_BRANCHES = [((3, 5, -4), "exceptional_knot_table"), ((11, 13, -4), "toroidal_gap_large_p"),
             ((3, 5, -8), "toroidal_gap_small_p"), ((9, 9, -6), "coxeter_distance_window"),
             ((5, 7, -4), "residual_case_table"), ((7, 9, -10), "exceptional_distance:43"),
             ((9, 9, -4), "coxeter_quotient_infinite:31"), ((3, 3, -8), "no_nonintegral_slopes")]


def test_the_finite_pipeline_and_its_replay_build_no_fraction(monkeypatch):
    # Boundary slopes, gaps and marks are int kernels; a Fraction on this
    # path would bring the slow arithmetic back.
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for memo in (classify_finite, classify_module._boundary):
        memo.cache_clear()
    for triple, rule_id in _BRANCHES:
        cert = classify_finite(canonicalize(*triple))
        assert rule_id in [r.id for r in cert.rules] and replay_certificate(cert)
    assert built == []
    assert Fraction(1, 2) and built == [(1, 2)]  # the count itself works


def test_replay_rejects_an_unknown_rule_or_question():
    cert = classify_cyclic(canonicalize(-2, 3, 7))
    assert not replay_certificate(_add_rule("made_up_rule", {})(cert))
    assert not replay_certificate(Certificate(canonicalize(-3, 3, 5), "bogus"))


@pytest.mark.parametrize("cert", [
    Certificate((-2, 3, 7), CYCLIC), Certificate(None, CYCLIC),
    Certificate(canonicalize(-2, 3, 7), [CYCLIC]),
    # Records built around validation, each with the chain classify derives
    # from its raw fields: (5,3,-2) is the torus knot (-2,3,5), unsorted, and
    # float fields compare equal to the ints of a genuine knot.
    *(Certificate(tuple.__new__(PretzelKnot, t), CYCLIC,
                  *classify_module._OPENED["lamination_form"])
      for t in [(5, 3, -2), (0, 3, 5), (4.0, 5.0, 7.0)]),
    classify_cyclic(canonicalize(-2, 3, 7))._replace(
        knot=tuple.__new__(PretzelKnot, (-2.0, 3.0, 7.0))),
    Certificate(tuple.__new__(PretzelKnot, ("a", "b", "c")), CYCLIC)],
    ids=["plain_tuple_knot", "no_knot", "unhashable_question", "unsorted_knot", "zero_index",
         "float_knot_on_a_shared_chain", "float_knot", "text_knot"])
def test_replay_rejects_a_knot_or_question_of_another_type(cert):
    # Untrusted input gets False, not an AttributeError or TypeError.
    if cert.rules:  # a forged record: only the canonical-form test rejects it
        assert classify_module.classify(cert.knot, CYCLIC) == cert
    assert replay_certificate(cert) is False


# -- sweeps -------------------------------------------------------------------


def test_finite_sweep_defaults_clean():
    report = sweep_finite()
    assert not report.violations
    assert not report.realized
    assert not report.unresolved


def test_cyclic_sweep_small_bound():
    report = sweep_cyclic(9)
    assert not report.violations
    assert report.realized == {(-2, 3, 7): (18, 19)}


def test_finite_sweep_beyond_default_ranges():
    report = sweep_finite((3, 25), (3, 25), (4, 24))
    assert not report.violations
    assert not report.realized
    assert not report.unresolved


def test_a_rule_records_only_its_id_and_inputs():
    # The text of a rule and the notes of a certificate are read from the
    # rule table when it is emitted; neither is stored.
    assert Rule._fields == ("id", "inputs")
    assert isinstance(Certificate.annotations, property)
    assert "annotations" not in Certificate._fields
    cert = classify_finite(canonicalize(-2, 7, 9))
    assert cert.annotations == list(RULES[FINITE_Q]["not_cyclic_annotation"].notes)
    assert classify_cyclic(canonicalize(-2, 7, 9)).annotations == []


def test_certificate_text_pinned():
    # The text form (with citations) of every certificate of the three
    # streams of test_certificate_streams_pinned, in the same order.
    text = [emit_certificate(classifier(k), "text", cite=True) for classifier, k in _stream_jobs()]
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == (
        "6a22ca97e6b40d9c56344d95549a0c50ff033fdba749bd9ce9df6754b8033c97")


def test_certificate_streams_pinned():
    # The certificate bytes of three streams.  A refactor keeps them; a
    # change of certificate content updates these digests on purpose.
    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    cyclic = [emit_certificate(c) for c in sweep_cyclic(11).certificates]
    finite = [emit_certificate(c)
              for c in sweep_finite((3, 25), (3, 25), (4, 24)).certificates]
    minus2 = []
    for p in range(3, 16, 2):
        for q in range(p, 16, 2):
            k = canonicalize(-2, p, q)
            for cert in (classify_cyclic(k), classify_finite(k)):
                minus2 += [emit_certificate(cert), emit_certificate(cert, "text", cite=True)]
    assert [digest(cyclic), digest(finite), digest(minus2)] == [
        "d4fc10eb7acaa78049c3031ee677c4541f98ae9e6236ca2318965d5110c56f5e",
        "44e99b325b8020f2c322cb235a3cd365f6ec7ce9105e9a8423b911bdb0261a07",
        "5ea446451873257b69b2c22af4f5dca619aba8ab488d34ea70d5440eac52e3ba",
    ]
