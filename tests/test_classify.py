import hashlib
import importlib
import json
from dataclasses import replace
from fractions import Fraction
from types import ModuleType

import pytest

import pretzel_surgery.classify as classify_module
from pretzel_surgery.classify import (CYCLIC, FINITE_Q, NONE, REALIZED, RULES, STATUS_ELIMINATED,
                                      TORUS_INFINITE, UNRESOLVED, Rule, SlopeStatus,
                                      classify_cyclic, classify_finite, emit_certificate,
                                      even_norm_floor, premise_value,
                                      quotient_certified_infinite)
from pretzel_surgery.cli import main
from pretzel_surgery.coxeter import CoxeterSignature
from pretzel_surgery.knots import canonicalize
from pretzel_surgery.norms import (FeasibilityVerdict, PairwiseInfeasibilityReport,
                                   minus2_5q_norm_system)
from pretzel_surgery.replay import replay_certificate, replay_rule
from pretzel_surgery.slopes import make_slope
from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite
from schema import validate_certificate_json


def _slope_map(cert):
    return {str(s.slope): (s.status, s.rule_id) for s in cert.slopes}


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


def test_cyclic_refuses_a_feasible_norm_report(monkeypatch):
    feasible = PairwiseInfeasibilityReport(
        9, minus2_5q_norm_system(9), (FeasibilityVerdict(True, (0, 1)),))
    monkeypatch.setattr(classify_module, "cyclic_infeasibility_minus2_5_q",
                        lambda q: feasible)
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
    assert [(s.slope.a, s.status) for s in cert.slopes] == [(31, "ELIMINATED")]


def test_finite_refuses_a_gap_below_eleven(monkeypatch, capsys):
    # A soundness guard, not an assert: it must survive ``python -O`` and
    # reach the CLI as an internal error (exit 1), not a usage error.
    # The knot is classified unpatched first, so the patch is seen only
    # because the kept last-knot run is cleared.
    k = canonicalize(11, 13, -4)
    assert classify_finite(k).verdict == NONE
    classify_module._classify_finite.cache_clear()
    monkeypatch.setattr(classify_module, "toroidal_gaps_large_p",
                        lambda p, q, r: (Fraction(21, 2), Fraction(12)))
    with pytest.raises(ArithmeticError, match="gap < 11"):
        classify_finite(k)
    with pytest.raises(ArithmeticError, match="gap < 11"):
        classify_finite(k)  # a raise is not kept
    assert main(["classify", "--pretzel", "11,13,-4", "--question", "finite"]) == 1
    assert capsys.readouterr().err.startswith("internal error: ")


def test_quotient_oracle_abstains_on_collapse_corner():
    assert not quotient_certified_infinite(CoxeterSignature(3, 21, 2))
    assert not quotient_certified_infinite(CoxeterSignature(3, 17, 3))
    assert quotient_certified_infinite(CoxeterSignature(9, 13, 2))
    assert not quotient_certified_infinite(CoxeterSignature(3, 7, 6))


def test_parity_split_is_exclusive():
    # No even-numerator slope may be eliminated by anything but the parity
    # rule; the pipelines only ever list odd candidates individually.
    for triple in [(9, 9, -4), (5, 7, -4), (3, 9, -6), (13, 15, -8)]:
        cert = classify_finite(canonicalize(*triple))
        for status in cert.slopes:
            if status.status == "ELIMINATED":
                assert status.slope.a % 2 == 1


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
    assert not replay_rule(cert.knot, bad.id, {**bad.inputs,
                                               "signature": [2, 3, 7, 6]})


def _add_rule(rule_id, inputs):
    def forge(cert):
        cert.rules.append(Rule(rule_id, "forged", "", inputs, ""))
        return cert
    return forge


def _edit_rule(rule_id, **changes):
    def forge(cert):
        i = next(i for i, r in enumerate(cert.rules) if r.id == rule_id)
        cert.rules[i] = cert.rules[i]._replace(inputs={**cert.rules[i].inputs, **changes})
        return cert
    return forge


def _add_mark(u, rule_id):
    def forge(cert):
        cert.slopes.append(SlopeStatus(make_slope(u, 1), STATUS_ELIMINATED, rule_id))
        return cert
    return forge


def _add_elimination(rule_id, inputs):
    # A per-slope rule and the mark of its slope.
    def forge(cert):
        return _add_mark(inputs["slope"], rule_id)(_add_rule(rule_id, inputs)(cert))
    return forge


def _drop_rule(rule_id):
    def forge(cert):
        cert.rules = [r for r in cert.rules if r.id != rule_id]
        cert.slopes = [s for s in cert.slopes if s.rule_id != rule_id]
        return cert
    return forge


def _relink(rule_id, new_id):
    # Drop a rule and link the slopes it eliminated to another rule instead.
    def forge(cert):
        cert.rules = [r for r in cert.rules if r.id != rule_id]
        cert.slopes = [replace(s, rule_id=new_id) if s.rule_id == rule_id else s
                       for s in cert.slopes]
        return cert
    return forge


def _cut_after(rule_id):
    # Keep the chain up to rule_id and none of its marks.
    def forge(cert):
        cert.rules = cert.rules[:next(i for i, r in enumerate(cert.rules) if r.id == rule_id) + 1]
        cert.slopes = []
        return cert
    return forge


def _set(**fields):
    def forge(cert):
        for name, value in fields.items():
            setattr(cert, name, value)
        return cert
    return forge


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
    ("residual_slope_added", classify_finite, (3, 5, -6), _add_mark(1, "residual_case_table")),
    ("slope_linked_to_another_slope", classify_finite, (7, 9, -10),
     _add_mark(1001, "exceptional_distance:43")),
    ("rule_of_another_family", classify_cyclic, (-2, 3, 11),
     _add_rule("cyclic_via_finite", {"finite_verdict": NONE})),
    ("proximity_candidate_dropped", classify_cyclic, (-2, 5, 9),
     _drop_rule("seminorm_infeasibility:23")),
    ("finite_window_candidate_dropped", classify_finite, (7, 9, -10),
     _drop_rule("exceptional_distance:43")),
    # A chain that settles no slope leaves the question open.
    ("chain_cut_after_the_norm_rules", classify_finite, (7, 9, -10),
     _cut_after("odd_uniqueness")),
    # A true elimination of a slope outside the window marks nothing.
    ("slope_outside_the_window_eliminated", classify_finite, (7, 9, -10),
     _add_elimination("exceptional_distance:1001",
                      {"slope": 1001, "toroidal": "32", "distance": 969})),
    # Slopes within distance 9 of 2(p+q) that only the residual table settles.
    *((f"near_slope_relinked_to_distance_window_{q}", classify_finite, (5, q, -4),
       _relink("residual_case_table", "coxeter_distance_window")) for q in (5, 7, 9)),
]


@pytest.mark.parametrize("rule_id,classifier,source,target", COPIED_RULES,
                         ids=[case[0] for case in COPIED_RULES])
def test_replay_rejects_a_rule_copied_from_another_knot(rule_id, classifier, source,
                                                        target):
    if callable(target):
        cert = classifier(canonicalize(*source))
        assert replay_certificate(cert)
        assert not replay_certificate(target(cert))
        return

    def recorded(triple):
        cert = classifier(canonicalize(*triple))
        return next(r for r in cert.rules if r.id.split(":")[0] == rule_id)

    rule = recorded(source)
    assert recorded(target).inputs != rule.inputs
    assert replay_rule(canonicalize(*source), rule.id, rule.inputs)
    assert not replay_rule(canonicalize(*target), rule.id, rule.inputs)


def test_replay_rejects_parameters_of_another_knot():
    gaps = next(r for r in classify_finite(canonicalize(11, 13, -4)).rules
                if r.id == "toroidal_gap_large_p")
    assert not replay_rule(canonicalize(3, 5, -4), gaps.id, gaps.inputs)
    assert not replay_rule(canonicalize(9, 9, -4), "residual_case_table",
                           {"p": 5, "r": 4, "survivors": [999]})


def test_replay_rejects_inputs_that_were_never_recorded():
    k = canonicalize(9, 9, -4)
    for rule_id in ("denominator_bound", "half_integral_excluded", "odd_uniqueness"):
        assert replay_rule(k, rule_id, {})
        assert not replay_rule(k, rule_id, {"b": 99})
        assert not replay_rule(canonicalize(-2, 5, 9), rule_id, {})
    minus2_3_7 = canonicalize(-2, 3, 7)
    for cert in (classify_cyclic(minus2_3_7), classify_finite(minus2_3_7)):
        examples = next(r for r in cert.rules if r.id == "known_examples")
        assert replay_rule(minus2_3_7, examples.id, examples.inputs)
        assert not replay_rule(canonicalize(-2, 5, 7), examples.id, examples.inputs)
    assert not replay_rule(minus2_3_7, "known_examples", {"slopes": [1]})


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

    for name in calls:
        monkeypatch.setattr(classify_module, name, counting(name))
    classify_module._classify_finite.cache_clear()
    report = sweep_cyclic(11)
    knots = sum(1 for c in report.certificates if c.rules[0].id == "cyclic_via_finite")
    assert knots > 0 and not report.violations
    assert calls == {"classify_finite": 2 * knots, "_finite_pq_minus_r": knots}


def test_editing_a_finite_certificate_never_reaches_the_kept_run():
    k = canonicalize(7, 9, -10)
    original = emit_certificate(classify_finite(k))
    cert = classify_finite(k)
    assert cert.rules and cert.slopes and cert.data
    cert.verdict = UNRESOLVED
    cert.rules.pop()
    cert.slopes.append(cert.slopes[0])
    cert.annotations.append("forged")
    cert.data["toroidal_slope"] = "0"
    hits = classify_module._classify_finite.cache_info().hits
    assert emit_certificate(classify_finite(k)) == original
    assert classify_module._classify_finite.cache_info().hits == hits + 1
    assert replay_certificate(classify_cyclic(k))


# -- the premise values classify stores for replay ---------------------------

# A knot outside every stream and forgery below: classifying it leaves no
# stored premise value and no kept finite run of any other knot.
_ELSEWHERE = canonicalize(27, 29, -26)


def _inputs(cert, rule_id):
    return next(r for r in cert.rules if r.id == rule_id).inputs


@pytest.fixture
def kept_run_cleared():
    # An in-place edit of a rule's inputs also reaches the kept finite run.
    yield
    classify_module._classify_finite.cache_clear()


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
    rule = next(r for r in classifier(canonicalize(*source)).rules
                if r.id.split(":")[0] == rule_id)
    classify_finite(_ELSEWHERE)
    classifier(canonicalize(*target))
    assert not replay_rule(canonicalize(*target), rule.id, rule.inputs)
    classify_finite(_ELSEWHERE)
    assert not replay_rule(canonicalize(*target), rule.id, rule.inputs)


def test_the_store_keeps_only_the_last_knot(monkeypatch):
    a, b = canonicalize(7, 9, -10), canonicalize(9, 9, -4)
    classify_finite(_ELSEWHERE)
    recorded = _inputs(classify_finite(a), "even_norm_floor")
    original, counted = classify_module.irreducible_char_count, []

    def counting(p, q, m):
        counted.append((p, q, m))
        return original(p, q, m)

    monkeypatch.setattr(classify_module, "irreducible_char_count", counting)
    assert premise_value(even_norm_floor, (7, 9, 10)) == recorded
    assert counted == []
    classify_finite(b)
    assert premise_value(even_norm_floor, (7, 9, 10)) == recorded
    assert counted == [(9, 9, 2), (7, 9, 5)]


def test_the_finite_run_inside_cyclic_via_finite_stores_nothing(monkeypatch):
    # No replay reads the premise values of that nested run.
    classify_finite(_ELSEWHERE)
    classify_module._classify_finite.cache_clear()
    classify_cyclic(canonicalize(7, 9, -10))
    calls = _counting(monkeypatch, ("irreducible_char_count",))
    premise_value(even_norm_floor, (7, 9, 10))
    assert calls == {"irreducible_char_count": 1}


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


def test_finite_sweep_computes_each_premise_once_per_knot(monkeypatch):
    # Replay reads the values classify stored for the knot it just classified.
    classify_module._classify_finite.cache_clear()
    calls = _counting(monkeypatch, ("longitude_triviality_check", "irreducible_char_count"))
    report = sweep_finite((3, 25), (3, 25), (4, 24))
    knots = sum(1 for c in report.certificates
                if any(r.id == "even_numerator_infinite" for r in c.rules))
    assert knots > 0 and not report.violations
    assert calls == {"longitude_triviality_check": knots, "irreducible_char_count": knots}


def test_cyclic_sweep_still_recomputes_nested_runs_and_norm_models(monkeypatch):
    # cyclic_via_finite and seminorm_infeasibility stay out of the store.
    classify_module._classify_finite.cache_clear()
    calls = _counting(monkeypatch, ("classify_finite", "cyclic_infeasibility_minus2_5_q"))
    report = sweep_cyclic(11)
    pqr = sum(1 for c in report.certificates if c.rules[0].id == "cyclic_via_finite")
    norm = sum(1 for c in report.certificates if c.knot.indices[:2] == (-2, 5)
               and c.knot.indices[2] >= 9)
    assert pqr > 0 and norm > 0 and not report.violations
    assert calls == {"classify_finite": 2 * pqr, "cyclic_infeasibility_minus2_5_q": 2 * norm}


def test_replay_unknown_rule_raises():
    cert = classify_cyclic(canonicalize(-2, 3, 7))
    with pytest.raises(KeyError):
        replay_rule(cert.knot, "made_up_rule", {})


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
