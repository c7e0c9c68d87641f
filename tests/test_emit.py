"""The JSON line of a certificate, against the serializer it replaces.

``emit_certificate(cert, "json")`` writes the line field by field, with the
constant strings and the JSON of each rule row without a slope escaped once
at import.  The reference below is the dict form the certificate classes
built before, with each rule's text from ``rule_text``, the slope marks the
certificate derives and the data derived here from the knot's family,
encoded by ``json.dumps`` with sorted keys; the two must agree byte for
byte on every certificate, hostile strings included.  A certificate whose
rules are an opened chain's shared tuple itself, with that chain's verdict
and realized slopes, is written from the chain's template; the same
reference holds there, on any knot.
"""

import json
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_replay_mutants import STREAMS

import pretzel_surgery.classify as classify_module
from pretzel_surgery import facts
from pretzel_surgery.boundary import nonintegral_slopes_minus2_pq, nonintegral_slopes_pq_minus_r
from pretzel_surgery.classify import (CYCLIC, FAR, FINITE_Q, PUBLISHED, RULES, SURVIVORS, WINDOW,
                                      Certificate, Rule, classify, emit_certificate, rule_text)
from pretzel_surgery.knots import (FamilyTag, canonicalize, enumerate_canonical, family,
                                   first_index_family)
from pretzel_surgery.slopes import make_slope
from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite

# -- the reference serializer -------------------------------------------------

_TAG = {CYCLIC: FamilyTag.MINUS2_PQ, FINITE_Q: FamilyTag.PQ_MINUS_R}


def certificate_data(question, k):
    """The ``data`` of a certificate as a dict, derived here from the family alone: a knot
    of the question's family off the exceptional table lists its toroidal filling 2(p+q)
    and, save on (-2,3,q), its non-integral boundary slopes."""
    fam = family(k)
    if fam.tag is not _TAG[question]:
        return {}
    (p, q), r = fam.odd_pair, -fam.even_value
    if (p, q, r) in facts.EXCEPTIONAL_PQR:
        return {}
    data = {"toroidal_slope": str(2 * (p + q))}
    if (p, r) != (3, 2):
        bset = (nonintegral_slopes_minus2_pq(p, q) if r == 2
                else nonintegral_slopes_pq_minus_r(p, q, r))
        data["nonintegral_slopes"] = {
            "boundary_slopes": [str(s) for s in bset.slopes],
            "completeness": bset.completeness.value,
            "dropped_integral": [str(s) for s in bset.dropped_integral],
        }
    return data


def reference_dict(cert):
    return {
        "pretzel": list(cert.knot.indices),
        "question": cert.question,
        "verdict": cert.verdict,
        "realized": list(cert.realized),
        "slopes": [{"slope": str(make_slope(a, b)), "status": status, "rule": rule}
                   for a, b, status, rule in cert.slopes],
        "rules": [{"id": r.id, "inputs": r.inputs,
                   **dict(zip(("source", "citation", "conclusion"),
                              rule_text(cert.question, r.id, r.inputs)))} for r in cert.rules],
        "annotations": list(cert.annotations),
        "data": certificate_data(cert.question, cert.knot),
    }


def reference_json(cert):
    return json.dumps(reference_dict(cert), sort_keys=True, separators=(",", ":"))


def test_the_pinned_streams_match_the_reference():
    for stream in STREAMS.values():
        for cert in stream():
            assert emit_certificate(cert) == reference_json(cert), f"{cert.knot} {cert.question}"


# -- the data field -------------------------------------------------------------

_SET = ('"nonintegral_slopes":{{"boundary_slopes":[{}],"completeness":"{}",'
        '"dropped_integral":[{}]}},')
_ALL = "ALL_NONINTEGRAL"
# One knot per shape of the data a line lists, with that data.
DATA_SHAPES = {
    "no slope": (CYCLIC, (-2, 5, 5), _SET.format("", _ALL, "") + '"toroidal_slope":"20"'),
    "one slope": (CYCLIC, (-2, 5, 7), _SET.format('"37/2"', _ALL, "") + '"toroidal_slope":"24"'),
    "two slopes": (CYCLIC, (-2, 7, 9),
                   _SET.format('"37/2","67/3"', _ALL, "") + '"toroidal_slope":"32"'),
    "toroidal filling only": (CYCLIC, (-2, 3, 7), '"toroidal_slope":"20"'),
    "one dropped": (FINITE_Q, (-24, 3, 3),
                    _SET.format("", _ALL, '"56"') + '"toroidal_slope":"12"'),
    "two dropped": (FINITE_Q, (-4, 11, 23),
                    _SET.format("", _ALL, '"33","55"') + '"toroidal_slope":"68"'),
    "one finite slope": (FINITE_Q, (-24, 3, 5),
                         _SET.format('"178/3"', _ALL, "") + '"toroidal_slope":"16"'),
    "one slope, one dropped": (FINITE_Q, (-8, 17, 23),
                               _SET.format('"249/4"', _ALL, '"69"') + '"toroidal_slope":"80"'),
    "two finite slopes": (FINITE_Q, (-10, 21, 23),
                          _SET.format('"391/5","159/2"', _ALL, "") + '"toroidal_slope":"88"'),
    "candidates only": (FINITE_Q, (-24, 25, 25),
                        _SET.format("", "CANDIDATE_ONLY", "") + '"toroidal_slope":"100"'),
    "exceptional table": (FINITE_Q, (-6, 3, 3), ""),
    **{f"off the family: {question} {triple}": (question, triple, "")
       for question in (CYCLIC, FINITE_Q) for triple in [(-25, 2, 3), (-2, 1, 1), (-25, 1, 1)]},
    "off the question": (CYCLIC, (-24, 3, 3), ""),
}


@pytest.mark.parametrize("question,triple,data", DATA_SHAPES.values(), ids=DATA_SHAPES.keys())
def test_the_data_field_is_written_as_the_encoder_writes_its_dict(question, triple, data):
    k = canonicalize(*triple)
    assert k.indices == triple
    reference = json.dumps(certificate_data(question, k), sort_keys=True,
                           separators=(",", ":"))
    assert reference == f"{{{data}}}"
    assert classify_module._knot_json(question, k) == f'{reference},"pretzel":[{k.p},{k.q},{k.r}]'


# -- the first index ------------------------------------------------------------
#
# _listed reads a knot's first index (knots.first_index_family, which family's
# own pattern reads) before it asks knots.family: a (-2,p,q) knot has p == -2
# and a (p,q,-r) knot an even p <= -4, so on the cyclic question any other p
# lists no data, and on the finite question any p > -4 or odd.  Where the
# rule answers, family would have answered the same.

_OFF_FAMILY = (FamilyTag.TORUS, FamilyTag.UNCLASSIFIED, FamilyTag.OTHER)


def _ruled_out(question, k):
    return k.p != -2 if question == CYCLIC else k.p > -4 or k.p % 2 == 1


def _check_the_first_index_rule(k):
    # A knot's family is the one its first index allows, or none of the two.
    assert family(k).tag in {first_index_family(k.p), *_OFF_FAMILY}, k
    for question in (CYCLIC, FINITE_Q):
        assert _ruled_out(question, k) == (first_index_family(k.p) is not _TAG[question])
        if _ruled_out(question, k):
            # Off the question's family tag, _listed through family lists nothing.
            assert family(k).tag is not _TAG[question], (question, k)
            assert classify_module._listed(question, k) == (0, None), (question, k)


def test_the_first_index_rule_holds_on_every_small_knot():
    knots = list(enumerate_canonical(40))
    for k in knots:
        _check_the_first_index_rule(k)
    ruled_out = sum(_ruled_out(CYCLIC, k) for k in knots)
    assert 0 < len(knots) - ruled_out < ruled_out


_INDEX = st.integers(-10**6, 10**6).filter(bool)


@given(_INDEX, _INDEX, _INDEX)
@example(-2, 1, 7)
@example(-2, 3, 3)
@example(-2, 3, 5)
@example(-6, 3, 3)
@example(7, -3, -5)
def test_the_first_index_rule_holds_on_any_triple(p, q, r):
    _check_the_first_index_rule(canonicalize(p, q, r))


@pytest.mark.parametrize("question,triple", [
    (CYCLIC, (-2, 1, 1)), (CYCLIC, (-2, 1, 9)), (CYCLIC, (-2, 3, 3)), (CYCLIC, (-2, 3, 5)),
    (FINITE_Q, (-6, 3, 3))])
def test_a_knot_the_first_index_lets_through_still_asks_its_family(monkeypatch, question,
                                                                   triple):
    # Torus knots with first index -2, and the exceptional (-6,3,3), list no data.
    k, calls = canonicalize(*triple), []
    assert k.indices == triple and not _ruled_out(question, k)
    monkeypatch.setattr(classify_module, "family", lambda k: calls.append(k) or family(k))
    assert classify_module._listed(question, k) == (0, None)
    assert calls == [k]


# -- hostile certificates -----------------------------------------------------

_TABLE = sorted(text for text in classify_module._ESCAPED if isinstance(text, str))
_HOSTILE = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é \ud800\U0001f600')
                   | st.characters(), max_size=12)
_TEXT = st.sampled_from(_TABLE) | _HOSTILE
_VALUE = st.recursive(st.none() | st.booleans() | st.integers() | _TEXT,
                      lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=8)
_INPUTS = st.dictionaries(_TEXT, _VALUE, max_size=4)
_NONZERO = st.integers(-99, 99).filter(bool)
_SLOPES = st.lists(st.integers(-60, 60), max_size=3)
# The inputs conclude reads, by what a row settles; a row that settles
# nothing, or settles by the chain alone, may record any inputs.
_READ = {
    WINDOW: st.fixed_dictionaries({"candidates": _SLOPES}),
    FAR: st.fixed_dictionaries({
        "window": st.lists(st.tuples(st.integers(-60, 60), _TEXT).map(list), max_size=3),
        "distances": st.lists(st.tuples(st.integers(-60, 60), st.integers(0, 20)).map(list),
                              max_size=3)}),
    SURVIVORS: st.fixed_dictionaries({"survivors": _SLOPES}),
    PUBLISHED: st.fixed_dictionaries({"slopes": _SLOPES}),
}


def _rule(question, key):
    read = _READ.get(RULES[question][key].settles, st.just({}))
    return st.builds(lambda inputs, shaped: Rule(key, {**inputs, **shaped}), _INPUTS, read)


# A rule's text and the notes come from its row, so the question and the ids
# of rows without a slope are drawn from the table.
def _certificates(question):
    ids = sorted(key for key in RULES[question] if key[-1] != ":")
    return st.builds(
        Certificate,
        knot=st.builds(canonicalize, _NONZERO, _NONZERO, _NONZERO),
        question=st.just(question),
        verdict=_TEXT,
        realized=st.lists(st.integers(), max_size=3).map(tuple),
        rules=st.lists(st.sampled_from(ids).flatmap(lambda key: _rule(question, key)),
                       max_size=3).map(tuple),
    )


# Classified certificates of random knots with |index| <= 200, half of them in
# the (-2,p,q) and (p,q,-r) families, so that slope marks and data occur.
_INDEX = st.integers(-200, 200).filter(bool)
_ODD = st.integers(1, 99).map(lambda n: 2 * n + 1)
_KNOTS = (st.builds(canonicalize, _INDEX, _INDEX, _INDEX).filter(lambda k: k.is_knot)
          | st.builds(canonicalize, st.integers(-100, -1).map(lambda n: 2 * n), _ODD, _ODD))
_classified = st.builds(classify, _KNOTS, st.sampled_from(sorted(RULES)))

certificates = st.sampled_from(sorted(RULES)).flatmap(_certificates) | _classified


# Certificates holding an opened chain's shared tuple itself, on any
# canonical knot, (-2,p,q) and (p,q,-r) included, with the chain's verdict and
# realized slopes or hostile ones.
_OPENED_ROWS = sorted({(question, key) for (question, _), key in classify_module._ALONE.items()})
_ANY_KNOT = (st.builds(canonicalize, _INDEX, _INDEX, _INDEX)
             | st.builds(canonicalize, st.just(-2), _ODD, _ODD)
             | st.builds(canonicalize, st.integers(-100, -1).map(lambda n: 2 * n), _ODD, _ODD))


def _on_shared_chain(question, key):
    verdict, realized, rules = classify_module._OPENED[key]
    return st.builds(Certificate, knot=_ANY_KNOT, question=st.just(question),
                     verdict=st.just(verdict) | _TEXT,
                     realized=st.just(realized) | st.lists(st.integers(), max_size=3).map(tuple),
                     rules=st.just(rules))


@given(st.sampled_from(_OPENED_ROWS).flatmap(lambda row: _on_shared_chain(*row)))
def test_a_certificate_on_a_shared_chain_matches_the_reference(cert):
    assert cert.rules is classify_module._OPENED[cert.rules[0].id][2]
    assert emit_certificate(cert) == reference_json(cert)


@pytest.mark.parametrize("question,triple", [(CYCLIC, (-2, 5, 7)), (FINITE_Q, (5, 7, -4))])
def test_the_lamination_chain_on_a_family_knot_writes_that_knots_data(question, triple):
    cert = Certificate(canonicalize(*triple), question,
                       *classify_module._OPENED["lamination_form"])
    assert certificate_data(question, cert.knot)  # the knot's own, which no probe line holds
    assert emit_certificate(cert) == reference_json(cert)


def test_a_copy_of_a_shared_chain_takes_the_general_path(monkeypatch):
    # A template poisoned here shows which path wrote a line.
    verdict, realized, rules = classify_module._OPENED["lamination_form"]
    row = (CYCLIC, "lamination_form")
    monkeypatch.setitem(classify_module._TEMPLATES, row,
                        (*classify_module._TEMPLATES[row][:3], "HEAD", "TAIL"))
    shared = Certificate(canonicalize(4, 5, 7), CYCLIC, verdict, realized, rules)
    assert emit_certificate(shared).startswith("HEAD")
    for copied in (tuple([*rules]), (Rule(rules[0].id, dict(rules[0].inputs)),)):
        cert = shared._replace(rules=copied)
        assert cert == shared and cert.rules is not rules
        assert emit_certificate(cert) == reference_json(cert) == reference_json(shared)


def test_every_row_that_settles_a_knot_alone_has_its_template():
    # The templates are built from _ALONE itself: a row added there gets one.
    templates = classify_module._TEMPLATES
    assert sorted(templates) == _OPENED_ROWS
    for (question, key), template in templates.items():
        assert template[:3] == classify_module._OPENED[key]
        assert template[2] is classify_module._OPENED[key][2]


@pytest.fixture(scope="module")
def cyclic_50():
    return sweep_cyclic(50).certificates


def test_the_cyclic_sweep_gets_the_same_bytes_from_both_paths(monkeypatch, cyclic_50):
    # Only the general path concludes a chain, so the lines written from a
    # template are those that never call conclude.
    certs = cyclic_50
    calls, conclude = Counter(), classify_module.conclude
    monkeypatch.setattr(classify_module, "conclude",
                        lambda rules: calls.update(["general"]) or conclude(rules))
    fast = [emit_certificate(cert) for cert in certs]
    assert (len(certs), len(certs) - calls["general"]) == (42_925, 42_627)
    monkeypatch.setattr(classify_module, "_TEMPLATES", {})
    assert [emit_certificate(cert) for cert in certs] == fast


def test_emitting_the_cyclic_sweep_asks_the_family_of_the_minus2_knots_only(monkeypatch,
                                                                             cyclic_50):
    # The 325 knots (-2,q,r), odd 1 <= q <= r <= 49, are the only lines whose
    # first index leaves the cyclic data open; the emit runs after the sweep,
    # so each call it makes misses the one-knot family memo.
    calls = []
    monkeypatch.setattr(classify_module, "family", lambda k: calls.append(k) or family(k))
    for cert in cyclic_50:
        emit_certificate(cert)
    assert len(calls) == 325 == len(set(calls))
    assert all(k.p == -2 and k.q % 2 == 1 for k in calls)


@given(certificates)
def test_any_certificate_matches_the_reference(cert):
    size = len(classify_module._ESCAPED)
    assert emit_certificate(cert) == reference_json(cert)
    assert len(classify_module._ESCAPED) == size


@pytest.mark.parametrize("question,rule_id", [
    (FINITE_Q, "cyclic_via_finite"), (CYCLIC, "exceptional_knot_table"),
    (CYCLIC, "exceptional_distance:43"), (FINITE_Q, "made_up_rule"), ("made_up", "torus_pretzel")])
def test_a_rule_outside_its_question_table_is_not_emitted(question, rule_id):
    # No row has the text such a rule would need, so emitting it raises.
    cert = Certificate(canonicalize(7, 9, -10), question,
                       rules=(Rule(rule_id, {"slope": 43, "distance": 11, "toroidal": "32"}),))
    for fmt in ("json", "text"):
        with pytest.raises(KeyError):
            emit_certificate(cert, fmt)


def test_the_escape_table_never_grows():
    table = dict(classify_module._ESCAPED)
    for cert in [*sweep_cyclic(11).certificates, *sweep_finite().certificates]:
        emit_certificate(cert)
    assert len(classify_module._ESCAPED) == len(table)
    assert classify_module._ESCAPED == table
