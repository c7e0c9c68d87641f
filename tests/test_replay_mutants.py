"""Replay must reject every tampered conclusion of a genuine certificate.

Each certificate of the three pinned streams (those of
``test_certificate_streams_pinned``) is mutated in its realized slopes and
its verdict, and gains each row of its question without a slope, recorded
with None as its inputs (what a premise that fails returns) and with the
realized slopes and verdict the longer chain implies; a finite certificate
also loses each of its norm rules in turn.  Whole rules are also dropped,
duplicated, swapped with the next one, moved to the front and moved to the
back, with the realized slopes and verdict the new chain implies.  A mutant
that still emits the genuine bytes is not tampered; every other mutant must
fail replay.  A
rule's text, the data and the slope marks are not recorded, so they cannot
be edited: the emitter derives them from the rule table, the knot and the chain.
"""

import pytest

from pretzel_surgery.classify import (CYCLIC, NONE, REALIZED, RULES, TORUS_INFINITE, UNRESOLVED,
                                      Rule, classify_cyclic, classify_finite, conclude,
                                      emit_certificate)
from pretzel_surgery.knots import canonicalize
from pretzel_surgery.replay import replay_certificate
from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite

STREAMS = {
    "cyclic": lambda: sweep_cyclic(11).certificates,
    "finite": lambda: sweep_finite((3, 25), (3, 25), (4, 24)).certificates,
    "minus2": lambda: [classify(canonicalize(-2, p, q)) for p in range(3, 16, 2)
                       for q in range(p, 16, 2) for classify in (classify_cyclic, classify_finite)],
}


def _with_no_inputs(cert, key):
    """cert with the row key appended, its inputs None, and the realized slopes
    and verdict of the longer chain when conclude can read it (a row that
    settles by its inputs cannot be concluded without them)."""
    rules = (*cert.rules, Rule(key, None))
    try:
        _, realized, verdict = conclude(rules)
    except TypeError:
        return cert._replace(rules=rules)
    return cert._replace(rules=rules, realized=realized, verdict=verdict)


def _emitted(cert) -> str | None:
    """The JSON line of cert, None when its chain cannot be concluded."""
    try:
        return emit_certificate(cert)
    except TypeError:
        return None


def _mutants(cert) -> dict[str, list]:
    """Operator name -> the mutants it makes of cert."""
    realized = cert.realized
    return {
        "drop_realized": [cert._replace(realized=realized[:i] + realized[i + 1:])
                          for i in range(len(realized))],
        "add_realized": [cert._replace(realized=(*realized, max(realized, default=0) + 1))],
        "set_verdict": [cert._replace(verdict=verdict)
                        for verdict in (REALIZED, NONE, TORUS_INFINITE, UNRESOLVED)
                        if verdict != cert.verdict],
        "none_inputs": [_with_no_inputs(cert, key) for key in RULES[cert.question]
                        if key[-1] != ":"],
    }


def _solves_norm_lps(cert) -> bool:
    # Replaying a (-2,5,q) cyclic certificate with q >= 9 solves its 15 norm
    # LPs again.  The finite certificate of the same knot records its
    # not-cyclic note directly and solves none, so all its mutants run.
    p, q, r = cert.knot.indices
    return cert.question == CYCLIC and (p, q) == (-2, 5) and r >= 9


# Mutants tried per stream, those that emit the genuine bytes left out.
MUTANTS_TRIED = {"cyclic": 6848, "finite": 18876, "minus2": 923}


@pytest.mark.parametrize("stream", STREAMS)
def test_replay_rejects_every_mutant_of_the_pinned_certificates(stream):
    certs, forged, tried = STREAMS[stream](), [], 0
    for cert in certs:
        genuine = emit_certificate(cert)
        assert replay_certificate(cert), f"{cert.knot} {cert.question}"
        for operator, mutants in _mutants(cert).items():
            for mutant in mutants[:1] if _solves_norm_lps(cert) else mutants:
                if _emitted(mutant) != genuine:
                    tried += 1
                    if replay_certificate(mutant):
                        forged.append(f"{cert.knot} {cert.question} {operator}")
    assert tried == MUTANTS_TRIED[stream]
    assert forged == []


def _reconcluded(cert, rules):
    _, realized, verdict = conclude(rules)
    return cert._replace(rules=rules, realized=realized, verdict=verdict)


def _rule_mutants(cert) -> dict[str, list]:
    """Operator name -> the chains it makes of cert's by moving whole rules,
    each re-concluded."""
    rules, n = cert.rules, len(cert.rules)
    chains = {
        "drop": [rules[:i] + rules[i + 1:] for i in range(n)],
        "duplicate": [rules[:i + 1] + rules[i:] for i in range(n)],
        "swap_adjacent": [(*rules[:i], rules[i + 1], rules[i], *rules[i + 2:])
                          for i in range(n - 1)],
        "move_to_front": [(rules[i], *rules[:i], *rules[i + 1:]) for i in range(1, n)],
        "move_to_back": [(*rules[:i], *rules[i + 1:], rules[i]) for i in range(n - 1)],
    }
    return {operator: [_reconcluded(cert, chain) for chain in made]
            for operator, made in chains.items()}


# Mutants tried per stream and operator, those that emit the genuine bytes left out.
RULE_MUTANTS_TRIED = {
    "cyclic": {"drop": 593, "duplicate": 593, "swap_adjacent": 23, "move_to_front": 23,
               "move_to_back": 23},
    "finite": {"drop": 5687, "duplicate": 5687, "swap_adjacent": 4829, "move_to_front": 4829,
               "move_to_back": 4829},
    "minus2": {"drop": 111, "duplicate": 111, "swap_adjacent": 59, "move_to_front": 59,
               "move_to_back": 59},
}


@pytest.mark.parametrize("stream", STREAMS)
def test_replay_rejects_every_whole_rule_mutant(stream):
    # Replay derives the chain again, so a rule dropped, repeated or out of
    # place fails it, even when the verdict and realized slopes follow the chain.
    tried, forged = dict.fromkeys(RULE_MUTANTS_TRIED[stream], 0), []
    for cert in STREAMS[stream]():
        genuine = emit_certificate(cert)
        for operator, mutants in _rule_mutants(cert).items():
            for mutant in mutants[:1] if _solves_norm_lps(cert) else mutants:
                if emit_certificate(mutant) != genuine:
                    tried[operator] += 1
                    if replay_certificate(mutant):
                        forged.append(f"{cert.knot} {cert.question} {operator}")
    assert tried == RULE_MUTANTS_TRIED[stream]
    assert forged == []


def test_replay_rejects_every_finite_certificate_missing_a_norm_rule():
    # The window rules of a (p,q,-r) certificate rest on its five norm rules.
    norm_rules = ("even_numerator_infinite", "denominator_bound", "even_norm_floor",
                  "half_integral_excluded", "odd_uniqueness")
    forged, tried = [], 0
    for cert in STREAMS["finite"]():
        for i, rule in enumerate(cert.rules):
            if rule.id in norm_rules:
                tried += 1
                if replay_certificate(cert._replace(rules=cert.rules[:i] + cert.rules[i + 1:])):
                    forged.append(f"{cert.knot} {rule.id}")
    assert tried == 5 * 855
    assert forged == []
