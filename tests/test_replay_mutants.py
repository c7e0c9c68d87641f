"""Replay must reject every tampered conclusion of a genuine certificate.

Each certificate of the three pinned streams (those of
``test_certificate_streams_pinned``) is mutated in its slope marks, its
realized slopes and its verdict; a finite certificate also loses each of its
norm rules in turn.  A mutant that still emits the genuine bytes is not
tampered; every other mutant must fail replay.  A rule's text is not
recorded, so it cannot be edited: the emitter reads it from the rule table.
"""

import pytest

from pretzel_surgery.classify import (NONE, REALIZED, STATUS_ELIMINATED, STATUS_REALIZED,
                                      STATUS_UNRESOLVED, TORUS_INFINITE, UNRESOLVED,
                                      classify_cyclic, classify_finite, emit_certificate)
from pretzel_surgery.knots import canonicalize
from pretzel_surgery.replay import replay_certificate
from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite

STREAMS = {
    "cyclic": lambda: sweep_cyclic(11).certificates,
    "finite": lambda: sweep_finite((3, 25), (3, 25), (4, 24)).certificates,
    "minus2": lambda: [classify(canonicalize(-2, p, q)) for p in range(3, 16, 2)
                       for q in range(p, 16, 2) for classify in (classify_cyclic, classify_finite)],
}


def _mutants(cert) -> dict[str, list]:
    """Operator name -> the mutants it makes of cert."""
    s, realized, n = cert.slopes, cert.realized, len(cert.slopes)
    links = [None, *dict.fromkeys(rule.id for rule in cert.rules)]

    def with_mark(i, **change):
        return cert._replace(slopes=(*s[:i], s[i]._replace(**change), *s[i + 1:]))
    return {
        "drop_mark": [cert._replace(slopes=s[:i] + s[i + 1:]) for i in range(n)],
        "duplicate_mark": [cert._replace(slopes=s[:i + 1] + s[i:]) for i in range(n)],
        "swap_adjacent_marks": [cert._replace(slopes=(*s[:i], s[i + 1], s[i], *s[i + 2:]))
                                for i in range(n - 1) if s[i] != s[i + 1]],
        "restatus_mark": [with_mark(i, status=status) for i in range(n) for status in
                          (STATUS_REALIZED, STATUS_ELIMINATED, STATUS_UNRESOLVED)
                          if status != s[i].status],
        "relink_eliminated_mark": [with_mark(i, rule_id=link) for i in range(n)
                                   if s[i].status == STATUS_ELIMINATED
                                   for link in links if link != s[i].rule_id],
        "drop_realized": [cert._replace(realized=realized[:i] + realized[i + 1:])
                          for i in range(len(realized))],
        "add_realized": [cert._replace(realized=(*realized, max(realized, default=0) + 1))],
        "set_verdict": [cert._replace(verdict=verdict)
                        for verdict in (REALIZED, NONE, TORUS_INFINITE, UNRESOLVED)
                        if verdict != cert.verdict],
    }


def _solves_norm_lps(cert) -> bool:
    # Replaying a (-2,5,q) certificate with q >= 9 solves its 15 norm LPs
    # again, directly or through the not-cyclic annotation's cyclic verdict.
    p, q, r = cert.knot.indices
    return (p, q) == (-2, 5) and r >= 9


@pytest.mark.parametrize("stream", STREAMS)
def test_replay_rejects_every_mutant_of_the_pinned_certificates(stream):
    certs, forged, tried = STREAMS[stream](), [], 0
    for cert in certs:
        genuine = emit_certificate(cert)
        assert replay_certificate(cert), f"{cert.knot} {cert.question}"
        for operator, mutants in _mutants(cert).items():
            for mutant in mutants[:1] if _solves_norm_lps(cert) else mutants:
                if emit_certificate(mutant) != genuine:
                    tried += 1
                    if replay_certificate(mutant):
                        forged.append(f"{cert.knot} {cert.question} {operator}")
    assert tried > len(certs)
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
