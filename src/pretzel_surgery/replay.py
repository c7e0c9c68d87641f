"""Certificate replay: every computed rule's premise, recomputed on the
certificate's own knot, must return exactly the inputs the rule recorded.

The premises live in :mod:`classify`, one per rule, so classify and replay
share each threshold.  Two premises rest on a nested computation: the one of
``cyclic_via_finite`` reads the knot's finite verdict from
``classify_finite``, which keeps the last knot's run, so replaying right
after classifying reuses it; the one of ``seminorm_infeasibility`` solves
the norm LPs again (``cyclic_infeasibility_minus2_5_q``).  Both names are
importable from here too.  Replay also checks that each eliminated slope is
the one its rule names, that a window rule's candidates are each settled by
exactly one mark, and that the verdict follows from the chain.
"""

from __future__ import annotations

from .classify import (
    CYCLIC, FINITE_Q, NONE, REALIZED, STATUS_ELIMINATED, STATUS_REALIZED, STATUS_UNRESOLVED,
    TORUS_INFINITE, UNRESOLVED, Certificate, classify_finite, coxeter_distance_window,
    coxeter_quotient_infinite, cyclic_via_finite, even_norm_floor, even_numerator_infinite,
    exceptional_distance, exceptional_knot_table, finite_window, known_examples,
    lens_toroidal_distance, no_nonintegral_slopes, nonintegral_proximity,
    not_cyclic_annotation, published_minus2_3_cyclic, published_minus2_3_finite,
    residual_case_table, seminorm_infeasibility, snappea_hyperbolic, strict_triangle,
    toroidal_gap_large_p, toroidal_gap_small_p)
from .knots import FamilyTag, KnotFamily, PretzelKnot, TorusStatus, family, torus_status
from .norms import cyclic_infeasibility_minus2_5_q

# The opening rules record nothing and hold on the knot's torus status and
# family alone.
_OPENING = {
    "torus_pretzel": lambda k, fam: fam.tag is FamilyTag.TORUS,
    "unclassified_indices": lambda k, fam: torus_status(k) is TorusStatus.UNCLASSIFIED,
    "lamination_form": lambda k, fam: (fam.tag is FamilyTag.OTHER
                                       and torus_status(k) is TorusStatus.NOT_TORUS),
}

_M2 = (FamilyTag.MINUS2_PQ,)
_PQR = (FamilyTag.PQ_MINUS_R,)

# rule id -> (the families it applies to, its premise).  A per-slope rule
# "id:u" is keyed "id:" and its premise also takes u.
_RULES = {
    "cyclic_via_finite": (_PQR, cyclic_via_finite),
    "published_minus2_3_cyclic": (_M2, published_minus2_3_cyclic),
    "published_minus2_3_finite": (_M2, published_minus2_3_finite),
    "known_examples": (_M2, known_examples),
    "no_nonintegral_slopes": (_M2 + _PQR, no_nonintegral_slopes),
    "nonintegral_proximity": (_M2, nonintegral_proximity),
    "lens_toroidal_distance:": (_M2, lens_toroidal_distance),
    "snappea_hyperbolic:": (_M2, snappea_hyperbolic),
    "seminorm_infeasibility:": (_M2, seminorm_infeasibility),
    "not_cyclic_annotation": (_M2, not_cyclic_annotation),
    "exceptional_knot_table": (_PQR, exceptional_knot_table),
    "even_numerator_infinite": (_PQR, even_numerator_infinite),
    "denominator_bound": (_PQR, strict_triangle),
    "even_norm_floor": (_PQR, even_norm_floor),
    "half_integral_excluded": (_PQR, strict_triangle),
    "odd_uniqueness": (_PQR, strict_triangle),
    "finite_window": (_PQR, finite_window),
    "toroidal_gap_large_p": (_PQR, toroidal_gap_large_p),
    "toroidal_gap_small_p": (_PQR, toroidal_gap_small_p),
    "exceptional_distance:": (_PQR, exceptional_distance),
    "coxeter_quotient_infinite:": (_PQR, coxeter_quotient_infinite),
    "coxeter_distance_window": (_PQR, coxeter_distance_window),
    "residual_case_table": (_PQR, residual_case_table),
}


# The window rules: rule id -> the candidates its inputs list.  The slopes a
# certificate marks, other than realized ones, are exactly these candidates.
_WINDOWS = {
    "finite_window": lambda inputs: inputs["candidates"],
    "nonintegral_proximity": lambda inputs: inputs["candidates"],
    "coxeter_distance_window": lambda inputs: [s for s, _ in inputs["window"]],
}


def _holds(k: PretzelKnot, fam: KnotFamily, rule_id: str, inputs: dict,
           questions: tuple[str, ...]) -> bool:
    opening = _OPENING.get(rule_id)
    if opening is not None:
        return inputs == {} and opening(k, fam)
    base, colon, u = rule_id.partition(":")
    entry = _RULES.get(base + colon)
    if entry is None:
        raise KeyError(f"no replay check registered for rule {rule_id!r}")
    families, premise = entry
    if fam.tag not in families:
        return False
    (p, q), r = fam.odd_pair, -fam.even_value
    if colon:
        return u.removeprefix("-").isdecimal() and premise(p, q, r, int(u)) == inputs
    if premise is known_examples:  # realized under the certificate's question
        return any(premise(p, q, r, question) == inputs for question in questions)
    if premise is residual_case_table:  # the slopes it eliminates are checked as links
        survivors = inputs.get("survivors")
        return isinstance(survivors, list) and premise(p, q, r, survivors) == inputs
    return premise(p, q, r) == inputs


def replay_rule(k: PretzelKnot, rule_id: str, inputs: dict) -> bool:
    """True when the rule's premise holds on k and returns exactly ``inputs``
    (under either question, for a rule whose premise depends on it)."""
    return _holds(k, family(k), rule_id, inputs, (CYCLIC, FINITE_Q))


def replay_certificate(cert: Certificate) -> bool:
    """True when every rule replays on the certificate's knot, every
    eliminated slope is linked to its rule (``coxeter_distance_window``: one
    at recorded distance > 9), every window candidate is marked once, and
    the verdict and realized slopes follow from the chain."""
    k, questions, ids, candidates = cert.knot, (cert.question,), set(), []
    fam = family(k)
    for rule in cert.rules:
        if not _holds(k, fam, rule.id, rule.inputs, questions):
            return False
        ids.add(rule.id)
        window = _WINDOWS.get(rule.id)
        if window is not None:
            candidates += window(rule.inputs)
    unresolved = "unclassified_indices" in ids or "not_cyclic_annotation" in ids
    if cert.slopes or cert.realized or candidates:
        for s in cert.slopes:
            # An eliminated slope names a rule of the chain, and "id:u" names u.
            if s.status == STATUS_ELIMINATED and (
                    s.rule_id not in ids or s.rule_id.partition(":")[2] not in ("", str(s.slope))):
                return False
            unresolved = unresolved or s.status == STATUS_UNRESOLVED
        survivors = [u for rule in cert.rules if rule.id == "residual_case_table"
                     for u in rule.inputs["survivors"]]
        # The window slopes beyond the exceptional-distance bound (9).
        far = [u for rule in cert.rules if rule.id == "coxeter_distance_window"
               for u, dist in rule.inputs["distances"] if dist > exceptional_distance.args[0]]
        for marked, listed in (
                ([s.slope for s in cert.slopes if s.rule_id == "residual_case_table"], survivors),
                ([s.slope for s in cert.slopes if s.rule_id == "coxeter_distance_window"], far),
                ([s.slope for s in cert.slopes if s.status == STATUS_REALIZED], cert.realized)):
            if [(s.a, s.b) for s in marked] != [(u, 1) for u in listed]:
                return False
        settled = sorted((s.slope.a, s.slope.b) for s in cert.slopes
                         if s.status != STATUS_REALIZED)
        if settled != [(u, 1) for u in sorted(candidates)]:
            return False
    verdict = (TORUS_INFINITE if "torus_pretzel" in ids else REALIZED if cert.realized
               else UNRESOLVED if unresolved else NONE)
    return cert.verdict == verdict
