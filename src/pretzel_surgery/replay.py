"""Certificate replay: re-evaluate every applied rule's premise from its
recorded inputs.  A certificate passes only if each elimination or table
lookup still checks out when recomputed from scratch, and every knot
parameter a rule records is the certificate's own.
"""

from __future__ import annotations

from . import facts
from .boundary import (nonintegral_slopes_minus2_pq, nonintegral_slopes_pq_minus_r,
                       small_p_value, toroidal_gaps_large_p, toroidal_slope)
from .classify import (NONE, Certificate, _coxeter_window, _integer_candidates,
                       classify_finite, quotient_certified_infinite)
from .coxeter import CoxeterSignature
from .knots import (FamilyTag, PretzelKnot, TorusStatus, family, hyperbolicity_condition,
                    torus_status, triangle_slack)
from .norms import cyclic_infeasibility_minus2_5_q
from .presentations import longitude_triviality_check
from .slopes import distance, make_slope
from .triangle import irreducible_char_count


def _records_knot(k: PretzelKnot, inputs: dict, keys: str) -> bool:
    """True when k is a (p,q,-r) knot and the inputs record its own value of
    each parameter named in keys: p, q, r, or m = r/2."""
    fam = family(k)
    if fam.tag is not FamilyTag.PQ_MINUS_R:
        return False
    (p, q), r = fam.odd_pair, -fam.even_value
    own = {"p": p, "q": q, "r": r, "m": r // 2}
    return all(inputs.get(key) == own[key] for key in keys)


def _check_torus(k, inputs):
    return torus_status(k) is TorusStatus.TORUS


def _check_unclassified(k, inputs):
    return torus_status(k) is TorusStatus.UNCLASSIFIED


def _check_other_family(k, inputs):
    return (torus_status(k) is TorusStatus.NOT_TORUS
            and family(k).tag is FamilyTag.OTHER)


def _check_cyclic_via_finite(k, inputs):
    return (family(k).tag is FamilyTag.PQ_MINUS_R
            and classify_finite(k).verdict == NONE)


def _check_published(k, inputs, known):
    if k.indices != (-2, 3, inputs["q"]):
        return False
    got = known(inputs["q"])
    return got is not None and list(got) == inputs["slopes"]


def _check_known_examples(k, inputs):
    if k.indices[:2] != (-2, 3) or not inputs["slopes"]:
        return False
    return any(list(known(k.r) or ()) == inputs["slopes"]
               for known in (facts.known_cyclic_minus2_3, facts.known_finite_minus2_3))


def _check_no_nonintegral(k, inputs):
    fam = family(k)
    if fam.tag is FamilyTag.MINUS2_PQ:
        return nonintegral_slopes_minus2_pq(*fam.odd_pair).is_empty
    return (fam.tag is FamilyTag.PQ_MINUS_R
            and nonintegral_slopes_pq_minus_r(*fam.odd_pair, -fam.even_value).is_empty)


def _check_proximity_window(k, inputs, odd_only):
    fam = family(k)
    if fam.tag is FamilyTag.MINUS2_PQ:
        bset = nonintegral_slopes_minus2_pq(*fam.odd_pair)
    elif fam.tag is FamilyTag.PQ_MINUS_R:
        bset = nonintegral_slopes_pq_minus_r(*fam.odd_pair, -fam.even_value)
    else:
        return False
    return (_integer_candidates(bset, odd_only=odd_only) == inputs["candidates"]
            and [str(s) for s in bset.slopes] == inputs["slopes"])


def _check_lens_distance(k, inputs):
    d = distance(make_slope(inputs["slope"], 1), toroidal_slope(k))
    return d == inputs["distance"] and d > 5


def _check_snappea(k, inputs):
    return inputs["slope"] in facts.SNAPPEA_HYPERBOLIC_FILLINGS.get(k.indices, ())


def _check_seminorm(k, inputs):
    q = inputs["q"]
    if k.indices != (-2, 5, q) or inputs["slope"] != 2 * q + 5:
        return False
    report = cyclic_infeasibility_minus2_5_q(q)
    return (report.infeasible_for_all_pairs
            and len(report.verdicts) == inputs["pairs"]
            and [[str(w) for w in v.witness] for v in report.verdicts]
            == inputs["witnesses"])


def _check_exceptional_knot(k, inputs):
    return (_records_knot(k, inputs, "pqr")
            and (inputs["p"], inputs["q"], inputs["r"]) in facts.EXCEPTIONAL_PQR
            and not hyperbolicity_condition(k))


def _check_parity(k, inputs):
    if not (_records_knot(k, inputs, "pqm") and inputs["longitude_collapses"] is True):
        return False
    p, q, m = inputs["p"], inputs["q"], inputs["m"]
    return triangle_slack(p, q, m) >= 0 and longitude_triviality_check(p, q, 2 * m)


def _check_hyperbolic_context(k, inputs):
    # These rules record nothing: the argument rests on the knot alone.
    return (not inputs and family(k).tag is FamilyTag.PQ_MINUS_R
            and hyperbolicity_condition(k))


def _check_norm_floor(k, inputs):
    if not _records_knot(k, inputs, "pqm"):
        return False
    p, q, m = inputs["p"], inputs["q"], inputs["m"]
    irr = irreducible_char_count(p, q, m)
    return triangle_slack(p, q, m) > 0 and irr >= 3 and irr == inputs["irreducible_characters"]


def _check_large_gap(k, inputs):
    if not _records_knot(k, inputs, "pqr"):
        return False
    p, q, r = inputs["p"], inputs["q"], inputs["r"]
    if not p > 2 * r + 1:
        return False
    gaps = toroidal_gaps_large_p(p, q, r)
    return [str(g) for g in gaps] == inputs["gaps"] and all(g >= 11 for g in gaps)


def _check_small_gap(k, inputs):
    if not _records_knot(k, inputs, "pqr"):
        return False
    p, q, r = inputs["p"], inputs["q"], inputs["r"]
    if not p <= r - 5:
        return False
    gap = abs(small_p_value(p, q, r) - 2 * (p + q))
    return str(gap) == inputs["gap"] and gap > 10


def _check_exceptional_distance(k, inputs):
    d = distance(make_slope(inputs["slope"], 1), toroidal_slope(k))
    return d == inputs["distance"] and d > 9


def _check_quotient_infinite(k, inputs):
    two, a, b, c = inputs["signature"]
    if two != 2:
        return False
    return quotient_certified_infinite(CoxeterSignature(a, b, c))


def _check_coxeter_window(k, inputs):
    if not _records_knot(k, inputs, "pqr"):
        return False
    p, q, r = inputs["p"], inputs["q"], inputs["r"]
    window = _coxeter_window(p, r)
    dists = [[s, abs(2 * (p + q) - s)] for s, _ in window]
    return window == inputs["window"] and dists == inputs["distances"]


def _check_residual_window(k, inputs):
    return _records_knot(k, inputs, "pr") and facts.in_residual_window(inputs["p"], inputs["r"])


def _check_not_cyclic_note(k, inputs):
    from .classify import classify_cyclic
    return (k.indices == (-2, inputs["p"], inputs["q"])
            and classify_cyclic(k).verdict == NONE)


_CHECKS = {
    "torus_pretzel": _check_torus,
    "unclassified_indices": _check_unclassified,
    "lamination_form": _check_other_family,
    "cyclic_via_finite": _check_cyclic_via_finite,
    "published_minus2_3_cyclic": lambda k, i: _check_published(k, i, facts.known_cyclic_minus2_3),
    "published_minus2_3_finite": lambda k, i: _check_published(k, i, facts.known_finite_minus2_3),
    "known_examples": _check_known_examples,
    "no_nonintegral_slopes": _check_no_nonintegral,
    "nonintegral_proximity": lambda k, i: _check_proximity_window(k, i, False),
    "finite_window": lambda k, i: _check_proximity_window(k, i, True),
    "lens_toroidal_distance": _check_lens_distance,
    "snappea_hyperbolic": _check_snappea,
    "seminorm_infeasibility": _check_seminorm,
    "exceptional_knot_table": _check_exceptional_knot,
    "even_numerator_infinite": _check_parity,
    "denominator_bound": _check_hyperbolic_context,
    "even_norm_floor": _check_norm_floor,
    "half_integral_excluded": _check_hyperbolic_context,
    "odd_uniqueness": _check_hyperbolic_context,
    "toroidal_gap_large_p": _check_large_gap,
    "toroidal_gap_small_p": _check_small_gap,
    "exceptional_distance": _check_exceptional_distance,
    "coxeter_quotient_infinite": _check_quotient_infinite,
    "coxeter_distance_window": _check_coxeter_window,
    "residual_case_table": _check_residual_window,
    "not_cyclic_annotation": _check_not_cyclic_note,
}


def replay_rule(k: PretzelKnot, rule_id: str, inputs: dict) -> bool:
    base = rule_id.split(":", 1)[0]
    check = _CHECKS.get(base)
    if check is None:
        raise KeyError(f"no replay check registered for rule {rule_id!r}")
    return bool(check(k, inputs))


def replay_certificate(cert: Certificate) -> bool:
    """True when every applied rule's premise re-evaluates from its inputs."""
    for rule in cert.rules:
        if not replay_rule(cert.knot, rule.id, rule.inputs):
            return False
    # Every eliminated slope must name a rule present in the chain.
    ids = {r.id for r in cert.rules}
    for status in cert.slopes:
        if status.status == "ELIMINATED" and status.rule_id not in ids:
            return False
    return True
