"""Certificate replay: every rule's premise, on the certificate's own knot,
must return exactly the inputs the rule recorded, the rows it ``requires``
must come before it, the data must be ``certificate_data``'s for the knot,
and the slope marks, realized slopes and verdict must be the ones
``conclude`` derives from the chain.  A rule records only its id and inputs;
the emitter reads its text and the notes from its row, so none is checked.

Premises, families and what each rule settles all live in one table,
:data:`classify.RULES`.  Two premises rest on a nested computation:
``cyclic_via_finite`` reads the finite verdict of ``classify_finite``, whose
one-entry memo keeps the last knot's immutable certificate (a pure function
of the knot); ``seminorm_infeasibility`` solves the norm LPs again
(``cyclic_infeasibility_minus2_5_q``).  Both names are importable from here.
"""

from __future__ import annotations

from .classify import (RULES, SURVIVORS, Certificate, certificate_data,  # noqa: F401
                       classify_finite, conclude)
from .knots import KnotFamily, PretzelKnot, family
from .norms import cyclic_infeasibility_minus2_5_q  # noqa: F401


def _holds(rows: dict, k: PretzelKnot, fam: KnotFamily, rule_id: str, inputs: dict) -> bool:
    base, colon, u = rule_id.partition(":")
    row = rows.get(base + colon)
    if row is None:
        return False
    if row.family is None:
        return row.premise(k, fam) == inputs
    if fam.tag is not row.family:
        return False
    (p, q), r = fam.odd_pair, -fam.even_value
    if colon:  # u as str(int(u)) spells it: no "+", leading zero or non-ASCII digit
        return (u.removeprefix("-").isdecimal() and str(int(u)) == u
                and row.premise(p, q, r, int(u)) == inputs)
    if row.settles is SURVIVORS:  # the premise is applied to the slopes it eliminates
        survivors = inputs.get("survivors")
        return isinstance(survivors, list) and row.premise(p, q, r, survivors) == inputs
    return row.premise(p, q, r) == inputs


def replay_certificate(cert: Certificate) -> bool:
    """True when the question has a table, the knot is not a link, every rule's
    premise holds on it with exactly the recorded inputs and the rows it
    requires come before it, the data is the knot's, and the slopes, realized
    slopes and verdict are the ones the chain implies."""
    rows, k, fam = RULES.get(cert.question), cert.knot, family(cert.knot)
    if rows is None or not k.is_knot:
        return False
    for i, rule in enumerate(cert.rules):
        if not _holds(rows, k, fam, rule.id, rule.inputs):
            return False
        row = rows.get(rule.id)  # a per-slope rule "id:u" requires nothing
        if row and row.requires and not {r.id for r in cert.rules[:i]}.issuperset(row.requires):
            return False
    slopes = [(s.slope.a, s.slope.b, s.status, s.rule_id) for s in cert.slopes]
    return (cert.data == certificate_data(cert.question, fam)
            and (slopes, cert.realized, cert.verdict) == conclude(cert.rules))
