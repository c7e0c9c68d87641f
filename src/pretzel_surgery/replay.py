"""Certificate replay: every rule's premise, on the certificate's own knot,
must return exactly the inputs (a dict) the rule recorded, the rows it
``requires`` must come before it, each per-slope rule must mark its slope, a
rule's survivors must be exactly the candidates still open before it, and
the realized slopes and verdict must be the ones ``conclude`` derives from
the chain.  A certificate stores nothing else: its data, slope marks, rule
text and notes are derived when read, so there is no copy to check.

Premises, families and what each rule settles all live in one table,
:data:`classify.RULES`.  Two premises rest on a nested computation:
``cyclic_via_finite`` reads the finite verdict of ``classify_finite``, whose
one-entry memo keeps the last knot's immutable certificate (a pure function
of the knot); ``seminorm_infeasibility`` solves the norm LPs again
(``cyclic_infeasibility_minus2_5_q``).  Both names are importable from here.
"""

from __future__ import annotations

from .classify import (RULES, STATUS_UNRESOLVED, SURVIVORS, Certificate,  # noqa: F401
                       classify_finite, conclude)
from .knots import KnotFamily, PretzelKnot, family
from .norms import cyclic_infeasibility_minus2_5_q  # noqa: F401


def _holds(rows: dict, k: PretzelKnot, fam: KnotFamily, rule_id: str, inputs: dict) -> bool:
    base, colon, u = rule_id.partition(":")
    row = rows.get(base + colon)
    if row is None or not isinstance(inputs, dict):
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
    requires come before it, every per-slope rule marks its slope, the
    survivors of a rule are the candidates open before it, and the realized
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
        if row and row.settles is SURVIVORS and rule.inputs["survivors"] != [
                a for a, _, s, _ in conclude(cert.rules[:i])[0] if s == STATUS_UNRESOLVED]:
            return False  # it eliminates exactly the candidates still open, in order
    marks, realized, verdict = conclude(cert.rules)
    linked = [rule for *_, rule in marks if rule and ":" in rule]  # one mark per "id:u" rule
    return (realized, verdict) == (cert.realized, cert.verdict) and linked == [
        r.id for r in cert.rules if ":" in r.id]
