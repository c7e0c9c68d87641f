"""Certificate replay: every rule's premise, on the certificate's own knot,
must return exactly the inputs the rule recorded, and the slope marks,
realized slopes and verdict must be the ones ``conclude`` derives from the
chain.

Premises, families and what each rule settles all live in one table,
:data:`classify.RULES`, so classify and replay share each threshold.  A
premise's value is the one classify kept for the same knot, if any
(:func:`classify.premise_value`): running a pure premise again adds no
independence.  Two premises rest on a nested computation, run again:
``cyclic_via_finite`` reads the finite verdict from ``classify_finite``,
which keeps the last knot's run; ``seminorm_infeasibility`` solves the norm
LPs again (``cyclic_infeasibility_minus2_5_q``).  Both names are importable
from here.
"""

from __future__ import annotations

from .classify import (RULES, SURVIVORS, Certificate, classify_finite, conclude,  # noqa: F401
                       premise_value)
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
    if colon:
        return u.removeprefix("-").isdecimal() and row.premise(p, q, r, int(u)) == inputs
    if row.settles is SURVIVORS:  # the premise is applied to the slopes it eliminates
        survivors = inputs.get("survivors")
        return isinstance(survivors, list) and row.premise(p, q, r, survivors) == inputs
    return premise_value(row.premise, (p, q, r)) == inputs


def replay_rule(k: PretzelKnot, rule_id: str, inputs: dict) -> bool:
    """True when the rule's premise holds on k and returns exactly ``inputs``
    (under either question, for a rule both questions use)."""
    base, colon, _ = rule_id.partition(":")
    if not any(base + colon in rows for rows in RULES.values()):
        raise KeyError(f"no rule {rule_id!r} in the table")
    fam = family(k)
    return any(_holds(rows, k, fam, rule_id, inputs) for rows in RULES.values())


def replay_certificate(cert: Certificate) -> bool:
    """True when every rule's premise holds on the certificate's knot with
    exactly the recorded inputs, and the slopes, realized slopes and verdict
    are the ones the chain implies."""
    rows, k = RULES[cert.question], cert.knot
    fam = family(k)
    for rule in cert.rules:
        if not _holds(rows, k, fam, rule.id, rule.inputs):
            return False
    slopes = [(s.slope.a, s.slope.b, s.status, s.rule_id) for s in cert.slopes]
    return (slopes, cert.realized, cert.verdict) == conclude(cert.rules)
