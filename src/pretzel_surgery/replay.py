"""Certificate replay: derive the certificate again and compare.

:func:`replay_certificate` builds the certificate of the given one's knot and
question afresh, through the same pipelines as classify
(:func:`classify.classify`, which reads no memo of a certificate), and accepts
the given one only if the two are equal: the same rules with the same inputs,
in the same order, and the same realized slopes and verdict.  The order of
the paper's case analysis is written once, in the pipelines; replay keeps no
rule logic of its own.  A certificate stores nothing else: its data, slope
marks, rule text and notes are derived when read, so there is no copy to check.

Two premises rest on a nested computation: ``cyclic_via_finite`` reads the
finite verdict of ``classify_finite``, whose one-entry memo keeps the last
knot's immutable certificate (a pure function of the knot);
``seminorm_infeasibility`` solves the norm LPs again
(``cyclic_infeasibility_minus2_5_q``).  Both names are importable from here.
"""

from __future__ import annotations

from .classify import Certificate, classify, classify_finite  # noqa: F401
from .knots import PretzelKnot, is_canonical
from .norms import cyclic_infeasibility_minus2_5_q  # noqa: F401


def replay_certificate(cert: Certificate) -> bool:
    """True when cert is the certificate that its knot and question derive;
    False for a knot that is a link, not a ``PretzelKnot`` or not in canonical
    form (one built around its validation), a question outside the rule
    table, or a bound the paper proves on a branch that fails on the knot."""
    if not (isinstance(cert.knot, PretzelKnot) and is_canonical(*cert.knot)
            and isinstance(cert.question, str)):
        return False
    try:
        return classify(cert.knot, cert.question) == cert
    except (ValueError, ArithmeticError):
        return False
