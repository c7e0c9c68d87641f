"""Family sweeps with soundness checking.

A sweep classifies every knot in a range, replays each certificate, and
reports violations: a replay failure, an unexpected realized slope, or an
unresolved knot inside a family the classification is supposed to cover.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import facts
from .classify import (CYCLIC, FINITE_Q, REALIZED, TORUS_INFINITE, UNRESOLVED,
                       Certificate, classify_cyclic, classify_finite)
from .knots import PretzelKnot, enumerate_canonical
from .replay import replay_certificate


class SweepReport(NamedTuple):
    question: str
    certificates: list[Certificate]
    violations: list[str]

    @property
    def realized(self) -> dict[tuple[int, int, int], tuple[int, ...]]:
        return {c.knot.indices: c.realized for c in self.certificates if c.realized}

    @property
    def unresolved(self) -> list[tuple[int, int, int]]:
        return [c.knot.indices for c in self.certificates if c.verdict == UNRESOLVED]


def sweep_cyclic(bound: int) -> SweepReport:
    """Classify cyclic surgeries on every canonical knot with |index| <= bound."""
    certificates, violations = [], []
    for k in enumerate_canonical(bound):
        cert = classify_cyclic(k)
        certificates.append(cert)
        if not replay_certificate(cert):
            violations.append(f"replay failed for {k}")
        if cert.verdict == REALIZED:
            expected = facts.published_minus2_3(CYCLIC, k.indices[2]) \
                if k.indices[:2] == (-2, 3) else None
            if expected is None or cert.realized != expected:
                violations.append(f"unexpected realized slopes for {k}")
    return SweepReport(CYCLIC, certificates, violations)


def pqr_knots(p_range: tuple[int, int], q_range: tuple[int, int],
              r_range: tuple[int, int]) -> Iterator[PretzelKnot]:
    """The (p,q,-r) knots with odd p <= q and even r in the inclusive ranges, in
    sweep order.  No p above q's range and no empty r range is walked, so a box
    that holds no knot is seen at once.  A box reaching below the family
    (p, q >= 3, r >= 4) raises ValueError; inside it each knot is (-r, p, q)."""
    for name, (lo, _), least in zip("pqr", (p_range, q_range, r_range), (3, 3, 4)):
        if lo < least:
            raise ValueError(f"{name} bounds must be >= {least}, got {lo}")
    (p_lo, p_hi), (q_lo, q_hi), (r_lo, r_hi) = p_range, q_range, r_range
    rs = range(r_lo + r_lo % 2, r_hi + 1, 2)
    if not rs:
        return
    for p in range(p_lo | 1, min(p_hi, q_hi) + 1, 2):
        for q in range(max(p, q_lo) | 1, q_hi + 1, 2):
            for r in rs:
                yield tuple.__new__(PretzelKnot, (-r, p, q))  # canonical by the bounds


def sweep_finite(p_range=(3, 15), q_range=(3, 15), r_range=(4, 16)) -> SweepReport:
    """Classify finite surgeries over the (p,q,-r) family ranges (inclusive)."""
    certificates, violations = [], []
    for k in pqr_knots(p_range, q_range, r_range):
        cert = classify_finite(k)
        certificates.append(cert)
        if not replay_certificate(cert):
            violations.append(f"replay failed for {k}")
        if cert.verdict == REALIZED:
            violations.append(f"realized finite slope on {k}")
        elif cert.verdict == UNRESOLVED:
            violations.append(f"uncovered triple {k}")
        elif cert.verdict == TORUS_INFINITE:
            violations.append(f"torus triple unexpectedly in family sweep: {k}")
    return SweepReport(FINITE_Q, certificates, violations)
