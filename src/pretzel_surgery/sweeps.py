"""Family sweeps with soundness checking.

A sweep classifies every knot in a range, replays each certificate, and
reports violations: a replay failure, an unexpected realized slope, or an
unresolved knot inside a family the classification is supposed to cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import facts
from .classify import (CYCLIC, FINITE_Q, REALIZED, TORUS_INFINITE, UNRESOLVED,
                       Certificate, classify_cyclic, classify_finite)
from .knots import PretzelKnot, canonicalize, enumerate_canonical
from .replay import replay_certificate


@dataclass
class SweepReport:
    question: str
    certificates: list[Certificate] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def realized(self) -> dict[tuple[int, int, int], tuple[int, ...]]:
        return {c.knot.indices: c.realized for c in self.certificates if c.realized}

    @property
    def unresolved(self) -> list[tuple[int, int, int]]:
        return [c.knot.indices for c in self.certificates if c.verdict == UNRESOLVED]


def sweep_cyclic(bound: int) -> SweepReport:
    """Classify cyclic surgeries on every canonical triple with |index| <= bound."""
    report = SweepReport(CYCLIC)
    for k in enumerate_canonical(bound):
        if not k.is_knot:
            continue
        cert = classify_cyclic(k)
        report.certificates.append(cert)
        if not replay_certificate(cert):
            report.violations.append(f"replay failed for {k}")
        if cert.verdict == REALIZED:
            expected = facts.known_cyclic_minus2_3(k.indices[2]) \
                if k.indices[:2] == (-2, 3) else None
            if expected is None or tuple(cert.realized) != tuple(expected):
                report.violations.append(f"unexpected realized slopes for {k}")
    return report


def _pqr_knots(p_range: tuple[int, int], q_range: tuple[int, int],
               r_range: tuple[int, int]) -> Iterator[PretzelKnot]:
    for p in range(p_range[0], p_range[1] + 1):
        if p % 2 == 0:
            continue
        for q in range(max(p, q_range[0]), q_range[1] + 1):
            if q % 2 == 0:
                continue
            for r in range(r_range[0], r_range[1] + 1):
                if r % 2:
                    continue
                yield canonicalize(p, q, -r)


def sweep_finite(p_range=(3, 15), q_range=(3, 15), r_range=(4, 16)) -> SweepReport:
    """Classify finite surgeries over the (p,q,-r) family ranges (inclusive)."""
    report = SweepReport(FINITE_Q)
    for k in _pqr_knots(p_range, q_range, r_range):
        cert = classify_finite(k)
        report.certificates.append(cert)
        if not replay_certificate(cert):
            report.violations.append(f"replay failed for {k}")
        if cert.verdict == REALIZED:
            report.violations.append(f"realized finite slope on {k}")
        elif cert.verdict == UNRESOLVED:
            report.violations.append(f"uncovered triple {k}")
        elif cert.verdict == TORUS_INFINITE:
            report.violations.append(f"torus triple unexpectedly in family sweep: {k}")
    return report
