"""Symbolic total-norm model over a boundary-slope list, with exact feasibility.

The total norm of a primitive class g is modeled as the linear form

    |g| = 2 * sum_i a_i * distance(g, beta_i)

in unknown nonnegative coefficients a_1..a_n, together with the minimal
positive norm S.  Every rule in this module manipulates such forms exactly;
feasibility questions go through :mod:`pretzel_surgery.linprog` and return
either exact rational sample points or Farkas witnesses.  Every row is
integral, as :func:`linprog.row` requires: the coefficients are
``2 * distance``, the right-hand sides 0, and the positivity rows unit rows.
:func:`_pair_systems` builds the pairwise ``(-2,5,q)`` systems once, for
both the solve and the re-verification of its witnesses.

Infeasibility over nonnegative rationals implies infeasibility over the
nonnegative integers the geometric model calls for, which is the only
direction the classifier ever uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linprog
from .boundary import slope_list_minus2_5_q
from .linprog import EQ, GE, LinearRow
from .slopes import MERIDIAN, Slope, distance, make_slope


def norm_coefficients(boundary: tuple[Slope, ...], gamma: Slope) -> tuple[int, ...]:
    """Coefficients (2 * distance(gamma, beta_i)) of the total-norm form."""
    if not boundary:
        raise ValueError("boundary slope list must be nonempty")
    coeffs = tuple(2 * distance(gamma, b) for b in boundary)
    if any(c % 2 for c in coeffs):
        raise ArithmeticError(f"odd norm coefficient in {coeffs}")
    return coeffs


@dataclass(frozen=True)
class NormConstraint:
    """A relation  |gamma| (EQ|GE|LE) S  over a fixed boundary list."""

    gamma: Slope
    coeffs: tuple[int, ...]
    rel: str

    @property
    def label(self) -> str:
        return f"|{self.gamma}| {self.rel} S"

    def to_json(self) -> dict:
        return {"gamma": str(self.gamma), "kind": self.rel, "rhs": "S"}


@dataclass
class NormSystem:
    """A boundary list plus norm constraints; variables are (a_1..a_n, S)."""

    boundary: tuple[Slope, ...]
    constraints: list[NormConstraint] = field(default_factory=list)

    def add(self, gamma: Slope, rel: str) -> NormConstraint:
        c = NormConstraint(gamma, norm_coefficients(self.boundary, gamma), rel)
        self.constraints.append(c)
        return c

    @property
    def nvars(self) -> int:
        return len(self.boundary) + 1

    def lp_rows(self) -> list[LinearRow]:
        """|gamma| - S (rel) 0 per constraint."""
        return [linprog.row(c.coeffs + (-1,), c.rel, 0, c.label) for c in self.constraints]

    def to_json(self) -> dict:
        return {
            "boundary": [str(b) for b in self.boundary],
            "constraints": [c.to_json() for c in self.constraints],
        }


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of one pairwise feasibility test of a homogeneous norm system."""

    feasible: bool
    pair_tested: tuple[int, int]
    sample: tuple[Fraction, ...] | None = None
    witness: tuple[Fraction, ...] | None = None
    row_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class PairwiseInfeasibilityReport:
    q: int
    system: NormSystem
    verdicts: tuple[FeasibilityVerdict, ...]

    @property
    def infeasible_for_all_pairs(self) -> bool:
        return all(not v.feasible for v in self.verdicts)

    @property
    def offending_pair(self) -> tuple[int, int] | None:
        for v in self.verdicts:
            if v.feasible:
                return v.pair_tested
        return None

    def to_json(self) -> dict:
        out = self.system.to_json()
        out["verdict"] = "INFEASIBLE" if self.infeasible_for_all_pairs else "FEASIBLE"
        out["pairs"] = [
            {
                "pair": list(v.pair_tested),
                "feasible": v.feasible,
                "witness": [str(w) for w in v.witness] if v.witness else None,
                "rows": list(v.row_labels),
            }
            for v in self.verdicts
        ]
        return out


def minus2_5q_norm_system(q: int) -> NormSystem:
    """The norm model asserting that 2q+5 is a minimal-norm filling of (-2,5,q):
    |mu| = S, |2q+5| = S and |2q+4| >= S over the full boundary-slope list."""
    boundary = slope_list_minus2_5_q(q).slopes
    system = NormSystem(boundary)
    system.add(MERIDIAN, EQ)
    system.add(make_slope(2 * q + 5, 1), EQ)
    system.add(make_slope(2 * q + 4, 1), GE)
    return system


def _pair_systems(q: int) -> tuple[NormSystem, dict[tuple[int, int], list[LinearRow]]]:
    """The (-2,5,q) norm system and, for every pair i < j of boundary slopes,
    its rows with S >= 1, a_i >= 1 and a_j >= 1 appended (by scale invariance
    this captures every norm with at least two nonzero coefficients)."""
    system = minus2_5q_norm_system(q)
    n = len(system.boundary)

    def unit(k: int, label: str) -> LinearRow:
        return linprog.row([int(i == k) for i in range(n + 1)], GE, 1, label)

    base = system.lp_rows() + [unit(n, "S >= 1")]
    a = [unit(k, f"a{k + 1} >= 1") for k in range(n)]
    return system, {(i, j): base + [a[i], a[j]] for i, j in combinations(range(n), 2)}


def cyclic_infeasibility_minus2_5_q(q: int) -> PairwiseInfeasibilityReport:
    """Pairwise feasibility of the (-2,5,q) cyclic-surgery norm model, q >= 9 odd.

    All pairs of :func:`_pair_systems` infeasible refutes the assumption that
    2q+5 is a cyclic filling.
    """
    if q % 2 == 0 or q < 9:
        raise ValueError(
            f"pairwise norm contradiction needs odd q >= 9 (q={q}); "
            "smaller q are settled by explicit slope lists or external facts")
    system, pairs = _pair_systems(q)
    verdicts = []
    for pair, rows in pairs.items():
        result = linprog.solve_feasibility(rows, system.nvars)
        verdicts.append(FeasibilityVerdict(
            feasible=result.feasible,
            pair_tested=pair,
            sample=result.point,
            witness=result.witness,
            row_labels=tuple(r.label for r in rows),
        ))
    return PairwiseInfeasibilityReport(q, system, tuple(verdicts))


def verify_infeasibility_report(report: PairwiseInfeasibilityReport) -> bool:
    """Re-verify every Farkas witness of a report from scratch."""
    _, pairs = _pair_systems(report.q)
    return ([v.pair_tested for v in report.verdicts] == list(pairs)
            and all(not v.feasible and v.witness is not None
                    and linprog.verify_witness(pairs[v.pair_tested], v.witness)
                    for v in report.verdicts))
