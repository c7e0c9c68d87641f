"""Symbolic total-norm model over a boundary-slope list, with exact feasibility.

The total norm of a primitive class g is modeled as the linear form

    |g| = 2 * sum_i a_i * distance(g, beta_i)

in unknown nonnegative coefficients a_1..a_n, together with the minimal
positive norm S.  Every rule in this module manipulates such forms exactly;
feasibility questions go through :mod:`pretzel_surgery.linprog` and return
either exact rational sample points or Farkas witnesses.  Every row is
an integral ``=`` or ``>=`` row with a right-hand side ``>= 0``, the one shape
:func:`linprog.row` takes: the coefficients are ``2 * distance``, the
right-hand sides 0, and the positivity rows unit ``>= 1`` rows.
:func:`_pair_systems` builds the pairwise ``(-2,5,q)`` rows, for both the
solve and the re-verification of its witnesses.  A report holds those rows
and the solver's own result on each pair (a :class:`linprog.FeasibilityResult`),
in pair order; :func:`verify_infeasibility_report` rebuilds the rows from
``q`` and reads nothing else of the report but those results.

Infeasibility over nonnegative rationals implies infeasibility over the
nonnegative integers the geometric model calls for, which is the only
direction the classifier ever uses.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import NamedTuple

from . import linprog
from .boundary import slope_list_minus2_5_q
from .linprog import EQ, GE, LinearRow
from .slopes import MERIDIAN, Slope, distance, make_slope


def norm_coefficients(boundary: tuple[Slope, ...], gamma: Slope) -> tuple[int, ...]:
    """Coefficients (2 * distance(gamma, beta_i)) of the total-norm form."""
    if not boundary:
        raise ValueError("boundary slope list must be nonempty")
    return tuple(2 * distance(gamma, b) for b in boundary)


class NormSystem(namedtuple("NormSystem", "boundary constraints")):
    """A boundary list plus norm relations  |gamma| (EQ|GE) S,  each kept as
    gamma and its row  |gamma| - S (rel) 0  over the variables (a_1..a_n, S).
    A system built without a constraint list gets a new empty one."""

    __slots__ = ()

    def __new__(cls, boundary: tuple[Slope, ...],
                constraints: list[tuple[Slope, LinearRow]] | None = None) -> NormSystem:
        return tuple.__new__(cls, (boundary, [] if constraints is None else constraints))

    def add(self, gamma: Slope, rel: str) -> None:
        coeffs = norm_coefficients(self.boundary, gamma) + (-1,)
        self.constraints.append((gamma, linprog.row(coeffs, rel, 0, f"|{gamma}| {rel} S")))

    @property
    def nvars(self) -> int:
        return len(self.boundary) + 1

    def to_json(self) -> dict:
        return {
            "boundary": [str(b) for b in self.boundary],
            "constraints": [{"gamma": str(gamma), "kind": r.rel, "rhs": "S"}
                            for gamma, r in self.constraints],
        }


class PairwiseInfeasibilityReport(NamedTuple):
    """The solver's result on each pair's rows, in the order of ``pairs``."""

    q: int
    system: NormSystem
    pairs: dict[tuple[int, int], list[LinearRow]]
    verdicts: tuple[linprog.FeasibilityResult, ...]

    @property
    def infeasible_for_all_pairs(self) -> bool:
        return all(not v.feasible for v in self.verdicts)

    def to_json(self) -> dict:
        out = self.system.to_json()
        out["verdict"] = "INFEASIBLE" if self.infeasible_for_all_pairs else "FEASIBLE"
        out["pairs"] = [
            {
                "pair": list(pair),
                "feasible": v.feasible,
                "witness": [str(w) for w in v.witness] if v.witness else None,
                "rows": [r.label for r in rows],
            }
            for (pair, rows), v in zip(self.pairs.items(), self.verdicts)
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

    base = [r for _, r in system.constraints] + [unit(n, "S >= 1")]
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
    return PairwiseInfeasibilityReport(q, system, pairs, tuple(
        linprog.solve_feasibility(rows, system.nvars) for rows in pairs.values()))


def verify_infeasibility_report(report: PairwiseInfeasibilityReport) -> bool:
    """Re-verify every Farkas witness of a report against rows rebuilt from
    ``report.q`` alone, zipped with ``report.verdicts`` by position."""
    _, pairs = _pair_systems(report.q)
    return len(report.verdicts) == len(pairs) and all(
        not v.feasible and v.witness is not None and linprog.verify_witness(rows, v.witness)
        for rows, v in zip(pairs.values(), report.verdicts))
