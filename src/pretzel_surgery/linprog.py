"""Exact linear feasibility over integer rows, with replayable Farkas certificates.

A small phase-one simplex with Bland's pivoting rule decides systems
``{A x (>=|=) b, b >= 0, x >= 0}`` whose coefficients and right-hand sides
are ints, the one shape the norm model builds (:func:`row` rejects anything
else).  Feasible systems come back with an exact rational sample point;
infeasible ones with a rational dual witness ``y`` such that

* ``y_i >= 0`` on ``>=`` rows and free on ``=`` rows,
* ``sum_i y_i A_i <= 0`` in every column, and
* ``sum_i y_i b_i > 0``.

The simplex pivots fraction-free over ``int`` (Bareiss; the integer
pivoting of Avis's ``lrs``) on an exchange tableau ``M``: a row per basic
variable and one for the phase-one objective, a column per nonbasic
variable (``cols[k]`` names it) and the right-hand side.  It starts from the
rows, a ``-1`` surplus column per ``>=`` row and the artificials as basis.
Row ``i`` is the true row times its own ``D[i] > 0``, the basis determinant
``d`` at its last update (1 at the start).  A pivot on column ``s`` and row
``r`` brings a stale pivot row to ``d`` and takes ``p = M[r][s]``.  A row with
``f = M[i][s] == 0`` is left alone; any other becomes
``(M[i][j]*p - f*M[r][j]) // D[i]``, with ``-(f*d // D[i])`` in column ``s``.
The pivot row keeps its entries, with ``d`` in column ``s``.  Those rows'
``D`` and ``d`` become ``p``; the leaving variable's column takes column
``s``'s place.  The objective row has ``f < 0``, so it is always current.
Each row is a Bareiss row of a basis met on the way: by Sylvester's identity
its entries are minors of the starting matrix, and every division is exact.

The pivots are the simplex's on the full ``Fraction`` tableau: Bland's
entering rule reads only signs of the objective row, and the ratio test
compares ``rhs/a`` within a row, where ``D[i]`` cancels (ties go to the lower
basis number).  So the point (``M[i][-1] / D[i]`` on basic ``x``) and the
duals (``(d - cost) / d`` per artificial, 0 while basic) are the same
``Fraction``s as there, made at the end.

Soundness rests on the re-checks: before the solver returns, the point or
witness is verified in exact integer arithmetic after clearing its
denominators (:func:`satisfies`, :func:`verify_witness`), reading only the
rows and the vector, never ``M``, ``D`` or the basis; a vector that fails
raises ``ArithmeticError``.  Callers repeat the check on replay.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index, mul
from typing import NamedTuple

EQ = "EQ"
GE = "GE"


class LinearRow(NamedTuple):
    coeffs: tuple[int, ...]
    rel: str
    rhs: int
    label: str = ""


def _shaped(r: LinearRow) -> bool:
    """r is a row the solver takes: EQ or GE, with a right-hand side >= 0."""
    return r.rel in (EQ, GE) and r.rhs >= 0


def row(coeffs, rel: str, rhs, label: str = "") -> LinearRow:
    r = LinearRow(tuple(map(index, coeffs)), rel, index(rhs), label)
    if not _shaped(r):
        raise ValueError(f"a row is EQ or GE with a right-hand side >= 0, not {rel!r} {rhs}")
    return r


class FeasibilityResult(NamedTuple):
    feasible: bool
    point: tuple[Fraction, ...] | None = None
    witness: tuple[Fraction, ...] | None = None


def _cleared(values) -> list[int]:
    """The values times the lcm of their denominators, as ints."""
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*(b for _, b in ratios))
    return [a * (d // b) for a, b in ratios]


def satisfies(rows: list[LinearRow], x: tuple[Fraction, ...]) -> bool:
    """x >= 0 has the rows' width and meets every row: with X = D*x cleared, a.X ~ b*D."""
    *X, D = _cleared((*x, 1))  # the appended 1 comes back as D
    if any(len(r.coeffs) != len(X) or not _shaped(r) for r in rows) or any(v < 0 for v in X):
        return False
    for r in rows:
        lhs, rhs = sum(map(mul, r.coeffs, X)), r.rhs * D
        if not (lhs == rhs if r.rel == EQ else lhs >= rhs):
            return False
    return True


def verify_witness(rows: list[LinearRow], y: tuple[Fraction, ...]) -> bool:
    """Re-check a Farkas witness from scratch; True means the system is empty."""
    coeffs, rels, rhs, _ = zip(*rows) if rows else ((),) * 4  # the rows' fields
    if len(y) != len(rows) or len(set(map(len, coeffs))) > 1:
        return False
    Y = _cleared(y)  # y times a positive lcm: the same signs
    for rel, b, Yi in zip(rels, rhs, Y):  # each row is shaped, and y_i >= 0 on a GE row
        if b < 0 or (Yi < 0 if rel == GE else rel != EQ):
            return False
    if any(sum(map(mul, Y, col)) > 0 for col in zip(*coeffs)):
        return False
    return sum(map(mul, Y, rhs)) > 0


def solve_feasibility(rows: list[LinearRow], nvars: int) -> FeasibilityResult:
    """Decide {rows, x >= 0} by a phase-one simplex with Bland's rule."""
    m = len(rows)
    for r in rows:
        if len(r.coeffs) != nvars:
            raise ValueError("row width does not match variable count")
        if not _shaped(r):
            raise ValueError(f"row {r.label!r} is not EQ or GE with a right-hand side >= 0")

    # Variables: the x, a surplus per GE row, an artificial per row.  The
    # exchange tableau has a column per nonbasic variable, cols[k] naming it,
    # then the right-hand side; row i is T[i] = M[i] / D[i].
    surplus = [i for i, r in enumerate(rows) if r.rel == GE]
    first_art = nvars + len(surplus)
    M: list[list[int]] = [[*r.coeffs, *[0] * len(surplus), r.rhs] for r in rows]
    for k, i in enumerate(surplus):
        M[i][nvars + k] = -1
    cols = list(range(first_art))
    basis = list(range(first_art, first_art + m))

    # Phase-one reduced costs for min(sum of artificials), pivoted as row M[m]:
    # minus the column sums; obj[-1] = -d * w.
    obj = [-sum(col) for col in zip(*M)] if M else [0] * (first_art + 1)
    M.append(obj)
    D, d = [1] * (m + 1), 1

    while True:
        entering = [c for c, v in zip(cols, obj) if v < 0 and c < first_art]
        if not entering:
            break
        enter = cols.index(min(entering))  # Bland: the lowest-numbered variable
        # Ratio test by cross-multiplication; D[i] > 0 cancels within row i.
        leave = -1
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                here, best = M[i][-1] * M[leave][enter], M[leave][-1] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-one objective unbounded; cannot happen")
        prow, Dl = M[leave], D[leave]
        if Dl != d:  # a stale pivot row, brought to the current determinant
            prow = [w * d // Dl for w in prow]
        p = prow[enter]
        for i, Mi in enumerate(M):
            f = Mi[enter]
            if not f or i == leave:
                continue
            Di = D[i]
            Mi = [(v * p - f * w) // Di for v, w in zip(Mi, prow)]
            Mi[enter] = -(f * d // Di)
            M[i], D[i] = Mi, p
        prow[enter] = d
        M[leave], D[leave] = prow, p
        cols[enter], basis[leave] = basis[leave], cols[enter]
        obj, d = M[m], p

    if obj[-1] == 0:
        x = [Fraction(0)] * nvars
        for i, b in enumerate(basis):
            if b < nvars:
                x[b] = Fraction(M[i][-1], D[i])
        point = tuple(x)
        if not satisfies(rows, point):
            raise ArithmeticError("feasible sample failed exact recheck")
        return FeasibilityResult(True, point=point)

    # Duals from the reduced costs of the artificials; a basic one costs 0.
    cost = dict(zip(cols, obj))
    witness = tuple(Fraction(d - cost.get(first_art + i, 0), d) for i in range(m))
    if not verify_witness(rows, witness):
        raise ArithmeticError("Farkas witness failed exact recheck")
    return FeasibilityResult(False, witness=witness)
