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
pivoting of Avis's ``lrs``).  It keeps an integer tableau ``M`` and one
running determinant ``d > 0``, and the true tableau is always ``T = M/d``.
It starts from the rows themselves, with a ``-1`` surplus column per ``>=``
row, a unit artificial column per row, the artificials as basis and
``d = 1``.  A pivot on ``p = M[r][s]`` keeps row ``r`` and replaces every
other row, the phase-one objective row included, by
``(M[i][j]*p - M[i][s]*M[r][j]) // d``; then ``d = p``.  By Sylvester's
identity every entry of ``M`` is a minor of the starting matrix, objective
row included, and ``d`` is the basis determinant, so the division is exact;
it is not checked per pivot.  The point and the duals become ``Fraction``s
only at the end.

Soundness rests on the re-checks: before the solver returns, the point or
witness is verified in exact integer arithmetic after clearing its
denominators (:func:`satisfies`, :func:`verify_witness`), reading only the
rows and the vector, never ``M``, ``d`` or the basis; a vector that fails
raises ``ArithmeticError``.  Callers repeat the check on replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index, mul

EQ = "EQ"
GE = "GE"


@dataclass(frozen=True)
class LinearRow:
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


@dataclass(frozen=True)
class FeasibilityResult:
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
    if len(y) != len(rows) or len({len(r.coeffs) for r in rows}) > 1:
        return False
    Y = _cleared(y)  # y times a positive lcm: the same signs
    for r, Yi in zip(rows, Y):  # each row is shaped, and y_i >= 0 on a GE row
        if r.rhs < 0 or (Yi < 0 if r.rel == GE else r.rel != EQ):
            return False
    if any(sum(map(mul, Y, col)) > 0 for col in zip(*[r.coeffs for r in rows])):
        return False
    return sum(Yi * r.rhs for Yi, r in zip(Y, rows)) > 0


def solve_feasibility(rows: list[LinearRow], nvars: int) -> FeasibilityResult:
    """Decide {rows, x >= 0} by a phase-one simplex with Bland's rule."""
    m = len(rows)
    for r in rows:
        if len(r.coeffs) != nvars:
            raise ValueError("row width does not match variable count")
        if not _shaped(r):
            raise ValueError(f"row {r.label!r} is not EQ or GE with a right-hand side >= 0")

    # Columns: the variables, a surplus per GE row, an artificial per row.
    surplus = [i for i, r in enumerate(rows) if r.rel == GE]
    first_art = nvars + len(surplus)
    ncols = first_art + m

    # Integer tableau M = d * T, d = 1, on the artificial basis.
    M: list[list[int]] = [[*r.coeffs, *[0] * (ncols - nvars), r.rhs] for r in rows]
    for k, i in enumerate(surplus):
        M[i][nvars + k] = -1
    for i, Mi in enumerate(M):
        Mi[first_art + i] = 1
    basis = list(range(first_art, ncols))

    # Phase-one reduced costs for min(sum of artificials), pivoted as row M[m]:
    # minus the column sums, 0 on the artificials; obj[ncols] = -d * w.
    obj = [-sum(col) for col in zip(*M)] if M else [0] * (ncols + 1)
    obj[first_art:ncols] = [0] * m
    M.append(obj)
    d = 1

    while True:
        enter = next((j for j in range(first_art) if obj[j] < 0), -1)
        if enter < 0:
            break
        # Ratio test by cross-multiplication; d > 0, so M has the signs of T.
        leave = -1
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                here, best = M[i][ncols] * M[leave][enter], M[leave][ncols] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-one objective unbounded; cannot happen")
        # Fraction-free pivot: T = M/d before and after.
        prow = M[leave]
        p = prow[enter]
        for i, Mi in enumerate(M):
            f = Mi[enter]
            if i == leave or (not f and p == d):
                continue
            if d == 1:
                M[i] = [v * p - f * w for v, w in zip(Mi, prow)] if f else [v * p for v in Mi]
            else:
                M[i] = ([(v * p - f * w) // d for v, w in zip(Mi, prow)] if f
                        else [v * p // d for v in Mi])
        obj = M[m]
        d = p
        basis[leave] = enter

    if obj[ncols] == 0:
        x = [Fraction(0)] * nvars
        for i in range(m):
            if basis[i] < nvars:
                x[basis[i]] = Fraction(M[i][ncols], d)
        point = tuple(x)
        if not satisfies(rows, point):
            raise ArithmeticError("feasible sample failed exact recheck")
        return FeasibilityResult(True, point=point)

    # Duals from the reduced costs over the artificial columns.
    witness = tuple(Fraction(d - obj[first_art + i], d) for i in range(m))
    if not verify_witness(rows, witness):
        raise ArithmeticError("Farkas witness failed exact recheck")
    return FeasibilityResult(False, witness=witness)
