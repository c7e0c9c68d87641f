"""Smith normal form over the integers, and the abelian invariants it gives.

Matrices are lists of lists of Python ints, so entries never overflow.
"""

from __future__ import annotations

from collections import namedtuple

from .records import Record


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., all >= 0.

    Each pass pivots on an entry p of least magnitude and cuts its column to
    remainders by row operations; a clear column lets column operations cut
    the pivot row mod p.  A pivot row of multiples of p takes in a row that p
    does not divide, or, with none left, |p| splits off with its row and column.
    """
    A = [[int(v) for v in row] for row in matrix]
    if any(len(row) != len(A[0]) for row in A):
        raise ValueError("ragged matrix")
    diag: list[int] = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v]
        if not entries:
            return diag + [0] * (min(len(A), len(A[0])) if A else 0)
        _, i, j = min(entries)
        pivot = A.pop(i)
        p = pivot[j]
        for row in A:
            if quo := row[j] // p:
                row[:] = [a - quo * b for a, b in zip(row, pivot)]
        if not any(row[j] for row in A):
            if not any(v % p for v in pivot):
                extra = next((row for row in A if any(v % p for v in row)), None)
                if extra is None:
                    diag.append(abs(p))
                    for row in A:
                        del row[j]
                    continue
                pivot = [a + b for a, b in zip(pivot, extra)]
            pivot = [v % p if c != j else p for c, v in enumerate(pivot)]
        A.append(pivot)


class AbelianInvariants(Record, namedtuple("AbelianInvariants", "torsion free_rank")):
    """Invariant-factor form d_1 | d_2 | ... (all > 1) plus free rank, a validated tuple record."""

    __slots__ = ()

    def __new__(cls, torsion: tuple[int, ...], free_rank: int) -> AbelianInvariants:
        if any(d <= 1 for d in torsion):
            raise ValueError("torsion factors must exceed 1")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise ValueError("invariant factors must form a divisor chain")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        return tuple.__new__(cls, (torsion, free_rank))

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "1"


def abelian_invariants(ngens: int, relator_rows: list[list[int]]) -> AbelianInvariants:
    """Invariants of Z^ngens modulo the row space of the relator matrix."""
    diag = smith_diagonal(relator_rows)
    rank = len(diag) - diag.count(0)
    return AbelianInvariants(tuple(d for d in diag if d > 1), ngens - rank)
