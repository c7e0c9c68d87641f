"""Smith normal form over the integers, with full pivoting on magnitude.

Matrices are plain lists of lists of Python ints, so entries grow without
overflow; full pivoting keeps them small in practice.
"""

from __future__ import annotations

from dataclasses import dataclass


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., all >= 0."""
    A = [[int(v) for v in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")

    t = 0
    while t < m and t < n:
        pi, pj, best = -1, -1, None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]

        while True:
            swapped = False
            for i in range(t + 1, m):
                if A[i][t]:
                    quo = A[i][t] // A[t][t]
                    if quo:
                        A[i] = [a - quo * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        swapped = True
            if swapped:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    quo = A[t][j] // A[t][t]
                    if quo:
                        for i in range(m):
                            A[i][j] -= quo * A[i][t]
                    if A[t][j]:
                        for i in range(m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        swapped = True
            if not swapped:
                break

        # The pivot must divide every remaining entry; if not, fold the
        # offending row in and redo the clearing at the same position.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
            continue

        if A[t][t] < 0:
            A[t][t] = -A[t][t]
        t += 1

    return [A[i][i] for i in range(min(m, n))]


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant-factor form d_1 | d_2 | ... (all > 1) plus free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self) -> None:
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion factors must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisor chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "1"


def abelian_invariants(ngens: int, relator_rows: list[list[int]]) -> AbelianInvariants:
    """Invariants of Z^ngens modulo the row space of the relator matrix."""
    if not relator_rows:
        return AbelianInvariants((), ngens)
    diag = smith_diagonal(relator_rows)
    rank = sum(1 for d in diag if d)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(torsion, ngens - rank)
