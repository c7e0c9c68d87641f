import itertools
import random
from math import gcd

import pytest

from pretzel_surgery.smith import AbelianInvariants, abelian_invariants, smith_diagonal


def _minor_gcd_invariants(matrix):
    """Independent oracle: d_k = D_k / D_{k-1} from gcds of k x k minors."""
    m, n = len(matrix), len(matrix[0])
    rank_cap = min(m, n)
    det_gcds = []
    for k in range(1, rank_cap + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, _det([[matrix[i][j] for j in cols] for i in rows]))
        det_gcds.append(g)
    diag = []
    prev = 1
    for g in det_gcds:
        if g == 0 or prev == 0:
            diag.append(0)
        else:
            diag.append(g // prev)
        prev = g
    return diag


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, v in enumerate(matrix[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += (-1) ** j * v * _det(minor)
    return total


def test_known_diagonal():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    # Negative and tied least entries, and a zero row and column.
    assert smith_diagonal([[-2, 4], [6, -2]]) == [2, 10]
    assert smith_diagonal([[-4, 6], [6, -4]]) == [2, 10]
    assert smith_diagonal([[-3, 3, -3], [3, -3, 3]]) == [3, 0]
    assert smith_diagonal([[0, 0], [0, -7], [0, 0]]) == [7, 0]


def _random_matrix(rng, m, n):
    """Entries up to +-50, or drawn from a few magnitudes so that the least one
    ties and is often negative; sometimes with a zero row and a zero column."""
    if rng.random() < 0.5:
        matrix = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
    else:
        k = rng.randint(1, 6)
        values = [-k, k, -2 * k, 3 * k, -4 * k, 0]
        matrix = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        matrix[rng.randrange(m)] = [0] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in matrix:
            row[j] = 0
    return matrix


def test_divisibility_chain_and_minor_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = _random_matrix(rng, m, n)
        diag = smith_diagonal(matrix)
        assert len(diag) == min(m, n) and all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert diag == _minor_gcd_invariants(matrix), matrix


def test_diagonal_invariant_under_unimodular_row_and_column_operations():
    rng = random.Random(11)
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = _random_matrix(rng, m, n)
        diag = smith_diagonal(matrix)
        moved = [row[:] for row in matrix]
        for _ in range(8):
            # Add a multiple of one row (column) to another, swap two, or negate one.
            cols = rng.random() < 0.5
            size = n if cols else m
            i, j, k = rng.randrange(size), rng.randrange(size), rng.randint(-3, 3)
            lines = [list(c) for c in zip(*moved)] if cols else moved
            op = rng.randrange(3)
            if op == 0 and i != j:
                lines[i] = [a + k * b for a, b in zip(lines[i], lines[j])]
            elif op == 1:
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = [-a for a in lines[i]]
            moved = [list(r) for r in zip(*lines)] if cols else lines
        assert smith_diagonal(moved) == diag, (matrix, moved)


def test_invariants_of_cyclic_presentation():
    inv = abelian_invariants(1, [[5]])
    assert inv == AbelianInvariants((5,), 0)
    assert str(inv) == "Z/5"


def test_invariants_free_rank():
    inv = abelian_invariants(3, [[1, -1, 0], [0, 1, -1]])
    assert inv == AbelianInvariants((), 1)


def test_invariants_empty_relations():
    assert smith_diagonal([]) == []
    assert abelian_invariants(2, []) == AbelianInvariants((), 2)


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((1,), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((4, 6), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((), -1)
