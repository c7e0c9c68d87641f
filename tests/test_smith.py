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


def test_divisibility_chain_and_minor_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith_diagonal(matrix)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert diag == _minor_gcd_invariants(matrix)


def test_invariants_of_cyclic_presentation():
    inv = abelian_invariants(1, [[5]])
    assert inv == AbelianInvariants((5,), 0)
    assert str(inv) == "Z/5"


def test_invariants_free_rank():
    inv = abelian_invariants(3, [[1, -1, 0], [0, 1, -1]])
    assert inv == AbelianInvariants((), 1)


def test_invariants_empty_relations():
    assert abelian_invariants(2, []).free_rank == 2


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((1,), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((4, 6), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((), -1)
