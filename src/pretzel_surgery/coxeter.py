"""Finiteness of the two-generator Coxeter-type groups

    (2,a,b;c) = < R, S | R^a, S^b, (RS)^2, (R^2 S^2)^c >

decided by Edjvet's classification, plus a Todd-Coxeter coset enumerator
used as an independent desk-scale oracle.  The enumerator proves finiteness
(with the exact order) whenever the coset table closes; it can never prove
infiniteness, so INCONCLUSIVE outcomes are only ever consistency checks.
Its coset table is one list per column, grown by doubling, that names only
live cosets between coincidences and is checked for consistency on closing;
its HLT definition order, hence every cosets_defined, is pinned by the tests.
"""

from __future__ import annotations

from collections import namedtuple
from operator import length_hint
from typing import NamedTuple

from .records import Record
from .words import GroupPresentation, gen

DEFAULT_MAX_COSETS = 1_000_000


class CoxeterSignature(Record, namedtuple("CoxeterSignature", "a b c")):
    """Normalized signature (2, a, b; c) with 2 <= a <= b and c >= 2, a validated tuple record."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> CoxeterSignature:
        if not (2 <= a <= b) or c < 2:
            raise ValueError(f"unnormalized signature (2,{a},{b};{c})")
        return tuple.__new__(cls, (a, b, c))

    @staticmethod
    def of(x: int, y: int, c: int) -> "CoxeterSignature":
        return CoxeterSignature(x, y, c) if x <= y else CoxeterSignature(y, x, c)

    @staticmethod
    def of_filling(p: int, r: int, s: int) -> "CoxeterSignature | None":
        """(2, p, |s-2p|; r/2), the quotient of the s-filling of a (p,q,-r)
        knot, or None where |s-2p| < 2 and the form degenerates."""
        d = abs(s - 2 * p)
        return CoxeterSignature.of(p, d, r // 2) if d >= 2 else None

    def __str__(self) -> str:
        return f"(2,{self.a},{self.b};{self.c})"


FINITE = "FINITE"
INFINITE = "INFINITE"
EXCEPTION = "EXCEPTION"


class FinitenessVerdict(NamedTuple):
    status: str
    clause: str | None = None


# One verdict per outcome, built once and shared (a verdict is immutable).
_EXCEPTION, _INFINITE = FinitenessVerdict(EXCEPTION), FinitenessVerdict(INFINITE)
_FINITE = {c: FinitenessVerdict(FINITE, c) for c in "i ii iii iv v vi vii viii ix x xi".split()}


def edjvet_verdict(sig: CoxeterSignature) -> FinitenessVerdict:
    """Edjvet's classification of finite (2,a,b;c), with the lone open
    signature (2,3,13;4) reported as EXCEPTION rather than guessed."""
    a, b, c = sig
    if (a, b, c) == (3, 13, 4):
        return _EXCEPTION
    if a == 2:
        return _FINITE["i"]
    if a == 3:
        if 3 <= b <= 6 and c >= 4:
            return _FINITE["ii"]
        if b == 7 and 4 <= c <= 8:
            return _FINITE["iii"]
        if 8 <= b <= 9 and 4 <= c <= 5:
            return _FINITE["iv"]
        if 10 <= b <= 11 and c == 4:
            return _FINITE["v"]
    if a == 4:
        if b >= 4 and c == 2:
            return _FINITE["vi"]
        if b == 4 and c >= 3:
            return _FINITE["vii"]
        if b == 5 and 3 <= c <= 4:
            return _FINITE["viii"]
        if (b, c) == (7, 3):
            return _FINITE["ix"]
    if a == 5 and 5 <= b <= 9 and c == 2:
        return _FINITE["x"]
    if (a, b, c) == (6, 7, 2):
        return _FINITE["xi"]
    return _INFINITE


def coxeter_presentation(sig: CoxeterSignature) -> GroupPresentation:
    R, S = gen("R"), gen("S")
    relators = (R ** sig.a, S ** sig.b, (R * S) ** 2, (R * R * S * S) ** sig.c)
    return GroupPresentation(("R", "S"), relators)


class EnumerationResult(NamedTuple):
    status: str  # "FINITE" | "INCONCLUSIVE"
    order: int | None
    cosets_defined: int

    @property
    def is_finite(self) -> bool:
        return self.status == FINITE


class _CosetCap(Exception):
    pass


def todd_coxeter(presentation: GroupPresentation,
                 max_cosets: int = DEFAULT_MAX_COSETS) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup (HLT relator filling with
    immediate coincidence handling).

    The table is one list per column, grown by doubling up to max_cosets:
    column 2i is generator i, column 2i ^ 1 its inverse, and cols[c][x] is
    the coset x.c, or -1 while undefined.  Each relator is compiled once into
    its forward and its inverse columns.  The definition order is pinned:
    alpha ascending, relators in presentation order, then alpha's undefined
    columns in column order.

    Between coincidences no entry names a dead coset, so scans skip find:
    every write names live cosets, and coincidence clears each coset it
    kills, with its back-pointers (cols[c][x] = y iff cols[c ^ 1][y] = x).
    Relators are freely reduced, so a scan resumes past a coset it defined.

    Returns FINITE with the exact group order when the table closes within
    max_cosets total coset definitions, INCONCLUSIVE otherwise, and raises
    ArithmeticError if a closed table's columns are not mutually inverse
    permutations of the live cosets.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")

    index = {g: i for i, g in enumerate(presentation.generators)}
    cols: list[list[int]] = [[-1] for _ in range(2 * len(index))]
    pairs = [(col, cols[c ^ 1]) for c, col in enumerate(cols)]
    relators = []
    for w in presentation.relators:
        word = [2 * index[g] + (e < 0) for g, e in w.letters()]
        if word:
            relators.append((tuple(cols[c] for c in word),
                             tuple(cols[c ^ 1] for c in word), len(word) - 1))
    parent = [0]
    size = 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_coset() -> int:
        nonlocal size
        n = len(parent)
        if n == size:
            if n >= max_cosets:
                raise _CosetCap
            size = min(2 * n, max_cosets)
            for col in cols:
                col.extend([-1] * (size - n))
        parent.append(n)
        return n

    def merge(x: int, y: int, queue: list[int]) -> None:
        x, y = find(x), find(y)
        if x == y:
            return
        if x > y:
            x, y = y, x
        parent[y] = x
        queue.append(y)

    def coincidence(x: int, y: int) -> None:
        queue: list[int] = []
        merge(x, y, queue)
        while queue:
            dead = queue.pop()
            for col, back_col in pairs:
                target = col[dead]
                if target < 0:
                    continue
                col[dead] = -1
                back_col[target] = -1
                mu, nu = find(dead), find(target)
                existing = col[mu]
                if existing >= 0:
                    merge(nu, find(existing), queue)
                else:
                    back = back_col[nu]
                    if back >= 0:
                        merge(mu, find(back), queue)
                    else:
                        col[mu] = nu
                        back_col[nu] = mu

    try:
        alpha = 0
        while alpha < len(parent):
            for fwd, bwd, last in relators:
                if parent[alpha] != alpha:
                    break
                # Scan alpha.word = alpha from both ends; fill a one-letter
                # gap by deduction, a longer one with a new coset.
                f, span = alpha, iter(fwd)
                for col in span:
                    t = col[f]
                    if t < 0:
                        break
                    f = t
                else:
                    if f != alpha:
                        coincidence(f, alpha)
                    continue
                i = last - length_hint(span)  # the column that stopped the scan
                b, j = alpha, last
                while True:
                    while j >= i:
                        t = bwd[j][b]
                        if t < 0:
                            break
                        b = t
                        j -= 1
                    if j < i:
                        coincidence(f, b)
                        break
                    if j == i:
                        fwd[i][f] = b
                        bwd[i][b] = f
                        break
                    d = new_coset()
                    fwd[i][f] = d
                    bwd[i][d] = f
                    f = d
                    i += 1
            if parent[alpha] == alpha:
                for col, back_col in pairs:
                    if col[alpha] < 0:
                        d = new_coset()
                        col[alpha] = d
                        back_col[d] = alpha
            alpha += 1
    except _CosetCap:
        return EnumerationResult("INCONCLUSIVE", None, len(parent))

    live = [x for x in range(len(parent)) if parent[x] == x]
    for col, back_col in pairs:
        image = [col[x] for x in live]
        if sorted(image) != live or [back_col[y] for y in image] != live:
            raise ArithmeticError("closed enumeration left an inconsistent table")
    return EnumerationResult(FINITE, len(live), len(parent))
