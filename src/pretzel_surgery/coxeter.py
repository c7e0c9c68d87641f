"""Finiteness of the two-generator Coxeter-type groups

    (2,a,b;c) = < R, S | R^a, S^b, (RS)^2, (R^2 S^2)^c >

decided by Edjvet's classification, plus a Todd-Coxeter coset enumerator
used as an independent desk-scale oracle.  The enumerator proves finiteness
(with the exact order) whenever the coset table closes; it can never prove
infiniteness, so INCONCLUSIVE outcomes are only ever consistency checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import GroupPresentation, gen

DEFAULT_MAX_COSETS = 1_000_000


@dataclass(frozen=True)
class CoxeterSignature:
    """Normalized signature (2, a, b; c) with 2 <= a <= b and c >= 2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if not (2 <= self.a <= self.b) or self.c < 2:
            raise ValueError(f"unnormalized signature (2,{self.a},{self.b};{self.c})")

    @staticmethod
    def of(x: int, y: int, c: int) -> "CoxeterSignature":
        lo, hi = sorted((x, y))
        return CoxeterSignature(lo, hi, c)

    def __str__(self) -> str:
        return f"(2,{self.a},{self.b};{self.c})"


FINITE = "FINITE"
INFINITE = "INFINITE"
EXCEPTION = "EXCEPTION"


@dataclass(frozen=True)
class FinitenessVerdict:
    status: str
    clause: str | None = None


def edjvet_verdict(sig: CoxeterSignature) -> FinitenessVerdict:
    """Edjvet's classification of finite (2,a,b;c), with the lone open
    signature (2,3,13;4) reported as EXCEPTION rather than guessed."""
    a, b, c = sig.a, sig.b, sig.c
    if (a, b, c) == (3, 13, 4):
        return FinitenessVerdict(EXCEPTION)
    if a == 2:
        return FinitenessVerdict(FINITE, "i")
    if a == 3:
        if 3 <= b <= 6 and c >= 4:
            return FinitenessVerdict(FINITE, "ii")
        if b == 7 and 4 <= c <= 8:
            return FinitenessVerdict(FINITE, "iii")
        if 8 <= b <= 9 and 4 <= c <= 5:
            return FinitenessVerdict(FINITE, "iv")
        if 10 <= b <= 11 and c == 4:
            return FinitenessVerdict(FINITE, "v")
    if a == 4:
        if b >= 4 and c == 2:
            return FinitenessVerdict(FINITE, "vi")
        if b == 4 and c >= 3:
            return FinitenessVerdict(FINITE, "vii")
        if b == 5 and 3 <= c <= 4:
            return FinitenessVerdict(FINITE, "viii")
        if (b, c) == (7, 3):
            return FinitenessVerdict(FINITE, "ix")
    if a == 5 and 5 <= b <= 9 and c == 2:
        return FinitenessVerdict(FINITE, "x")
    if (a, b, c) == (6, 7, 2):
        return FinitenessVerdict(FINITE, "xi")
    return FinitenessVerdict(INFINITE)


def coxeter_presentation(sig: CoxeterSignature) -> GroupPresentation:
    R, S = gen("R"), gen("S")
    relators = (R ** sig.a, S ** sig.b, (R * S) ** 2, (R * R * S * S) ** sig.c)
    return GroupPresentation(
        ("R", "S"), relators,
        display=(f"R^{sig.a}", f"S^{sig.b}", "(RS)^2", f"(R^2S^2)^{sig.c}"))


@dataclass(frozen=True)
class EnumerationResult:
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
    immediate coincidence handling; deterministic scan order).

    Returns FINITE with the exact group order when the table closes within
    max_cosets total coset definitions, INCONCLUSIVE otherwise.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")

    index = {g: i for i, g in enumerate(presentation.generators)}
    width = 2 * len(index)

    def col(g: str, e: int) -> int:
        return 2 * index[g] + (0 if e > 0 else 1)

    def inv(c: int) -> int:
        return c ^ 1

    relators = []
    for w in presentation.relators:
        letters = tuple(col(g, e) for g, e in w.letters())
        if letters:
            relators.append(letters)

    table: list[list[int | None]] = [[None] * width]
    parent = [0]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_coset() -> int:
        if len(table) >= max_cosets:
            raise _CosetCap
        table.append([None] * width)
        parent.append(len(table) - 1)
        return len(table) - 1

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
            row_ = table[dead]
            for c in range(width):
                target = row_[c]
                if target is None:
                    continue
                row_[c] = None
                if table[target][inv(c)] == dead:
                    table[target][inv(c)] = None
                mu, nu = find(dead), find(target)
                existing = table[mu][c]
                if existing is not None:
                    merge(nu, find(existing), queue)
                else:
                    back = table[nu][inv(c)]
                    if back is not None:
                        merge(mu, find(back), queue)
                    else:
                        table[mu][c] = nu
                        table[nu][inv(c)] = mu

    def scan_and_fill(alpha: int, word: tuple[int, ...]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j:
                t = table[f][word[i]]
                if t is None:
                    break
                f = find(t)
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                t = table[b][inv(word[j])]
                if t is None:
                    break
                b = find(t)
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][inv(word[i])] = f
                return
            d = new_coset()
            table[f][word[i]] = d
            table[d][inv(word[i])] = f

    try:
        alpha = 0
        while alpha < len(table):
            if find(alpha) == alpha:
                for word in relators:
                    if find(alpha) != alpha:
                        break
                    scan_and_fill(alpha, word)
                if find(alpha) == alpha:
                    row_ = table[alpha]
                    for c in range(width):
                        if row_[c] is None:
                            d = new_coset()
                            row_[c] = d
                            table[d][inv(c)] = alpha
            alpha += 1
    except _CosetCap:
        return EnumerationResult("INCONCLUSIVE", None, len(table))

    live = [i for i in range(len(table)) if find(i) == i]
    for i in live:
        if any(v is None for v in table[i]):
            raise ArithmeticError("closed enumeration left undefined entries")
    return EnumerationResult(FINITE, len(live), len(table))
