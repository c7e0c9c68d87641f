import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzel_surgery.classify import coxeter_distance_window
from pretzel_surgery.coxeter import (DEFAULT_MAX_COSETS, EXCEPTION, FINITE, INFINITE,
                                     CoxeterSignature, EnumerationResult,
                                     coxeter_presentation, edjvet_verdict, todd_coxeter)
from pretzel_surgery.words import GroupPresentation, Word, gen

# Orders below were produced by this enumerator and frozen; the dihedral and
# (2,2,b;c) families double as independent closed-form checks (2b and
# 2*gcd(b,2c) respectively), and several sporadic orders land on well-known
# simple groups (168, 1092, 6072 = |PSL(2,7)|, |PSL(2,13)|, |PSL(2,23)|).
FINITE_GOLDENS = [
    ((2, 2, 2), "i", 4),
    ((2, 3, 3), "i", 6),
    ((2, 4, 2), "i", 8),
    ((2, 6, 3), "i", 12),
    ((3, 3, 4), "ii", 12),
    ((3, 5, 5), "ii", 60),
    ((3, 6, 4), "ii", 96),
    ((3, 7, 4), "iii", 168),
    ((3, 7, 6), "iii", 1092),
    ((3, 8, 4), "iv", 336),
    ((3, 9, 4), "iv", 12),
    ((3, 10, 4), "v", 2160),
    ((3, 11, 4), "v", 6072),
    ((4, 4, 2), "vi", 32),
    ((4, 6, 2), "vi", 72),
    ((4, 4, 3), "vii", 72),
    ((4, 5, 3), "viii", 120),
    ((4, 7, 3), "ix", 2184),
    ((5, 5, 2), "x", 80),
    ((5, 9, 2), "x", 3420),
    ((6, 7, 2), "xi", 2184),
]

# Signatures the classification marks INFINITE whose underlying quotient
# arguments are hyperbolic (no collapse corner); enumeration must never
# close on these.
INFINITE_PROBES = [
    (3, 7, 9), (3, 7, 12), (3, 9, 6), (3, 11, 5), (3, 13, 5), (3, 15, 4),
    (9, 13, 2), (9, 19, 2), (13, 21, 3), (7, 25, 4), (5, 11, 2), (5, 5, 3),
]


def test_signature_normalization():
    sig = CoxeterSignature.of(13, 9, 2)
    assert (sig.a, sig.b, sig.c) == (9, 13, 2)
    assert str(sig) == "(2,9,13;2)"
    with pytest.raises(ValueError):
        CoxeterSignature(3, 2, 2)
    with pytest.raises(ValueError):
        CoxeterSignature(1, 5, 2)
    with pytest.raises(ValueError):
        CoxeterSignature(3, 5, 1)


def test_filling_signature_rule():
    # (2, p, |s-2p|; r/2), or None where |s-2p| < 2.
    assert CoxeterSignature.of_filling(3, 4, 11) == CoxeterSignature(3, 5, 2)
    assert CoxeterSignature.of_filling(7, 8, 1) == CoxeterSignature(7, 13, 4)
    assert CoxeterSignature.of_filling(5, 6, 8) == CoxeterSignature(2, 5, 3)
    assert CoxeterSignature.of_filling(5, 6, 9) is None
    assert CoxeterSignature.of_filling(5, 6, 11) is None


def test_edjvet_examples():
    assert edjvet_verdict(CoxeterSignature(3, 7, 6)) == \
        edjvet_verdict(CoxeterSignature.of(7, 3, 6))
    assert edjvet_verdict(CoxeterSignature(3, 7, 6)).clause == "iii"
    assert edjvet_verdict(CoxeterSignature(3, 5, 2)).status == INFINITE
    assert edjvet_verdict(CoxeterSignature(3, 13, 4)).status == EXCEPTION


def test_edjvet_total_and_deterministic_over_sweep():
    statuses = {FINITE: 0, INFINITE: 0, EXCEPTION: 0}
    for a in range(2, 101):
        for b in range(a, 101):
            for c in range(2, 101):
                v = edjvet_verdict(CoxeterSignature(a, b, c))
                statuses[v.status] += 1
                assert (v.clause is None) == (v.status != FINITE)
    assert statuses[EXCEPTION] == 1
    assert statuses[FINITE] > 0 and statuses[INFINITE] > 0


@pytest.mark.parametrize("abc,clause,order", FINITE_GOLDENS)
def test_finite_clause_signatures_close(abc, clause, order):
    sig = CoxeterSignature(*abc)
    verdict = edjvet_verdict(sig)
    assert verdict.status == FINITE and verdict.clause == clause
    result = todd_coxeter(coxeter_presentation(sig), 1_000_000)
    assert result.is_finite
    assert result.order == order


def test_two_two_family_matches_closed_form():
    from math import gcd
    for b in range(2, 9):
        for c in (2, 3, 5):
            result = todd_coxeter(coxeter_presentation(CoxeterSignature(2, b, c)))
            assert result.order == 2 * gcd(b, 2 * c)


@pytest.mark.parametrize("abc", INFINITE_PROBES)
def test_infinite_probes_never_close(abc):
    sig = CoxeterSignature(*abc)
    assert edjvet_verdict(sig).status == INFINITE
    result = todd_coxeter(coxeter_presentation(sig), 5000)
    assert result.status == "INCONCLUSIVE"
    assert result.order is None


def test_dihedral_sanity_family():
    for b in range(2, 51):
        pres = GroupPresentation(
            ("R", "S"), (gen("R") ** 2, gen("S") ** b, (gen("R") * gen("S")) ** 2))
        result = todd_coxeter(pres)
        assert result.order == 2 * b


def test_free_generator_is_inconclusive():
    pres = GroupPresentation(("R", "S"), (gen("R") ** 2,))
    assert todd_coxeter(pres, 500).status == "INCONCLUSIVE"
    # x.x^-1 reduces to the empty word, which leaves x free.
    pres = GroupPresentation(("x",), (gen("x") * ~gen("x"),))
    assert pres.relators[0].is_trivial
    assert todd_coxeter(pres, 50) == EnumerationResult("INCONCLUSIVE", None, 50)


def test_trivial_and_single_relator_groups():
    # No generators: the trivial group, with no column to grow.
    assert todd_coxeter(GroupPresentation((), ())) == EnumerationResult(FINITE, 1, 1)
    pres = GroupPresentation(("R",), (gen("R"),))
    assert todd_coxeter(pres).order == 1
    pres = GroupPresentation(("R",), (gen("R") ** 12,))
    assert todd_coxeter(pres).order == 12


def test_max_cosets_validation():
    pres = GroupPresentation(("R",), (gen("R") ** 3,))
    with pytest.raises(ValueError):
        todd_coxeter(pres, 0)


def test_enumeration_deterministic():
    sig = CoxeterSignature(3, 7, 4)
    first = todd_coxeter(coxeter_presentation(sig))
    second = todd_coxeter(coxeter_presentation(sig))
    assert first == second


# (status, order, cosets_defined) of every enumeration the coset_enum
# benchmark runs: the goldens to closure, the probes at a cap of 20,000.
# Recorded from the list-of-rows enumerator at commit d93b71a.
ENUMERATION_PINS = {
    (2, 2, 2): (FINITE, 4, 4),
    (2, 3, 3): (FINITE, 6, 16),
    (2, 4, 2): (FINITE, 8, 10),
    (2, 6, 3): (FINITE, 12, 26),
    (3, 3, 4): (FINITE, 12, 59),
    (3, 5, 5): (FINITE, 60, 230),
    (3, 6, 4): (FINITE, 96, 231),
    (3, 7, 4): (FINITE, 168, 382),
    (3, 7, 6): (FINITE, 1092, 4714),
    (3, 8, 4): (FINITE, 336, 815),
    (3, 9, 4): (FINITE, 12, 1347),
    (3, 10, 4): (FINITE, 2160, 4648),
    (3, 11, 4): (FINITE, 6072, 13744),
    (4, 4, 2): (FINITE, 32, 38),
    (4, 6, 2): (FINITE, 72, 87),
    (4, 4, 3): (FINITE, 72, 153),
    (4, 5, 3): (FINITE, 120, 224),
    (4, 7, 3): (FINITE, 2184, 3911),
    (5, 5, 2): (FINITE, 80, 91),
    (5, 9, 2): (FINITE, 3420, 4072),
    (6, 7, 2): (FINITE, 2184, 2877),
}
PROBE_CAP = 20_000
ENUMERATION_PINS.update({abc: ("INCONCLUSIVE", None, PROBE_CAP) for abc in INFINITE_PROBES})


def _pinned(abc: tuple[int, int, int], cap: int) -> tuple:
    r = todd_coxeter(coxeter_presentation(CoxeterSignature(*abc)), cap)
    return r.status, r.order, r.cosets_defined


def test_enumerations_pinned():
    assert set(ENUMERATION_PINS) == {abc for abc, _, _ in FINITE_GOLDENS} | set(INFINITE_PROBES)
    for abc, _, _ in FINITE_GOLDENS:
        assert _pinned(abc, DEFAULT_MAX_COSETS) == ENUMERATION_PINS[abc], abc
    for abc in INFINITE_PROBES:
        assert _pinned(abc, PROBE_CAP) == ENUMERATION_PINS[abc], abc


# Every signature coxeter_distance_window keeps on the finite_sweep ranges
# (odd p <= q in [3,61], even r in [4,62]), enumerated at a cap of 20,000;
# recorded at commit d93b71a.  The first five are the abstention corner
# a = 3, c <= 3: they collapse (orders 1 and 3) although edjvet_verdict
# labels them INFINITE.  The label stays, because the premise abstains on
# that corner rather than trusting it and the certificate bytes record it.
WINDOW_SIGNATURE_PINS = {
    (3, 5, 2): (INFINITE, (FINITE, 1, 21)),
    (3, 7, 2): (INFINITE, (FINITE, 1, 32)),
    (3, 7, 3): (INFINITE, (FINITE, 1, 116)),
    (3, 9, 3): (INFINITE, (FINITE, 3, 179)),
    (3, 11, 3): (INFINITE, (FINITE, 1, 270)),
    (3, 9, 4): (FINITE, (FINITE, 12, 1347)),
    (3, 11, 4): (FINITE, (FINITE, 6072, 13744)),
    (5, 5, 2): (FINITE, (FINITE, 80, 91)),
    (5, 7, 2): (FINITE, (FINITE, 1, 316)),
    (5, 9, 2): (FINITE, (FINITE, 3420, 4072)),
    (3, 13, 4): (EXCEPTION, ("INCONCLUSIVE", None, PROBE_CAP)),
}


def test_window_signatures_pinned():
    kept = set()
    for p in range(3, 62, 2):
        for q in range(p, 62, 2):
            for r in range(4, 63, 2):
                window = coxeter_distance_window(p, q, r)
                for s, reason in window["window"] if window else ():
                    if reason == "degenerate quotient":
                        continue
                    sig = CoxeterSignature.of(p, abs(s - 2 * p), r // 2)
                    assert reason == f"{sig} {edjvet_verdict(sig).status}"
                    kept.add((sig.a, sig.b, sig.c))
    assert kept == set(WINDOW_SIGNATURE_PINS)
    for abc, (label, pinned) in WINDOW_SIGNATURE_PINS.items():
        assert edjvet_verdict(CoxeterSignature(*abc)).status == label, abc
        assert _pinned(abc, PROBE_CAP) == pinned, abc
    corner = [abc for abc in WINDOW_SIGNATURE_PINS if abc[0] == 3 and abc[2] <= 3]
    assert len(corner) == 5
    assert all(WINDOW_SIGNATURE_PINS[abc][1][0] == FINITE for abc in corner)


# The list-of-rows enumerator at commit d93b71a, kept verbatim as the
# reference for the per-column one: same HLT order, so equal results.

class _CosetCap(Exception):
    pass


def reference_todd_coxeter(presentation: GroupPresentation,
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


GRID = [(CoxeterSignature(a, b, c), cap)
        for a in range(2, 9) for b in range(a, 14) for c in range(2, 7)
        for cap in (1, 7, 300, 3000)]


def test_grid_matches_the_reference_enumerator():
    assert len(GRID) == 1260
    for sig, cap in GRID:
        pres = coxeter_presentation(sig)
        assert todd_coxeter(pres, cap) == reference_todd_coxeter(pres, cap), (sig, cap)


@given(st.integers(1, 3), st.data())
def test_random_presentations_match_the_reference_enumerator(ngens, data):
    names = ("x", "y", "z")[:ngens]
    letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1, 2, -2, 3, -3)))
    relators = data.draw(st.lists(st.lists(letter, min_size=1, max_size=6),
                                  min_size=1, max_size=4), label="relators")
    pres = GroupPresentation(names, tuple(Word(runs) for runs in relators))
    cap = data.draw(st.integers(1, 2000), label="cap")
    assert todd_coxeter(pres, cap) == reference_todd_coxeter(pres, cap)


# The five collapse-corner signatures of WINDOW_SIGNATURE_PINS and three
# finite goldens, capped at every count up to one past what closing takes:
# the caps cross each doubling of the table's columns.
EVERY_CAP_SIGNATURES = [(3, 5, 2), (3, 7, 2), (3, 7, 3), (3, 9, 3), (3, 11, 3),
                        (2, 3, 3), (3, 3, 4), (3, 7, 4)]


def test_every_cap_matches_the_reference_enumerator():
    runs = 0
    for abc in EVERY_CAP_SIGNATURES:
        pres = coxeter_presentation(CoxeterSignature(*abc))
        closing = todd_coxeter(pres).cosets_defined
        for cap in range(1, closing + 2):
            assert todd_coxeter(pres, cap) == reference_todd_coxeter(pres, cap), (abc, cap)
            runs += 1
    assert runs == 1083


def test_column_fill_order_is_the_reference_order():
    # Filling alpha's undefined columns in reverse order hits the cap here:
    # 6 is exactly the number of cosets the reference order defines.
    x, y, z = gen("x"), gen("y"), gen("z")
    pres = GroupPresentation(("x", "y", "z"), (x * y ** 2, x ** 2, ~y * z))
    expected = EnumerationResult(FINITE, 4, 6)
    assert reference_todd_coxeter(pres, 6) == todd_coxeter(pres, 6) == expected
