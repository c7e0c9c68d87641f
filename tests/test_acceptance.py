"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import time
from fractions import Fraction

from pretzel_surgery.boundary import toroidal_gap_pairs_large_p
from pretzel_surgery.classify import (NONE, REALIZED, UNRESOLVED, classify_finite,
                                      emit_certificate)
from pretzel_surgery.coxeter import (CoxeterSignature, coxeter_presentation,
                                     edjvet_verdict, todd_coxeter)
from pretzel_surgery.knots import canonicalize
from pretzel_surgery.norms import (cyclic_infeasibility_minus2_5_q,
                                   verify_infeasibility_report)
from pretzel_surgery.presentations import filled_presentation
from pretzel_surgery.smith import abelian_invariants
from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite
from pretzel_surgery.triangle import irreducible_char_count
from pretzel_surgery.words import GroupPresentation, gen

from test_coxeter import FINITE_GOLDENS, INFINITE_PROBES


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_cyclic_classification():
    start = time.monotonic()
    report = sweep_cyclic(25)
    elapsed = time.monotonic() - start
    realized = report.realized
    ok = (realized == {(-2, 3, 7): (18, 19)}
          and not report.violations
          and elapsed < 60.0)
    _verdict(1, "cyclic surgeries over |index| <= 25", ok,
             f"{len(report.certificates)} knots, {elapsed:.1f}s")


def test_criterion_2_finite_on_minus2_family():
    c237 = classify_finite(canonicalize(-2, 3, 7))
    c239 = classify_finite(canonicalize(-2, 3, 9))
    ok = (c237.verdict == REALIZED and c237.realized == (17, 18, 19)
          and c239.verdict == REALIZED and c239.realized == (22, 23))
    for p in range(5, 16, 2):
        for q in range(p, 16, 2):
            cert = classify_finite(canonicalize(-2, p, q))
            ok = ok and cert.verdict == UNRESOLVED
            ok = ok and any("not cyclic" in note for note in cert.annotations)
    _verdict(2, "finite slope lists on (-2,3,7), (-2,3,9); p >= 5 open", ok)


def test_criterion_3_norm_contradiction_family():
    start = time.monotonic()
    ok = True
    for q in range(9, 100, 2):
        report = cyclic_infeasibility_minus2_5_q(q)
        ok = ok and report.infeasible_for_all_pairs
        ok = ok and len(report.verdicts) == 15
        ok = ok and verify_infeasibility_report(report)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _verdict(3, "pairwise norm infeasibility, odd q in [9,99]", ok,
             f"{elapsed:.1f}s")


def test_criterion_4_finite_family_sweep():
    start = time.monotonic()
    report = sweep_finite((3, 15), (3, 15), (4, 16))
    elapsed = time.monotonic() - start
    ok = (not report.realized and not report.unresolved
          and not report.violations and elapsed < 300.0)
    _verdict(4, "no finite surgeries across 3<=p<=q<=15, 4<=r<=16", ok,
             f"{len(report.certificates)} knots, {elapsed:.1f}s")


def test_criterion_5_character_counts():
    checked = 0
    ok = irreducible_char_count(2, 3, 7) == 3
    for p in range(2, 51):
        for q in range(2, 51):
            for r in range(2, 51):
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1:
                    checked += 1
                    if irreducible_char_count(p, q, r) < 3:
                        ok = False
    _verdict(5, "irreducible character floor on [2,50]^3", ok,
             f"{checked} hyperbolic triples")


def test_criterion_6_filled_homology():
    failures = 0
    total = 0
    for p in range(3, 10, 2):
        for q in range(p, 10, 2):
            for r in (4, 6, 8):
                for s in range(1, 26, 2):
                    total += 1
                    inv = filled_presentation(p, q, r, s).abelianization()
                    if inv != abelian_invariants(1, [[s]]):  # Z/s
                        failures += 1
    _verdict(6, "H1 of integral fillings is Z/s", failures == 0,
             f"{total} fillings, {failures} failures")


def test_criterion_7_enumeration_cross_checks():
    finite_ok = 0
    for abc, _clause, order in FINITE_GOLDENS:
        sig = CoxeterSignature(*abc)
        result = todd_coxeter(coxeter_presentation(sig), 1_000_000)
        if result.is_finite and result.order == order \
                and edjvet_verdict(sig).status == "FINITE":
            finite_ok += 1
    inconclusive_ok = 0
    for abc in INFINITE_PROBES[:10]:
        sig = CoxeterSignature(*abc)
        result = todd_coxeter(coxeter_presentation(sig), 5000)
        if result.status == "INCONCLUSIVE" \
                and edjvet_verdict(sig).status == "INFINITE":
            inconclusive_ok += 1
    dihedral_ok = all(
        todd_coxeter(GroupPresentation(
            ("R", "S"),
            (gen("R") ** 2, gen("S") ** b, (gen("R") * gen("S")) ** 2))).order == 2 * b
        for b in range(2, 51))
    ok = finite_ok >= 10 and inconclusive_ok == 10 and dihedral_ok
    _verdict(7, "coset enumeration agrees with the finiteness table", ok,
             f"{finite_ok} finite orders, {inconclusive_ok} inconclusive probes")


def test_criterion_8_large_p_gap():
    ok = True
    checked = 0
    for r in range(4, 17, 2):
        for p in range(2 * r + 3, 16, 2):
            for q in range(p, 16, 2):
                checked += 1
                gaps = toroidal_gap_pairs_large_p(p, q, r)
                if not all(Fraction(*g) >= 11 for g in gaps):
                    ok = False
    ok = ok and checked > 0
    _verdict(8, "toroidal gap >= 11 whenever p > 2r+1", ok,
             f"{checked} triples")


def test_criterion_9_deterministic_streams():
    def stream():
        lines = [emit_certificate(c, "json")
                 for c in sweep_finite((3, 9), (3, 9), (4, 10)).certificates]
        lines += [emit_certificate(c, "json")
                  for c in sweep_cyclic(11).certificates]
        return "\n".join(lines).encode()

    first = stream()
    second = stream()
    ok = first == second and len(first) > 0
    # Verdict tokens are part of the stream contract.
    sample = json.loads(first.decode().splitlines()[0])
    ok = ok and sample["verdict"] in {NONE, REALIZED, UNRESOLVED, "TORUS_INFINITE"}
    _verdict(9, "byte-identical certificate streams", ok,
             f"{len(first)} bytes")
