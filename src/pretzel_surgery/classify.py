"""Rule-chained verdicts on cyclic and finite surgeries, with certificates.

Each certificate records the applied rules in order; every rule carries a
source descriptor, the inputs it was applied to, and a conclusion.  Rules
are replayable: :func:`replay_certificate` re-evaluates every premise from
the recorded inputs, so a certificate is evidence, not prose.

Imported theorems (lamination reduction, distance bounds, published case
analyses, SnapPea checks) enter only through the facts table; computed
steps recompute their arithmetic at apply time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from . import facts
from .boundary import (BoundarySlopeSet, Completeness, nonintegral_slopes_minus2_pq,
                       nonintegral_slopes_pq_minus_r, small_p_value, toroidal_gaps_large_p,
                       toroidal_slope)
from .coxeter import INFINITE, CoxeterSignature, edjvet_verdict
from .knots import (FamilyTag, KnotFamily, PretzelKnot, TorusStatus, family,
                    hyperbolicity_condition, torus_status, triangle_slack)
from .norms import cyclic_infeasibility_minus2_5_q
from .presentations import longitude_triviality_check
from .slopes import Slope, distance, make_slope
from .triangle import irreducible_char_count

# Verdicts ---------------------------------------------------------------

REALIZED = "REALIZED"
NONE = "NONE"
TORUS_INFINITE = "TORUS_INFINITE"
UNRESOLVED = "UNRESOLVED_BY_PAPER"

# Per-slope statuses ------------------------------------------------------

STATUS_REALIZED = "REALIZED_KNOWN"
STATUS_ELIMINATED = "ELIMINATED"
STATUS_UNRESOLVED = "UNRESOLVED_BY_PAPER"

CYCLIC = "cyclic"
FINITE_Q = "finite"


class Rule(NamedTuple):
    """One applied rule.  A named tuple, not a frozen dataclass: sweeps build
    one or more per knot, and a tuple is several times cheaper to construct."""

    id: str
    source: str
    citation: str
    inputs: dict
    conclusion: str

    def to_json(self) -> dict:
        return {"id": self.id, "source": self.source, "citation": self.citation,
                "inputs": self.inputs, "conclusion": self.conclusion}


@dataclass(frozen=True)
class SlopeStatus:
    slope: Slope
    status: str
    rule_id: str | None = None

    def to_json(self) -> dict:
        return {"slope": str(self.slope), "status": self.status, "rule": self.rule_id}


@dataclass
class Certificate:
    knot: PretzelKnot
    question: str
    verdict: str = UNRESOLVED
    realized: tuple[int, ...] = ()
    slopes: list[SlopeStatus] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def rule(self, rule_id: str, source: str, inputs: dict, conclusion: str) -> Rule:
        citation = facts.SOURCES.get(source, source)
        r = Rule(rule_id, source, citation, inputs, conclusion)
        self.rules.append(r)
        return r

    def mark(self, slope: Slope, status: str, rule_id: str | None = None) -> None:
        self.slopes.append(SlopeStatus(slope, status, rule_id))

    def to_json(self) -> dict:
        return {
            "pretzel": list(self.knot.indices),
            "question": self.question,
            "verdict": self.verdict,
            "realized": list(self.realized),
            "slopes": [s.to_json() for s in self.slopes],
            "rules": [r.to_json() for r in self.rules],
            "annotations": list(self.annotations),
            "data": self.data,
        }


def emit_certificate(cert: Certificate, fmt: str = "json", cite: bool = False) -> str:
    """Deterministic serialization; 'json' or 'text'."""
    if fmt == "json":
        return json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
    if fmt != "text":
        raise ValueError(f"unknown certificate format {fmt!r}")
    lines = [f"knot {cert.knot}  question={cert.question}  verdict={cert.verdict}"]
    if cert.realized:
        lines.append("  realized: " + ", ".join(str(u) for u in cert.realized))
    for s in cert.slopes:
        rule = f"  [{s.rule_id}]" if s.rule_id else ""
        lines.append(f"  slope {s.slope}: {s.status}{rule}")
    for note in cert.annotations:
        lines.append(f"  note: {note}")
    lines.append("  rules:")
    for i, r in enumerate(cert.rules, start=1):
        lines.append(f"    {i}. {r.id}: {r.conclusion}")
        if cite:
            lines.append(f"       cite: {r.citation}")
    return "\n".join(lines)


# -- window helpers -------------------------------------------------------


def _integer_candidates(bset: BoundarySlopeSet, odd_only: bool) -> list[int]:
    """Integers within open distance one of some listed non-integral slope."""
    out: set[int] = set()
    for s in bset.slopes:
        floor = s.a // s.b
        for u in (floor, floor + 1):
            if not odd_only or u % 2 != 0:
                out.add(u)
    return sorted(out)


def quotient_certified_infinite(sig: CoxeterSignature) -> bool:
    """Infiniteness of (2,a,b;c) as the classifier is allowed to use it.

    The quoted classification is trusted except on the corner a = 3 with
    c <= 3, where the group provably collapses: the index-two subgroup
    generated by R and its (RS)-conjugate is a quotient of the (3,3,c)
    triangle group, spherical for c = 2 (order <= 12) and observed to
    collapse for c = 3; coset enumeration confirms tiny finite orders
    across that corner.  There the oracle abstains, which is always sound.
    """
    if sig.a == 3 and sig.c <= 3:
        return False
    return edjvet_verdict(sig).status == INFINITE


def _coxeter_window(p: int, r: int) -> list[list]:
    """All odd s whose two-generator quotient (2,.,.;r/2) is not certified
    infinite.

    Scans |s-2p| over 1, 3, ..., 13; every clause of the finiteness table
    (and its one open signature) has both odd entries <= 13, and the
    abstention corner a = 3, c <= 3 only concerns d = 3 or p = 3, so larger
    differences always give certified-infinite quotients.
    """
    if p < 5:
        raise ValueError("window completeness needs p >= 5")
    out = {}
    for d in (1, 3, 5, 7, 9, 11, 13):
        if d == 1:
            reason = "degenerate quotient"
        else:
            sig = CoxeterSignature.of(p, d, r // 2)
            if quotient_certified_infinite(sig):
                continue
            verdict = edjvet_verdict(sig)
            reason = f"{sig} {verdict.status}"
        for s in (2 * p - d, 2 * p + d):
            out.setdefault(s, reason)
    return [[s, out[s]] for s in sorted(out)]


# -- structural rules shared by the finite pipeline ------------------------


def _structural_finite_rules(cert: Certificate, p: int, q: int, r: int) -> None:
    m = r // 2
    if not (triangle_slack(p, q, m) >= 0 and longitude_triviality_check(p, q, r)):
        raise ArithmeticError(f"the longitude of {cert.knot} does not collapse in the "
                              "triangle quotient; the parity rule does not apply")
    cert.rule(
        "even_numerator_infinite", "character_doubling",
        {"p": p, "q": q, "m": m, "longitude_collapses": True},
        "fillings 2a/b factor through the infinite triangle quotient, so any "
        "finite filling has odd numerator")
    cert.rule(
        "denominator_bound", "finite_norm_bound", {},
        "a finite filling slope a/b has b <= 2")
    irr = irreducible_char_count(p, q, m)
    if irr < 3:
        raise ArithmeticError(f"the ({p},{q},{m}) triangle group has {irr} < 3 "
                              "irreducible characters; the S + 12 floor does not hold")
    cert.rule(
        "even_norm_floor", "character_doubling",
        {"p": p, "q": q, "m": m, "irreducible_characters": irr},
        "even-numerator classes have total norm >= S + 12")
    cert.rule(
        "half_integral_excluded", "finite_norm_bound", {},
        "a half-integral finite filling would force norm < S + 4 at an even "
        "integral midpoint, against the S + 12 floor; so the filling is odd "
        "integral")
    cert.rule(
        "odd_uniqueness", "finite_norm_bound", {},
        "two odd integral fillings of norm <= S + 8 would trap an even "
        "integral class of norm <= S + 8; at most one finite filling exists")


# -- per-candidate elimination ---------------------------------------------


def _eliminate_odd_candidate(cert: Certificate, u: int, p: int, q: int, r: int,
                             tor: Slope) -> bool:
    """Try the distance bound then the quotient-finiteness rule; True if
    the candidate was eliminated (and recorded)."""
    slope = make_slope(u, 1)
    dist = distance(slope, tor)
    if dist > 9:
        cert.rule(
            f"exceptional_distance:{u}", "exceptional_distance",
            {"slope": u, "toroidal": str(tor), "distance": dist},
            f"slope {u} has distance {dist} > 9 from the toroidal filling {tor}")
        cert.mark(slope, STATUS_ELIMINATED, f"exceptional_distance:{u}")
        return True
    d = abs(u - 2 * p)
    if d >= 2:
        sig = CoxeterSignature.of(p, d, r // 2)
        if quotient_certified_infinite(sig):
            cert.rule(
                f"coxeter_quotient_infinite:{u}", "quotient_surjection",
                {"slope": u, "signature": [2, sig.a, sig.b, sig.c]},
                f"the filled group surjects onto the infinite group {sig}, "
                f"so the {u}-filling is not finite")
            cert.mark(slope, STATUS_ELIMINATED, f"coxeter_quotient_infinite:{u}")
            return True
    return False


# -- the finite pipeline ----------------------------------------------------


def _finite_pq_minus_r(cert: Certificate, p: int, q: int, r: int) -> None:
    k = cert.knot
    if (p, q, r) in facts.EXCEPTIONAL_PQR:
        cert.rule(
            "exceptional_knot_table", "residual_case_analysis",
            {"p": p, "q": q, "r": r},
            "the strict triangle condition fails here; the published direct "
            "analysis finds no non-trivial finite surgeries")
        cert.verdict = NONE
        return

    if not hyperbolicity_condition(k):
        raise ArithmeticError(f"{k} fails the strict triangle condition outside the "
                              "exceptional table")
    _structural_finite_rules(cert, p, q, r)
    tor = toroidal_slope(k)
    cert.data["toroidal_slope"] = str(tor)
    bset = nonintegral_slopes_pq_minus_r(p, q, r)
    cert.data["nonintegral_slopes"] = bset.to_json()

    if bset.completeness is Completeness.ALL_NONINTEGRAL:
        if bset.is_empty:
            cert.rule(
                "no_nonintegral_slopes", "montesinos_boundary_slopes",
                {"p": p, "q": q, "r": r},
                "there are no non-integral boundary slopes, so no odd integral "
                "slope sits within distance one of one; no finite surgery")
            cert.verdict = NONE
            return
        candidates = _integer_candidates(bset, odd_only=True)
        cert.rule(
            "finite_window", "montesinos_boundary_slopes",
            {"candidates": candidates,
             "slopes": [str(s) for s in bset.slopes]},
            "a finite filling must be an odd integer within distance one of a "
            "non-integral boundary slope")
        if p > 2 * r + 1:
            gaps = toroidal_gaps_large_p(p, q, r)
            if any(g < 11 for g in gaps):
                raise ArithmeticError(f"a steep slope of {k} lies at gap < 11 from the "
                                      f"toroidal filling: {[str(g) for g in gaps]}")
            cert.rule(
                "toroidal_gap_large_p", "exceptional_distance",
                {"p": p, "q": q, "r": r, "gaps": [str(g) for g in gaps]},
                "both steep slopes lie at gap >= 11 from the toroidal filling "
                "2(p+q), so every windowed candidate violates the distance "
                "bound; no finite surgery")
            for u in candidates:
                cert.mark(make_slope(u, 1), STATUS_ELIMINATED, "toroidal_gap_large_p")
            cert.verdict = NONE
            return
        if p <= r - 5:
            gap = abs(small_p_value(p, q, r) - 2 * (p + q))
            if gap <= 10:
                raise ArithmeticError(f"the non-integral slope of {k} lies at gap "
                                      f"{gap} <= 10 from the toroidal filling")
            cert.rule(
                "toroidal_gap_small_p", "exceptional_distance",
                {"p": p, "q": q, "r": r, "gap": str(gap)},
                "the lone non-integral slope lies at gap > 10 from the "
                "toroidal filling 2(p+q); no finite surgery")
            for u in candidates:
                cert.mark(make_slope(u, 1), STATUS_ELIMINATED, "toroidal_gap_small_p")
            cert.verdict = NONE
            return
        survivors = []
        for u in candidates:
            if not _eliminate_odd_candidate(cert, u, p, q, r, tor):
                survivors.append(u)
        _finish_survivors(cert, p, r, survivors)
        return

    # Middle window r <= p <= 2r: no slope formula, so bound the candidate
    # set through the quotient groups instead.
    window = _coxeter_window(p, r)
    dists = {s: abs(2 * (p + q) - s) for s, _ in window}
    survivors = [s for s, _ in window if dists[s] <= 9]
    cert.rule(
        "coxeter_distance_window", "coxeter_finiteness",
        {"p": p, "q": q, "r": r, "window": window,
         "toroidal": str(tor),
         "distances": [[s, dists[s]] for s, _ in window]},
        "any finite filling s must keep the quotient (2,p,|s-2p|;r/2) "
        "finite, confining s to the listed window; slopes at distance > 9 "
        "from 2(p+q) are excluded by the exceptional-distance bound")
    for s, _ in window:
        if s not in survivors:
            cert.mark(make_slope(s, 1), STATUS_ELIMINATED, "coxeter_distance_window")
    _finish_survivors(cert, p, r, survivors)


def _finish_survivors(cert: Certificate, p: int, r: int, survivors: list[int]) -> None:
    if not survivors:
        cert.verdict = NONE
        return
    if facts.in_residual_window(p, r):
        cert.rule(
            "residual_case_table", "residual_case_analysis",
            {"p": p, "r": r, "survivors": survivors},
            "inside the window 3 <= p <= 7, 4 <= r <= 10 the published direct "
            "analysis rules out all remaining candidates")
        for u in survivors:
            cert.mark(make_slope(u, 1), STATUS_ELIMINATED, "residual_case_table")
        cert.verdict = NONE
        return
    for u in survivors:
        cert.mark(make_slope(u, 1), STATUS_UNRESOLVED)
    cert.verdict = UNRESOLVED


# -- the opening and the (-2,3,q) table, shared by both questions ------------


# Per question, the torus and lamination conclusions.  Built once so that
# every certificate shares one string: a sweep keeps tens of thousands.
_OPENING_CONCLUSIONS = {
    question: (f"torus knots admit infinitely many {fillings} fillings",
               "a non-torus pretzel knot outside the (p,q,-r) form admits "
               f"no non-trivial {question} surgery")
    for question, fillings in ((FINITE_Q, "finite (indeed cyclic)"), (CYCLIC, "cyclic"))}


def _open(k: PretzelKnot, question: str) -> tuple[Certificate, KnotFamily | None]:
    """A new certificate after the torus and lamination rules; the family is
    None when one of them already settled the verdict."""
    if not k.is_knot:
        raise ValueError(f"{k} is a link, not a knot")
    torus, lamination = _OPENING_CONCLUSIONS[question]
    cert = Certificate(k, question)
    ts = torus_status(k)
    if ts is TorusStatus.TORUS:
        cert.rule("torus_pretzel", "torus_classification", {}, torus)
        cert.verdict = TORUS_INFINITE
        return cert, None
    if ts is TorusStatus.UNCLASSIFIED:
        cert.rule("unclassified_indices", "torus_classification", {},
                  "triples with a +-1 index outside the encoded patterns are "
                  "not classified here")
        cert.verdict = UNRESOLVED
        return cert, None
    fam = family(k)
    if fam.tag is FamilyTag.OTHER:
        cert.rule("lamination_form", "lamination_reduction", {}, lamination)
        cert.verdict = NONE
        return cert, None
    return cert, fam


def _published_minus2_3(cert: Certificate, q: int, known: tuple[int, ...] | None,
                        examples: str) -> Certificate:
    """Record the published list of (-2,3,q) surgeries for the question;
    ``examples`` is the source realizing the listed slopes."""
    if known is None:
        raise ArithmeticError(f"no published {cert.question} surgery list covers {cert.knot}")
    rule_id = f"published_minus2_3_{cert.question}"
    cert.rule(rule_id, "published_minus2_3_surgeries", {"q": q, "slopes": list(known)},
              f"the published classification lists exactly these {cert.question} "
              "surgery slopes")
    if known:
        cert.rule("known_examples", examples, {"slopes": list(known)},
                  f"the listed fillings are realized {cert.question} surgeries")
    for u in known:
        cert.mark(make_slope(u, 1), STATUS_REALIZED, rule_id)
    cert.realized = known
    cert.verdict = REALIZED if known else NONE
    return cert


def classify_finite(k: PretzelKnot) -> Certificate:
    """Verdict and certificate for non-trivial finite surgeries on k."""
    cert, fam = _open(k, FINITE_Q)
    if fam is None:
        return cert
    if fam.tag is FamilyTag.MINUS2_PQ:
        p, q = fam.odd_pair
        if p == 3:
            return _published_minus2_3(cert, q, facts.known_finite_minus2_3(q),
                                       "bleiler_hodgson")
        cert.rule(
            "not_cyclic_annotation", "cyclic_surgery_theorem",
            {"p": p, "q": q},
            "this knot admits no non-trivial cyclic surgery, so any finite "
            "filling here is not cyclic")
        cert.annotations.append("any non-trivial finite filling is not cyclic")
        cert.annotations.append("no finite filling is known; none is expected")
        cert.verdict = UNRESOLVED
        return cert
    p, q = fam.odd_pair
    _finite_pq_minus_r(cert, p, q, -fam.even_value)
    return cert


# -- the cyclic pipeline ------------------------------------------------------


def classify_cyclic(k: PretzelKnot) -> Certificate:
    """Verdict and certificate for non-trivial cyclic surgeries on k."""
    cert, fam = _open(k, CYCLIC)
    if fam is None:
        return cert
    if fam.tag is FamilyTag.PQ_MINUS_R:
        fin = classify_finite(k)
        if fin.verdict != NONE:
            raise ArithmeticError(f"the finite verdict of {k} is {fin.verdict}, not "
                                  f"{NONE}; cyclic_via_finite does not apply")
        cert.rule(
            "cyclic_via_finite", "z_filling",
            {"finite_verdict": fin.verdict},
            "a cyclic filling would be finite cyclic (excluded: the knot has "
            "no non-trivial finite surgery) or infinite cyclic (excluded for "
            "any non-trivial knot)")
        cert.verdict = NONE
        return cert

    p, q = fam.odd_pair
    tor = toroidal_slope(k)
    cert.data["toroidal_slope"] = str(tor)
    if p == 3:
        return _published_minus2_3(cert, q, facts.known_cyclic_minus2_3(q),
                                   "fintushel_stern")

    bset = nonintegral_slopes_minus2_pq(p, q)
    cert.data["nonintegral_slopes"] = bset.to_json()
    if bset.is_empty:
        cert.rule(
            "no_nonintegral_slopes", "nonintegral_proximity",
            {"p": p, "q": q},
            "with no non-integral boundary slopes there is no candidate "
            "within distance one of one; no cyclic surgery")
        cert.verdict = NONE
        return cert
    candidates = _integer_candidates(bset, odd_only=False)
    cert.rule(
        "nonintegral_proximity", "nonintegral_proximity",
        {"candidates": candidates, "slopes": [str(s) for s in bset.slopes]},
        "a non-trivial cyclic filling must be an integer within distance one "
        "of a non-integral boundary slope")
    unresolved = []
    for u in candidates:
        slope = make_slope(u, 1)
        dist = distance(slope, tor)
        if dist > 5:
            cert.rule(
                f"lens_toroidal_distance:{u}", "lens_toroidal_distance",
                {"slope": u, "toroidal": str(tor), "distance": dist},
                f"a cyclic filling at {u} would be a lens space at distance "
                f"{dist} > 5 from the toroidal filling {tor}")
            cert.mark(slope, STATUS_ELIMINATED, f"lens_toroidal_distance:{u}")
            continue
        snappea = facts.SNAPPEA_HYPERBOLIC_FILLINGS.get(k.indices, ())
        if u in snappea:
            cert.rule(
                f"snappea_hyperbolic:{u}", "snappea_check",
                {"slope": u},
                f"the {u}-filling is verified hyperbolic, hence not cyclic")
            cert.mark(slope, STATUS_ELIMINATED, f"snappea_hyperbolic:{u}")
            continue
        if p == 5 and q >= 9 and u == 2 * q + 5:
            report = cyclic_infeasibility_minus2_5_q(q)
            if not report.infeasible_for_all_pairs:
                raise ArithmeticError(
                    f"the norm model of {k} is feasible at pair "
                    f"{report.offending_pair}; cannot eliminate {u}")
            cert.rule(
                f"seminorm_infeasibility:{u}", "total_norm_model",
                {"slope": u, "q": q, "pairs": len(report.verdicts),
                 "witnesses": [[str(w) for w in v.witness]
                               for v in report.verdicts]},
                f"assuming {u} attains the minimal norm S is infeasible for "
                "every pair of nonzero coefficients (exact Farkas witnesses)")
            cert.mark(slope, STATUS_ELIMINATED, f"seminorm_infeasibility:{u}")
            continue
        unresolved.append(u)
    for u in unresolved:
        cert.mark(make_slope(u, 1), STATUS_UNRESOLVED)
    cert.verdict = UNRESOLVED if unresolved else NONE
    return cert


def classify(k: PretzelKnot, question: str) -> Certificate:
    if question == CYCLIC:
        return classify_cyclic(k)
    if question == FINITE_Q:
        return classify_finite(k)
    raise ValueError(f"unknown question {question!r}")
