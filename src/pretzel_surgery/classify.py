"""Rule-chained verdicts on cyclic and finite surgeries, with certificates.

Each certificate records the applied rules in order; every rule carries a
source descriptor, the inputs it was applied to, and a conclusion.  Every
computed rule has one premise function here, which returns the inputs the
rule records; :func:`replay_certificate` calls it again on the
certificate's knot and compares, so a certificate is evidence, not prose.

Imported theorems (lamination reduction, distance bounds, published case
analyses, SnapPea checks) enter only through the facts table; computed
steps recompute their arithmetic at apply time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

from . import facts
from .boundary import (BoundarySlopeSet, Completeness, nonintegral_slopes_minus2_pq,
                       nonintegral_slopes_pq_minus_r, small_p_value, toroidal_gaps_large_p,
                       toroidal_slope)
from .coxeter import INFINITE, CoxeterSignature, edjvet_verdict
from .knots import (FamilyTag, KnotFamily, PretzelKnot, TorusStatus, family, torus_status,
                    triangle_slack)
from .norms import cyclic_infeasibility_minus2_5_q
from .presentations import longitude_triviality_check
from .slopes import Slope, make_slope
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


# -- premises ----------------------------------------------------------------
#
# One function per computed rule.  It takes the knot's parameters, (p, q, r)
# for (p,q,-r) and (p, q, 2) for (-2,p,q), and the slope u of a per-slope
# rule "id:u", and returns the inputs the rule records when its premise
# holds, None when it does not.  Classify records what it returns; replay
# calls it on the certificate's knot and compares.  A bound the paper proves
# on the whole branch raises ArithmeticError when it fails.


@lru_cache(maxsize=1)
def _boundary(p: int, q: int, r: int) -> BoundarySlopeSet:
    """The non-integral boundary slopes; classifying and replaying one knot
    read them several times, so the last knot's set is kept."""
    if r == 2:
        return nonintegral_slopes_minus2_pq(p, q)
    return nonintegral_slopes_pq_minus_r(p, q, r)


def _far_from_toroidal(bound: int, p: int, q: int, r: int, u: int) -> dict | None:
    tor = 2 * (p + q)  # the toroidal filling of both families
    dist = abs(u - tor)
    return {"slope": u, "toroidal": str(tor), "distance": dist} if dist > bound else None


lens_toroidal_distance = partial(_far_from_toroidal, 5)
exceptional_distance = partial(_far_from_toroidal, 9)


def exceptional_knot_table(p: int, q: int, r: int) -> dict | None:
    return {"p": p, "q": q, "r": r} if (p, q, r) in facts.EXCEPTIONAL_PQR else None


def strict_triangle(p: int, q: int, r: int) -> dict | None:
    """The premise of the three norm rules that record nothing:
    1/p + 1/q + 2/r < 1."""
    return {} if triangle_slack(p, q, r // 2) > 0 else None


def even_numerator_infinite(p: int, q: int, r: int) -> dict | None:
    m = r // 2
    collapses = triangle_slack(p, q, m) >= 0 and longitude_triviality_check(p, q, r)
    return {"p": p, "q": q, "m": m, "longitude_collapses": True} if collapses else None


def even_norm_floor(p: int, q: int, r: int) -> dict | None:
    m = r // 2
    irr = irreducible_char_count(p, q, m)
    return {"p": p, "q": q, "m": m, "irreducible_characters": irr} if irr >= 3 else None


def no_nonintegral_slopes(p: int, q: int, r: int) -> dict | None:
    bset = _boundary(p, q, r)
    if bset.completeness is not Completeness.ALL_NONINTEGRAL or not bset.is_empty:
        return None
    return {"p": p, "q": q} if r == 2 else {"p": p, "q": q, "r": r}


def _window(odd_only: bool, p: int, q: int, r: int) -> dict | None:
    """Integers within open distance one of some non-integral slope, when
    those slopes are all known and there is at least one."""
    bset = _boundary(p, q, r)
    if bset.completeness is not Completeness.ALL_NONINTEGRAL or bset.is_empty:
        return None
    candidates: set[int] = set()
    for s in bset.slopes:
        floor = s.a // s.b
        candidates.update(u for u in (floor, floor + 1) if not odd_only or u % 2)
    return {"candidates": sorted(candidates), "slopes": [str(s) for s in bset.slopes]}


finite_window = partial(_window, True)
nonintegral_proximity = partial(_window, False)


def toroidal_gap_large_p(p: int, q: int, r: int) -> dict | None:
    if not p > 2 * r + 1:
        return None
    gaps = toroidal_gaps_large_p(p, q, r)
    if any(g < 11 for g in gaps):
        raise ArithmeticError(f"a steep slope of ({-r},{p},{q}) lies at gap < 11 from 2(p+q)")
    return {"p": p, "q": q, "r": r, "gaps": [str(g) for g in gaps]}


def toroidal_gap_small_p(p: int, q: int, r: int) -> dict | None:
    if not p <= r - 5:
        return None
    gap = abs(small_p_value(p, q, r) - 2 * (p + q))
    if gap <= 10:
        raise ArithmeticError(f"the slope of ({-r},{p},{q}) lies at gap {gap} <= 10 from 2(p+q)")
    return {"p": p, "q": q, "r": r, "gap": str(gap)}


def coxeter_quotient_infinite(p: int, q: int, r: int, u: int) -> dict | None:
    d = abs(u - 2 * p)
    sig = CoxeterSignature.of(p, d, r // 2) if d >= 2 else None
    if sig is None or not quotient_certified_infinite(sig):
        return None
    return {"slope": u, "signature": [2, sig.a, sig.b, sig.c]}


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


def coxeter_distance_window(p: int, q: int, r: int) -> dict | None:
    """In the middle window r <= p <= 2r, where no slope formula applies: all
    odd s whose two-generator quotient (2,.,.;r/2) is not certified infinite.

    Scans |s-2p| over 1, 3, ..., 13; every clause of the finiteness table
    (and its one open signature) has both odd entries <= 13, and the
    abstention corner a = 3, c <= 3 only concerns d = 3 or p = 3, so larger
    differences always give certified-infinite quotients.
    """
    if _boundary(p, q, r).completeness is Completeness.ALL_NONINTEGRAL:
        return None
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
    window = [[s, out[s]] for s in sorted(out)]
    tor = 2 * (p + q)
    return {"p": p, "q": q, "r": r, "window": window, "toroidal": str(tor),
            "distances": [[s, abs(tor - s)] for s, _ in window]}


def residual_case_table(p: int, q: int, r: int, survivors: list[int]) -> dict | None:
    """The published direct analysis covers every candidate in its window;
    ``survivors`` are the candidates it eliminates."""
    return {"p": p, "r": r, "survivors": survivors} if facts.in_residual_window(p, r) else None


def _published(known_list, p: int, q: int, r: int) -> dict | None:
    known = known_list(q) if p == 3 else None
    return None if known is None else {"q": q, "slopes": list(known)}


published_minus2_3_cyclic = partial(_published, facts.known_cyclic_minus2_3)
published_minus2_3_finite = partial(_published, facts.known_finite_minus2_3)


# Per question: the premise of the published (-2,3,q) list and the source
# realizing its slopes.
_PUBLISHED = {CYCLIC: (published_minus2_3_cyclic, "fintushel_stern"),
              FINITE_Q: (published_minus2_3_finite, "bleiler_hodgson")}


def known_examples(p: int, q: int, r: int, question: str) -> dict | None:
    published = _PUBLISHED[question][0](p, q, r)
    return {"slopes": published["slopes"]} if published and published["slopes"] else None


def not_cyclic_annotation(p: int, q: int, r: int) -> dict | None:
    cyclic = classify_cyclic(PretzelKnot(-r, p, q)).verdict
    return {"p": p, "q": q} if cyclic == NONE else None


def cyclic_via_finite(p: int, q: int, r: int) -> dict | None:
    finite = classify_finite(PretzelKnot(-r, p, q)).verdict
    return {"finite_verdict": finite} if finite == NONE else None


def snappea_hyperbolic(p: int, q: int, r: int, u: int) -> dict | None:
    return {"slope": u} if u in facts.SNAPPEA_HYPERBOLIC_FILLINGS.get((-r, p, q), ()) else None


def seminorm_infeasibility(p: int, q: int, r: int, u: int) -> dict | None:
    if not (p == 5 and q >= 9 and u == 2 * q + 5):
        return None
    report = cyclic_infeasibility_minus2_5_q(q)
    if not report.infeasible_for_all_pairs:
        raise ArithmeticError(f"the norm model of (-2,{p},{q}) is feasible at pair "
                              f"{report.offending_pair}; cannot eliminate {u}")
    return {"slope": u, "q": q, "pairs": len(report.verdicts),
            "witnesses": [[str(w) for w in v.witness] for v in report.verdicts]}


# -- per-slope elimination ----------------------------------------------------


# Per pipeline, the per-slope rules in the order they are tried: id, source,
# premise, and the conclusion, formatted with u and the recorded inputs.
_FINITE_SLOPE_RULES = (
    ("exceptional_distance", "exceptional_distance", exceptional_distance,
     "slope {u} has distance {distance} > 9 from the toroidal filling {toroidal}"),
    ("coxeter_quotient_infinite", "quotient_surjection", coxeter_quotient_infinite,
     "the filled group surjects onto the infinite group (2,{signature[1]},{signature[2]};"
     "{signature[3]}), so the {u}-filling is not finite"),
)
_CYCLIC_SLOPE_RULES = (
    ("lens_toroidal_distance", "lens_toroidal_distance", lens_toroidal_distance,
     "a cyclic filling at {u} would be a lens space at distance {distance} > 5 from the "
     "toroidal filling {toroidal}"),
    ("snappea_hyperbolic", "snappea_check", snappea_hyperbolic,
     "the {u}-filling is verified hyperbolic, hence not cyclic"),
    ("seminorm_infeasibility", "total_norm_model", seminorm_infeasibility,
     "assuming {u} attains the minimal norm S is infeasible for every pair of nonzero "
     "coefficients (exact Farkas witnesses)"),
)


def _eliminate(cert: Certificate, rules: tuple, p: int, q: int, r: int, u: int) -> bool:
    """Record the first per-slope rule "id:u" whose premise holds and mark u
    eliminated by it; False when none holds."""
    for rule, source, premise, conclusion in rules:
        inputs = premise(p, q, r, u)
        if inputs is not None:
            rule_id = f"{rule}:{u}"
            cert.rule(rule_id, source, inputs, conclusion.format(u=u, **inputs))
            cert.mark(make_slope(u, 1), STATUS_ELIMINATED, rule_id)
            return True
    return False


# -- the finite pipeline ----------------------------------------------------


_NORM_RULES = (
    ("even_numerator_infinite", "character_doubling", even_numerator_infinite,
     "fillings 2a/b factor through the infinite triangle quotient, so any finite "
     "filling has odd numerator"),
    ("denominator_bound", "finite_norm_bound", strict_triangle,
     "a finite filling slope a/b has b <= 2"),
    ("even_norm_floor", "character_doubling", even_norm_floor,
     "even-numerator classes have total norm >= S + 12"),
    ("half_integral_excluded", "finite_norm_bound", strict_triangle,
     "a half-integral finite filling would force norm < S + 4 at an even integral "
     "midpoint, against the S + 12 floor; so the filling is odd integral"),
    ("odd_uniqueness", "finite_norm_bound", strict_triangle,
     "two odd integral fillings of norm <= S + 8 would trap an even integral class "
     "of norm <= S + 8; at most one finite filling exists"),
)

_GAP_RULES = (
    ("toroidal_gap_large_p", toroidal_gap_large_p,
     "both steep slopes lie at gap >= 11 from the toroidal filling 2(p+q), so every "
     "windowed candidate violates the distance bound; no finite surgery"),
    ("toroidal_gap_small_p", toroidal_gap_small_p,
     "the lone non-integral slope lies at gap > 10 from the toroidal filling 2(p+q); "
     "no finite surgery"),
)


def _finite_pq_minus_r(cert: Certificate, p: int, q: int, r: int) -> None:
    k = cert.knot
    table = exceptional_knot_table(p, q, r)
    if table is not None:
        cert.rule(
            "exceptional_knot_table", "residual_case_analysis", table,
            "the strict triangle condition fails here; the published direct "
            "analysis finds no non-trivial finite surgeries")
        cert.verdict = NONE
        return

    # Outside the exceptional table the paper proves every premise here.
    for rule_id, source, premise, conclusion in _NORM_RULES:
        inputs = premise(p, q, r)
        if inputs is None:
            raise ArithmeticError(f"the premise of {rule_id} fails on {k}")
        cert.rule(rule_id, source, inputs, conclusion)
    cert.data["toroidal_slope"] = str(toroidal_slope(k))
    cert.data["nonintegral_slopes"] = _boundary(p, q, r).to_json()

    empty = no_nonintegral_slopes(p, q, r)
    if empty is not None:
        cert.rule(
            "no_nonintegral_slopes", "montesinos_boundary_slopes", empty,
            "there are no non-integral boundary slopes, so no odd integral "
            "slope sits within distance one of one; no finite surgery")
        cert.verdict = NONE
        return
    window = finite_window(p, q, r)
    if window is not None:
        cert.rule(
            "finite_window", "montesinos_boundary_slopes", window,
            "a finite filling must be an odd integer within distance one of a "
            "non-integral boundary slope")
        for rule_id, premise, conclusion in _GAP_RULES:
            gaps = premise(p, q, r)
            if gaps is not None:
                cert.rule(rule_id, "exceptional_distance", gaps, conclusion)
                for u in window["candidates"]:
                    cert.mark(make_slope(u, 1), STATUS_ELIMINATED, rule_id)
                cert.verdict = NONE
                return
        survivors = [u for u in window["candidates"]
                     if not _eliminate(cert, _FINITE_SLOPE_RULES, p, q, r, u)]
    else:
        # Middle window r <= p <= 2r: no slope formula, so bound the
        # candidate set through the quotient groups instead.
        window = coxeter_distance_window(p, q, r)
        cert.rule(
            "coxeter_distance_window", "coxeter_finiteness", window,
            "any finite filling s must keep the quotient (2,p,|s-2p|;r/2) "
            "finite, confining s to the listed window; slopes at distance > 9 "
            "from 2(p+q) are excluded by the exceptional-distance bound")
        survivors = [s for s, _ in window["window"] if exceptional_distance(p, q, r, s) is None]
        for s, _ in window["window"]:
            if s not in survivors:
                cert.mark(make_slope(s, 1), STATUS_ELIMINATED, "coxeter_distance_window")
    if not survivors:
        cert.verdict = NONE
        return
    table = residual_case_table(p, q, r, survivors)
    if table is not None:
        cert.rule(
            "residual_case_table", "residual_case_analysis", table,
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


def _published_minus2_3(cert: Certificate, q: int) -> Certificate:
    """Record the published list of (-2,3,q) surgeries for the question."""
    premise, examples_source = _PUBLISHED[cert.question]
    published = premise(3, q, 2)
    if published is None:
        raise ArithmeticError(f"no published {cert.question} surgery list covers {cert.knot}")
    rule_id = f"published_minus2_3_{cert.question}"
    cert.rule(rule_id, "published_minus2_3_surgeries", published,
              f"the published classification lists exactly these {cert.question} "
              "surgery slopes")
    examples = known_examples(3, q, 2, cert.question)
    if examples is not None:
        cert.rule("known_examples", examples_source, examples,
                  f"the listed fillings are realized {cert.question} surgeries")
    known = tuple(published["slopes"])
    for u in known:
        cert.mark(make_slope(u, 1), STATUS_REALIZED, rule_id)
    cert.realized = known
    cert.verdict = REALIZED if known else NONE
    return cert


def classify_finite(k: PretzelKnot) -> Certificate:
    """Verdict and certificate for non-trivial finite surgeries on k.

    The last knot's certificate is kept: a cyclic sweep needs a (p,q,-r)
    knot's finite verdict in classify and again in replay, back to back.
    Each call returns a new certificate with its own lists and data dict, so
    editing one never reaches the kept one; the rule inputs and the values
    of ``data`` are shared, read-only records.
    """
    cert = _classify_finite(k)
    return Certificate(cert.knot, cert.question, cert.verdict, cert.realized,
                       [*cert.slopes], [*cert.rules], [*cert.annotations], {**cert.data})


@lru_cache(maxsize=1)
def _classify_finite(k: PretzelKnot) -> Certificate:
    cert, fam = _open(k, FINITE_Q)
    if fam is None:
        return cert
    (p, q), r = fam.odd_pair, -fam.even_value
    if fam.tag is FamilyTag.PQ_MINUS_R:
        _finite_pq_minus_r(cert, p, q, r)
        return cert
    if p == 3:
        return _published_minus2_3(cert, q)
    note = not_cyclic_annotation(p, q, r)
    if note is None:
        raise ArithmeticError(f"{k} has a cyclic verdict other than {NONE}; the "
                              "not-cyclic annotation does not apply")
    cert.rule(
        "not_cyclic_annotation", "cyclic_surgery_theorem", note,
        "this knot admits no non-trivial cyclic surgery, so any finite "
        "filling here is not cyclic")
    cert.annotations.append("any non-trivial finite filling is not cyclic")
    cert.annotations.append("no finite filling is known; none is expected")
    cert.verdict = UNRESOLVED
    return cert


# -- the cyclic pipeline ------------------------------------------------------


def classify_cyclic(k: PretzelKnot) -> Certificate:
    """Verdict and certificate for non-trivial cyclic surgeries on k."""
    cert, fam = _open(k, CYCLIC)
    if fam is None:
        return cert
    (p, q), r = fam.odd_pair, -fam.even_value
    if fam.tag is FamilyTag.PQ_MINUS_R:
        via = cyclic_via_finite(p, q, r)
        if via is None:
            raise ArithmeticError(f"the finite verdict of {k} is not {NONE}; "
                                  "cyclic_via_finite does not apply")
        cert.rule(
            "cyclic_via_finite", "z_filling", via,
            "a cyclic filling would be finite cyclic (excluded: the knot has "
            "no non-trivial finite surgery) or infinite cyclic (excluded for "
            "any non-trivial knot)")
        cert.verdict = NONE
        return cert

    cert.data["toroidal_slope"] = str(toroidal_slope(k))
    if p == 3:
        return _published_minus2_3(cert, q)
    cert.data["nonintegral_slopes"] = _boundary(p, q, r).to_json()
    empty = no_nonintegral_slopes(p, q, r)
    if empty is not None:
        cert.rule(
            "no_nonintegral_slopes", "nonintegral_proximity", empty,
            "with no non-integral boundary slopes there is no candidate "
            "within distance one of one; no cyclic surgery")
        cert.verdict = NONE
        return cert
    window = nonintegral_proximity(p, q, r)
    cert.rule(
        "nonintegral_proximity", "nonintegral_proximity", window,
        "a non-trivial cyclic filling must be an integer within distance one "
        "of a non-integral boundary slope")
    unresolved = [u for u in window["candidates"]
                  if not _eliminate(cert, _CYCLIC_SLOPE_RULES, p, q, r, u)]
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
