"""Rule-chained verdicts on cyclic and finite surgeries, with certificates.

A certificate records the applied rules in order, each as its id and the
inputs it records.  Each rule is one row of :data:`RULES`, per question: its
source, its premise, its conclusion, what it settles and the notes it adds.
A row that holds wherever a pipeline reaches it has no premise and is
recorded directly: the opening rows that the family tag picks, the norm rows
that Tier-1 proves on the (p,q,-r) family, the published (-2,3,q) lists, which
cover every such knot, and the not-cyclic note of a (-2,p,q) knot with p >= 5,
which Tier-1 proves has no cyclic surgery.  The pipelines only apply and record
rows, in the order of the paper's case analysis, which is written nowhere
else: :func:`classify` walks them afresh for any knot, and replay derives a
certificate again with it and compares.  :func:`conclude` gives the slope
marks, realized slopes and verdict of the chain.  A certificate is an
immutable record of the chain, its verdict and realized slopes; its slope
marks are derived when read, and its data when written.  The one-knot memos
here (``_boundary``, ``classify_finite``) and ``knots.family`` hold pure
functions of the knot, so replay shares no mutable state with classify.  A
row that records the same inputs on every knot that records it is one
read-only rule built at import, shared by every certificate recording it; a
table keyed by question and family tag names the one that settles a knot
alone, and the knot gets that row's chain, concluded at import.
Imported theorems enter only through the facts table; computed steps are int
kernels (slopes and gaps as reduced pairs, no ``Fraction``).

:func:`emit_certificate` reads each rule's text (:func:`rule_text`) and the
notes from the table, and writes a JSON line field by field, ``data`` too,
with constant strings and the JSON of each row without a slope escaped once at
import: the bytes of ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
on the certificate's dict form, with no dict built.  A certificate holding the
shared chain of a row that settles a knot alone (an identity test), with its
verdict and realized slopes, is written from that chain's template: the line
this emitter writes for it at import, cut around the knot's data and triple.
What the data of a line lists is decided in one place, which asks
``knots.family`` only when the knot's first index leaves it open.
"""

from __future__ import annotations

from functools import lru_cache, partial
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Callable, NamedTuple

from . import facts
from .boundary import (BoundarySlopeSet, Completeness, nonintegral_slopes_minus2_pq,
                       nonintegral_slopes_pq_minus_r, small_p_pair, toroidal_gap_pairs_large_p)
from .coxeter import INFINITE, CoxeterSignature, edjvet_verdict
from .knots import FamilyTag, KnotFamily, PretzelKnot, family, first_index_family
from .norms import cyclic_infeasibility_minus2_5_q
from .slopes import ratio_text
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
    """One recorded rule: its id and its inputs."""

    id: str
    inputs: dict


class _ReadOnly(dict):
    """The inputs of a rule that every certificate recording it shares: no
    in-place edit, and a copy or pickle of it is a plain dict."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("shared rule inputs are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class Certificate(NamedTuple):
    """One knot's rule chain, verdict and realized slopes on one question, built once;
    its slope marks and notes are derived when read, and rule inputs are read-only."""

    knot: PretzelKnot
    question: str
    verdict: str = UNRESOLVED
    realized: tuple[int, ...] = ()
    rules: tuple[Rule, ...] = ()

    @property
    def slopes(self) -> list[tuple[int, int, str, str | None]]:  # (a, b, status, rule id)
        return conclude(self.rules)[0]

    @property
    def annotations(self) -> list[str]:
        """The notes of the chain's rows, read from the rule table."""
        noted = _NOTES.get(self.question)  # no notes: no list to build
        return [n for r in self.rules if r.id in noted for n in noted[r.id]] if noted else []


# One encoder for every certificate, built at import (JSONEncoder.encode builds
# a new C encoder per call); a certificate is a tree, so no cycle check.
# Without the _json accelerator JSONEncoder is the fallback, with the same bytes.
if c_make_encoder is None:
    _encode = JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
else:
    _c_encoder = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                                ":", ",", True, False, True)

    def _encode(o) -> str:
        return "".join(_c_encoder(o, 0))


def emit_certificate(cert: Certificate, fmt: str = "json", cite: bool = False) -> str:
    """Deterministic serialization, 'json' or 'text'; KeyError for a rule outside the table.
    A JSON line whose rules are an opened chain's shared tuple itself, with its verdict and
    realized slopes, is that chain's template around the knot's data and triple."""
    if fmt == "json":
        rules, q = cert.rules, cert.question
        opened = len(rules) == 1 and _TEMPLATES.get((q, rules[0].id))
        if opened and rules is opened[2] and (cert.verdict, cert.realized) == opened[:2]:
            return f"{opened[3]}{_knot_json(q, cert.knot)}{opened[4]}"
        return _json_line(cert)
    if fmt != "text":
        raise ValueError(f"unknown certificate format {fmt!r}")
    lines = [f"knot {cert.knot}  question={cert.question}  verdict={cert.verdict}"]
    if cert.realized:
        lines.append("  realized: " + ", ".join(str(u) for u in cert.realized))
    lines += [f"  slope {ratio_text(a, b)}: {status}" + (f"  [{rule}]" if rule else "")
              for a, b, status, rule in cert.slopes]
    lines += [f"  note: {note}" for note in cert.annotations]
    lines.append("  rules:")
    for i, r in enumerate(cert.rules, start=1):
        _, citation, conclusion = rule_text(cert.question, r.id, r.inputs)
        lines.append(f"    {i}. {r.id}: {conclusion}")
        if cite:
            lines.append(f"       cite: {citation}")
    return "\n".join(lines)


def _json_line(cert: Certificate) -> str:
    """The JSON line of any certificate, written field by field."""
    e, notes, q = _ESCAPED, cert.annotations, cert.question
    rules = ",".join([f'{h}{_encode(r.inputs) if r.inputs else "{}"}{t}' for r in cert.rules
                      for h, t in [_AROUND.get((q, r.id)) or _around(q, r.id, r.inputs)]])
    slopes = ",".join([f'{{"rule":{e[rule]},"slope":{_encode(ratio_text(a, b))},'
                       f'"status":{e[status]}}}' for a, b, status, rule in cert.slopes])
    return (f'{{"annotations":{_encode(notes) if notes else "[]"},'
            f'"data":{_knot_json(q, cert.knot)},"question":{e[q]},'
            f'"realized":{_encode(cert.realized) if cert.realized else "[]"},'
            f'"rules":[{rules}],"slopes":[{slopes}],"verdict":{e[cert.verdict]}}}')


def _knot_json(question: str, k: PretzelKnot) -> str:
    """The JSON of a line from its data, written field by field, to its knot's triple."""
    tor, bset = _listed(question, k)
    data = f'"toroidal_slope":"{tor}"' if tor else ""
    if bset is not None:
        data = (f'"nonintegral_slopes":{{"boundary_slopes":{_encode(list(map(str, bset.slopes)))},'
                f'"completeness":{_ESCAPED[bset.completeness.value]},"dropped_integral":'
                f'{_encode(list(map(str, bset.dropped_integral)))}}},{data}')
    return f'{{{data}}},"pretzel":[{k.p},{k.q},{k.r}]'


def _around(question: str, rule_id: str, inputs: dict) -> tuple[str, str]:
    (source, citation, conclusion), e = rule_text(question, rule_id, inputs), _ESCAPED
    return (f'{{"citation":{e[citation]},"conclusion":{e[conclusion]},"id":{e[rule_id]},'
            '"inputs":', f',"source":{e[source]}}}')


def rule_text(question: str, rule_id: str, inputs: dict) -> tuple[str, str, str]:
    """The source, citation and conclusion of a rule of the question, from its
    row, with u and ``inputs`` in the conclusion of "id:u".  KeyError if no row has it."""
    key, colon, u = rule_id.partition(":")
    row = RULES[question][key + colon]
    conclusion = row.conclusion.format(u=u, **inputs) if colon else row.conclusion
    return row.source, facts.SOURCES[row.source], conclusion


# -- premises ----------------------------------------------------------------
#
# One function per rule that can fail: the inputs the rule records when its
# premise holds, None when it does not.  cyclic_via_finite takes the knot and
# its family, the other rules the knot's parameters, (p, q, r) for (p,q,-r)
# and (p, q, 2) for (-2,p,q), and the slope u of a per-slope rule "id:u".  A
# bound the paper proves on the whole branch raises ArithmeticError if it fails.


@lru_cache(maxsize=1)
def _boundary(p: int, q: int, r: int) -> BoundarySlopeSet:
    """The non-integral boundary slopes, which classifying one knot reads often."""
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
    gaps = toroidal_gap_pairs_large_p(p, q, r)
    if any(n < 11 * d for n, d in gaps):
        raise ArithmeticError(f"a steep slope of ({-r},{p},{q}) lies at gap < 11 from 2(p+q)")
    return {"p": p, "q": q, "r": r, "gaps": [ratio_text(n, d) for n, d in gaps]}


def toroidal_gap_small_p(p: int, q: int, r: int) -> dict | None:
    if not p <= r - 5:
        return None
    n, d = small_p_pair(p, q, r)
    g = abs(n - 2 * (p + q) * d)  # the gap is g/d, reduced as n/d is
    if g <= 10 * d:
        raise ArithmeticError(f"the slope of ({-r},{p},{q}) lies at gap {g}/{d} <= 10 from 2(p+q)")
    return {"p": p, "q": q, "r": r, "gap": ratio_text(g, d)}


def coxeter_quotient_infinite(p: int, q: int, r: int, u: int) -> dict | None:
    sig = CoxeterSignature.of_filling(p, r, u)
    if sig is None or not quotient_certified_infinite(sig, edjvet_verdict(sig).status):
        return None
    return {"slope": u, "signature": [2, sig.a, sig.b, sig.c]}


def quotient_certified_infinite(sig: CoxeterSignature, status: str) -> bool:
    """Infiniteness of (2,a,b;c), whose ``edjvet_verdict`` status is
    ``status``, as the classifier is allowed to use it.

    The quoted classification is trusted except on the corner a = 3 with
    c <= 3, where the group provably collapses: the index-two subgroup
    generated by R and its (RS)-conjugate is a quotient of the (3,3,c)
    triangle group, spherical for c = 2 (order <= 12) and observed to
    collapse for c = 3; coset enumeration confirms tiny finite orders
    across that corner.  There the oracle abstains, which is always sound.
    """
    return status == INFINITE and not (sig.a == 3 and sig.c <= 3)


def coxeter_distance_window(p: int, q: int, r: int) -> dict | None:
    """In the middle window r <= p <= 2r, where no slope formula applies: all
    odd s whose two-generator quotient (2,.,.;r/2) is not certified infinite.

    Scans d = |s-2p| over 1, 3, ..., 13, reading the quotient of s = 2p + d
    from ``CoxeterSignature.of_filling``; every clause of the finiteness table
    (and its one open signature) has both odd entries <= 13, and the
    abstention corner a = 3, c <= 3 only concerns d = 3 or p = 3, so larger
    differences always give certified-infinite quotients.
    """
    if _boundary(p, q, r).completeness is Completeness.ALL_NONINTEGRAL:
        return None
    out = {}
    for d in (1, 3, 5, 7, 9, 11, 13):
        sig = CoxeterSignature.of_filling(p, r, 2 * p + d)
        if sig is None:
            reason = "degenerate quotient"
        else:
            status = edjvet_verdict(sig).status
            if quotient_certified_infinite(sig, status):
                continue
            reason = f"{sig} {status}"
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


def cyclic_via_finite(k: PretzelKnot, fam: KnotFamily) -> dict | None:
    finite = classify_finite(k).verdict
    return {"finite_verdict": finite} if finite == NONE else None


def snappea_hyperbolic(p: int, q: int, r: int, u: int) -> dict | None:
    return {"slope": u} if u in facts.SNAPPEA_HYPERBOLIC_FILLINGS.get((-r, p, q), ()) else None


def seminorm_infeasibility(p: int, q: int, r: int, u: int) -> dict | None:
    if not (p == 5 and q >= 9 and u == 2 * q + 5):
        return None
    report = cyclic_infeasibility_minus2_5_q(q)
    feasible = [pair for pair, v in zip(report.pairs, report.verdicts) if v.feasible]
    if feasible:
        raise ArithmeticError(f"the norm model of (-2,{p},{q}) is feasible at pair "
                              f"{feasible[0]}; cannot eliminate {u}")
    return {"slope": u, "q": q, "pairs": len(report.verdicts),
            "witnesses": [[str(w) for w in v.witness] for v in report.verdicts]}


# -- the rule table -----------------------------------------------------------
#
# What a rule settles, read by conclude: a verdict, NONE or TORUS_INFINITE,
# when the rule settles the question alone; None when it settles nothing;
# else one of these.

WINDOW = "every slope but its candidates"
SLOPE = "its slope u"
CANDIDATES = "the window's candidates"
FAR = "every slope but its window, and its window slopes at distance > 9"
SURVIVORS = "its survivors"
PUBLISHED = "its published slopes"


class RuleRow(NamedTuple):
    """One rule, as the pipelines apply it and the emitter writes it."""

    source: str  # a key of facts.SOURCES
    premise: Callable[..., dict | None] | None  # None: holds wherever a pipeline records it
    conclusion: str  # formatted with u and the inputs for a per-slope rule "id:u"
    settles: str | None
    notes: tuple[str, ...] = ()  # the annotations of a certificate that records this row


_M2, _PQR = FamilyTag.MINUS2_PQ, FamilyTag.PQ_MINUS_R


def _shared_rows(question: str, fillings: str, examples_source: str) -> dict:
    """The opening rows and the (-2,3,q) rows, in the words of the question."""
    return {
        "torus_pretzel": RuleRow("torus_classification", None, (
            f"torus knots admit infinitely many {fillings} fillings"), TORUS_INFINITE),
        "unclassified_indices": RuleRow("torus_classification", None, (
            "triples with a +-1 index outside the encoded patterns are not classified here"),
            None),
        "lamination_form": RuleRow("lamination_reduction", None, (
            "a non-torus pretzel knot outside the (p,q,-r) form admits no non-trivial "
            f"{question} surgery"), NONE),
        f"published_minus2_3_{question}": RuleRow("published_minus2_3_surgeries", None, (
            f"the published classification lists exactly these {question} surgery slopes"),
            PUBLISHED),
        "known_examples": RuleRow(examples_source, None, (
            f"the listed fillings are realized {question} surgeries"), None),
    }


# Per question: rule id -> its row.  A per-slope rule "id:u" is keyed "id:".
RULES: dict[str, dict[str, RuleRow]] = {
    FINITE_Q: {
        **_shared_rows(FINITE_Q, "finite (indeed cyclic)", "bleiler_hodgson"),
        "not_cyclic_annotation": RuleRow("cyclic_surgery_theorem", None, (
            "this knot admits no non-trivial cyclic surgery, so any finite filling here is not "
            "cyclic"), None, notes=("any non-trivial finite filling is not cyclic",
                                    "no finite filling is known; none is expected")),
        "exceptional_knot_table": RuleRow("residual_case_analysis", exceptional_knot_table, (
            "the strict triangle condition fails here; the published direct analysis finds no "
            "non-trivial finite surgeries"), NONE),
        "even_numerator_infinite": RuleRow("character_doubling", None, (
            "fillings 2a/b factor through the infinite triangle quotient, so any finite filling "
            "has odd numerator"), None),
        "denominator_bound": RuleRow("finite_norm_bound", None, (
            "a finite filling slope a/b has b <= 2"), None),
        "even_norm_floor": RuleRow("character_doubling", None, (
            "even-numerator classes have total norm >= S + 12"), None),
        "half_integral_excluded": RuleRow("finite_norm_bound", None, (
            "a half-integral finite filling would force norm < S + 4 at an even integral "
            "midpoint, against the S + 12 floor; so the filling is odd integral"), None),
        "odd_uniqueness": RuleRow("finite_norm_bound", None, (
            "two odd integral fillings of norm <= S + 8 would trap an even integral class of "
            "norm <= S + 8; at most one finite filling exists"), None),
        "no_nonintegral_slopes": RuleRow("montesinos_boundary_slopes", no_nonintegral_slopes, (
            "there are no non-integral boundary slopes, so no odd integral slope sits within "
            "distance one of one; no finite surgery"), NONE),
        "finite_window": RuleRow("montesinos_boundary_slopes", finite_window, (
            "a finite filling must be an odd integer within distance one of a non-integral "
            "boundary slope"), WINDOW),
        "toroidal_gap_large_p": RuleRow("exceptional_distance", toroidal_gap_large_p, (
            "both steep slopes lie at gap >= 11 from the toroidal filling 2(p+q), so every "
            "windowed candidate violates the distance bound; no finite surgery"), CANDIDATES),
        "toroidal_gap_small_p": RuleRow("exceptional_distance", toroidal_gap_small_p, (
            "the lone non-integral slope lies at gap > 10 from the toroidal filling 2(p+q); no "
            "finite surgery"), CANDIDATES),
        "exceptional_distance:": RuleRow("exceptional_distance", exceptional_distance, (
            "slope {u} has distance {distance} > 9 from the toroidal filling {toroidal}"), SLOPE),
        "coxeter_quotient_infinite:": RuleRow("quotient_surjection", coxeter_quotient_infinite, (
            "the filled group surjects onto the infinite group (2,{signature[1]},"
            "{signature[2]};{signature[3]}), so the {u}-filling is not finite"), SLOPE),
        "coxeter_distance_window": RuleRow("coxeter_finiteness", coxeter_distance_window, (
            "any finite filling s must keep the quotient (2,p,|s-2p|;r/2) finite, confining s to "
            "the listed window; slopes at distance > 9 from 2(p+q) are excluded by the "
            "exceptional-distance bound"), FAR),
        "residual_case_table": RuleRow("residual_case_analysis", residual_case_table, (
            "inside the window 3 <= p <= 7, 4 <= r <= 10 the published direct analysis rules out "
            "all remaining candidates"), SURVIVORS),
    },
    CYCLIC: {
        **_shared_rows(CYCLIC, "cyclic", "fintushel_stern"),
        "cyclic_via_finite": RuleRow("z_filling", cyclic_via_finite, (
            "a cyclic filling would be finite cyclic (excluded: the knot has no non-trivial "
            "finite surgery) or infinite cyclic (excluded for any non-trivial knot)"), NONE),
        "no_nonintegral_slopes": RuleRow("nonintegral_proximity", no_nonintegral_slopes, (
            "with no non-integral boundary slopes there is no candidate within distance one of "
            "one; no cyclic surgery"), NONE),
        "nonintegral_proximity": RuleRow("nonintegral_proximity", nonintegral_proximity, (
            "a non-trivial cyclic filling must be an integer within distance one of a "
            "non-integral boundary slope"), WINDOW),
        "lens_toroidal_distance:": RuleRow("lens_toroidal_distance", lens_toroidal_distance, (
            "a cyclic filling at {u} would be a lens space at distance {distance} > 5 from the "
            "toroidal filling {toroidal}"), SLOPE),
        "snappea_hyperbolic:": RuleRow("snappea_check", snappea_hyperbolic, (
            "the {u}-filling is verified hyperbolic, hence not cyclic"), SLOPE),
        "seminorm_infeasibility:": RuleRow("total_norm_model", seminorm_infeasibility, (
            "assuming {u} attains the minimal norm S is infeasible for every pair of nonzero "
            "coefficients (exact Farkas witnesses)"), SLOPE),
    },
}

_SETTLES = {key: row.settles for rows in RULES.values() for key, row in rows.items()}
_NOTES = {q: {k: row.notes for k, row in rows.items() if row.notes} for q, rows in RULES.items()}


class _Escaped(dict):
    """The JSON text of each constant string; any other value is encoded, never added."""
    def __missing__(self, value) -> str:
        return _encode(value)


_ESCAPED = _Escaped((text, _encode(text)) for text in (
    None, REALIZED, NONE, TORUS_INFINITE, UNRESOLVED, STATUS_REALIZED, STATUS_ELIMINATED,
    STATUS_UNRESOLVED, CYCLIC, FINITE_Q, *facts.SOURCES.values(), *(c.value for c in Completeness),
    *(text for rows in RULES.values() for key, row in rows.items() for text in (key, row.source))))
# (question, id) -> the JSON object of each row without a slope, before and after its inputs.
_AROUND = {(question, key): _around(question, key, {}) for question, rows in RULES.items()
           for key in rows if key[-1] != ":"}

def conclude(rules: list[Rule]) -> tuple[list[tuple[int, int, str, str | None]],
                                         tuple[int, ...], str]:
    """The slope marks ``(a, b, status, rule id)``, the realized slopes and
    the verdict that a chain of rules implies.

    A window rule opens its candidates and settles every other slope.  A
    later rule eliminates those of its slopes still open, in the order it
    lists them, and the candidates left open are unresolved.  A published
    list marks its slopes realized.  The verdict is the one a rule settles
    the question with, REALIZED for a non-empty published list, NONE after
    a window; UNRESOLVED when a candidate is left open or no rule settles
    the question.
    """
    marks, realized, verdict, open_ = [], (), UNRESOLVED, []
    for rule in rules:
        settles = _SETTLES.get(rule.id, SLOPE)  # "id:u" is keyed "id:"
        if settles is None:
            continue
        if settles is NONE or settles is TORUS_INFINITE:
            verdict = settles
            continue
        inputs, settled = rule.inputs, ()
        if settles is SLOPE:
            settled = (inputs["slope"],)
        elif settles is CANDIDATES:
            settled = [*open_]
        elif settles is SURVIVORS:
            settled = inputs["survivors"]
        elif settles is WINDOW:
            open_, verdict = [*inputs["candidates"]], NONE
        elif settles is FAR:
            open_, verdict = [s for s, _ in inputs["window"]], NONE
            settled = [s for s, d in inputs["distances"] if d > exceptional_distance.args[0]]
        elif settles is PUBLISHED:
            realized = tuple(inputs["slopes"])
            marks += [(u, 1, STATUS_REALIZED, rule.id) for u in realized]
            verdict = REALIZED if realized else NONE
        for u in settled:
            if u in open_:
                open_.remove(u)
                marks.append((u, 1, STATUS_ELIMINATED, rule.id))
    if open_:
        marks += [(u, 1, STATUS_UNRESOLVED, None) for u in open_]
        verdict = UNRESOLVED
    return marks, realized, verdict


# The rows that record the same inputs on every knot that records them, each
# with the one read-only rule that every certificate recording it shares.
_SHARED = {key: Rule(key, _ReadOnly(inputs)) for key, inputs in [
    *((key, {}) for key in ("torus_pretzel", "unclassified_indices", "lamination_form",
                            "denominator_bound", "half_integral_excluded", "odd_uniqueness")),
    ("cyclic_via_finite", {"finite_verdict": NONE})]}
# (question, family tag) -> the shared row that settles a knot of the family
# alone: an opening row, or on the cyclic question a (p,q,-r) knot's finite verdict.
_ALONE = {(question, tag): key for question in RULES for tag, key in [
    (FamilyTag.TORUS, "torus_pretzel"), (FamilyTag.UNCLASSIFIED, "unclassified_indices"),
    (FamilyTag.OTHER, "lamination_form")]}
_ALONE[CYCLIC, _PQR] = "cyclic_via_finite"
# The chain (verdict, realized, rules) of each such row, concluded once.
_OPENED = {key: (verdict, realized, (_SHARED[key],)) for key in dict.fromkeys(_ALONE.values())
           for _, realized, verdict in [conclude([_SHARED[key]])]}


def _apply(rules: list[Rule], question: str, key: str, *args) -> dict | None:
    """Apply the row ``key`` of the question to ``args``: when its premise holds, append
    the rule to ``rules`` and return the inputs it records.  A per-slope row "id:" is
    recorded as "id:u", u the last argument.  A row with no premise is never applied."""
    inputs = RULES[question][key].premise(*args)
    if inputs is not None:
        rules.append(Rule(f"{key}{args[-1]}" if key[-1] == ":" else key, inputs))
    return inputs


def _listed(question: str, k: PretzelKnot) -> tuple[int, BoundarySlopeSet | None]:
    """The toroidal filling 2(p+q) and non-integral boundary slopes a certificate lists for
    k: 0 and None off the question's family or on the exceptional table, None on (-2,3,q).
    ``family`` is asked only when k's first index leaves the question's family open."""
    tag = _M2 if question == CYCLIC else _PQR
    if first_index_family(k.p) is not tag or (fam := family(k)).tag is not tag:
        return 0, None
    (p, q), r = fam.odd_pair, -fam.even_value
    if exceptional_knot_table(p, q, r):
        return 0, None
    return 2 * (p + q), None if (p, r) == (3, 2) else _boundary(p, q, r)


# (question, row) of _ALONE -> the row's opened chain (verdict, realized, rules) and its line
# on a probe knot cut around _knot_json (ValueError unless that occurs once).
_PROBE = PretzelKnot(1, 1, 1)
_TEMPLATES = {(question, key): (*_OPENED[key], head, tail) for (question, _), key in _ALONE.items()
              for head, tail in [_json_line(Certificate(_PROBE, question, *_OPENED[key])).split(
                  _knot_json(question, _PROBE))]}


def _eliminated(rules: list[Rule], question: str, keys: tuple[str, ...], p: int, q: int,
                r: int, u: int) -> bool:
    """Apply the first per-slope row of ``keys`` that holds at u."""
    return any(_apply(rules, question, key, p, q, r, u) is not None for key in keys)


# -- the pipelines ------------------------------------------------------------


def _published_minus2_3(rules: list[Rule], question: str, q: int) -> None:
    # q >= 7 is odd, where both lists cover: test_a_minus2_3_knot_has_odd_q_from_7.
    known = facts.published_minus2_3(question, q)
    rules.append(Rule(f"published_minus2_3_{question}", {"q": q, "slopes": list(known)}))
    if known:
        rules.append(Rule("known_examples", {"slopes": list(known)}))


def _finite_pq_minus_r(rules: list[Rule], p: int, q: int, r: int) -> None:
    if _apply(rules, FINITE_Q, "exceptional_knot_table", p, q, r) is not None:
        return
    # Off the exceptional table the five norm rows hold on the whole family,
    # proven in Tier-1: test_strict_triangle_holds_on_the_whole_family,
    # test_even_norm_floor_holds_on_the_whole_family and
    # test_longitude_collapse_is_an_identity_on_the_family.
    m = r // 2
    collapse = {"p": p, "q": q, "m": m, "longitude_collapses": True}
    floor = {"p": p, "q": q, "m": m, "irreducible_characters": irreducible_char_count(p, q, m)}
    rules += [Rule("even_numerator_infinite", collapse), _SHARED["denominator_bound"],
              Rule("even_norm_floor", floor), _SHARED["half_integral_excluded"],
              _SHARED["odd_uniqueness"]]
    if _apply(rules, FINITE_Q, "no_nonintegral_slopes", p, q, r) is not None:
        return
    window = _apply(rules, FINITE_Q, "finite_window", p, q, r)
    if window is None:
        # Middle window r <= p <= 2r: no slope formula, so bound the
        # candidate set through the quotient groups instead.
        window = _apply(rules, FINITE_Q, "coxeter_distance_window", p, q, r)
        survivors = [s for s, _ in window["window"] if exceptional_distance(p, q, r, s) is None]
    elif (_apply(rules, FINITE_Q, "toroidal_gap_large_p", p, q, r) is not None
          or _apply(rules, FINITE_Q, "toroidal_gap_small_p", p, q, r) is not None):
        return
    else:
        survivors = [u for u in window["candidates"] if not _eliminated(
            rules, FINITE_Q, ("exceptional_distance:", "coxeter_quotient_infinite:"), p, q, r, u)]
    if survivors:
        _apply(rules, FINITE_Q, "residual_case_table", p, q, r, survivors)


def _cyclic_minus2_pq(rules: list[Rule], p: int, q: int, r: int) -> None:
    if _apply(rules, CYCLIC, "no_nonintegral_slopes", p, q, r) is not None:
        return
    window = _apply(rules, CYCLIC, "nonintegral_proximity", p, q, r)
    for u in window["candidates"]:
        _eliminated(rules, CYCLIC, ("lens_toroidal_distance:", "snappea_hyperbolic:",
                                    "seminorm_infeasibility:"), p, q, r, u)


def classify(k: PretzelKnot, question: str) -> Certificate:
    """The certificate of k on the question, "cyclic" or "finite", derived afresh.

    The one path through the paper's case analysis: no certificate is read
    from a memo here, so replay derives a certificate again with this and
    compares.  ValueError for an unknown question or a link; ArithmeticError
    when a premise or bound the paper proves on the knot's branch fails.
    """
    if question not in RULES:
        raise ValueError(f"unknown question {question!r}")
    if not k.is_knot:
        raise ValueError(f"{k} is a link, not a knot")
    fam = family(k)
    key = _ALONE.get((question, fam.tag))
    if key:
        # The tag picked the row; of these rows only cyclic_via_finite has a premise.
        if (premise := RULES[question][key].premise) and premise(k, fam) is None:
            raise ArithmeticError(f"the premise of {key} fails on {k}")
        return Certificate(k, question, *_OPENED[key])
    rules, (p, q), r = [], fam.odd_pair, -fam.even_value
    if fam.tag is _M2 and p == 3:
        _published_minus2_3(rules, question, q)
    elif question == CYCLIC:  # a (-2,p,q) knot
        _cyclic_minus2_pq(rules, p, q, r)
    elif fam.tag is _PQR:
        _finite_pq_minus_r(rules, p, q, r)
    else:  # (-2,p,q) with p >= 5: no cyclic surgery, proven in Tier-1 by
        # test_the_farkas_witnesses_hold_for_every_odd_q and
        # test_no_minus2_knot_with_p_from_5_has_a_cyclic_surgery.
        rules.append(Rule("not_cyclic_annotation", {"p": p, "q": q}))
    _, realized, verdict = conclude(rules)
    return Certificate(k, question, verdict, realized, tuple(rules))


@lru_cache(maxsize=1)
def classify_finite(k: PretzelKnot) -> Certificate:
    """Verdict and certificate for non-trivial finite surgeries on k.

    The last knot's certificate is kept: a cyclic sweep needs a (p,q,-r)
    knot's finite verdict in classify and again in replay, back to back.
    A second call on that knot returns the kept record itself, which no
    caller can edit but through its rule inputs.
    """
    return classify(k, FINITE_Q)


def classify_cyclic(k: PretzelKnot) -> Certificate:
    """Verdict and certificate for non-trivial cyclic surgeries on k."""
    return classify(k, CYCLIC)
