"""Command-line interface.

Subcommands: classify, sweep, norm, chars, group (present | coxeter).
Output is deterministic: fixed key order, no timestamps; JSON mode emits
one object per line in sweeps.  Exit codes: 0 success, 1 internal error,
2 usage error, 3 unresolved input, 130 interrupted, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import (CYCLIC, FINITE_Q, UNRESOLVED, classify, emit_certificate)
from .coxeter import (DEFAULT_MAX_COSETS, CoxeterSignature, coxeter_presentation,
                      edjvet_verdict, todd_coxeter)
from .knots import canonicalize
from .norms import cyclic_infeasibility_minus2_5_q
from .presentations import coxeter_quotient, filled_presentation, wirtinger_presentation
from .sweeps import pqr_knots, sweep_cyclic, sweep_finite
from .triangle import char_counts

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE


class UsageError(ValueError):
    pass


def _checked(build, *args):
    """``build(*args)`` for a constructor whose ValueError can only mean a bad
    command-line argument; that error becomes a UsageError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _ints(text: str, shape: str, what: str) -> list[int]:
    """The integers of ``text``, written in ``shape``: "p,q,r" or "lo:hi"."""
    sep = "," if "," in shape else ":"
    parts = text.split(sep)
    if len(parts) != shape.count(sep) + 1:
        raise UsageError(f"expected {shape}, got {text!r}")
    try:
        return [int(v) for v in parts]
    except ValueError as exc:
        raise UsageError(f"non-integer {what} in {text!r}") from exc


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cmd_classify(args) -> int:
    p, q, r = _ints(args.pretzel, "p,q,r", "index")
    if 0 in (p, q, r):
        raise UsageError("pretzel indices must be nonzero")
    knot = canonicalize(p, q, r)
    if not knot.is_knot:
        raise UsageError(f"{knot} has two or more even indices, hence is a link")
    cert = classify(knot, args.question)
    if args.json:
        print(emit_certificate(cert, "json"))
    else:
        if knot.indices != (p, q, r):
            print(f"input ({p},{q},{r}) canonicalized to {knot}")
        print(emit_certificate(cert, "text", cite=args.cite))
    return EXIT_UNRESOLVED if cert.verdict == UNRESOLVED else EXIT_OK


def _cmd_sweep(args) -> int:
    # Every option is checked, whichever question is asked.
    if args.bound < 1:  # no nonzero index fits: the cyclic sweep would be empty
        raise UsageError(f"--bound must be >= 1, got {args.bound}")
    ranges = []
    for text in (args.p_range, args.q_range, args.r_range):
        lo, hi = _ints(text, "lo:hi", "bound")
        if lo > hi:
            raise UsageError(f"empty range {text!r}")
        ranges.append((lo, hi))
    # A box reaching below the (p,q,-r) family raises ValueError on the first step.
    if _checked(next, pqr_knots(*ranges), None) is None:
        raise UsageError("the ranges hold no (p,q,-r) knot with odd p <= q and even r")
    report = sweep_cyclic(args.bound) if args.question == CYCLIC else sweep_finite(*ranges)
    for cert in report.certificates:
        if args.json:
            print(emit_certificate(cert, "json"))
        else:
            print(f"{cert.knot} verdict={cert.verdict}"
                  + (f" realized={list(cert.realized)}" if cert.realized else ""))
    summary = {
        "question": report.question,
        "knots": len(report.certificates),
        "realized": {("%d,%d,%d" % t): list(v) for t, v in report.realized.items()},
        "unresolved": len(report.unresolved),
        "violations": report.violations,
    }
    print(_dump(summary) if args.json else f"summary: {_dump(summary)}",
          file=sys.stderr)
    return EXIT_OK if not report.violations else EXIT_INTERNAL


def _cmd_norm(args) -> int:
    if args.q % 2 == 0 or args.q < 9:
        raise UsageError(f"the norm system needs odd q >= 9, got {args.q}")
    report = cyclic_infeasibility_minus2_5_q(args.q)
    if args.json:
        print(_dump(report.to_json()))
        return EXIT_OK
    print(f"norm system for the (-2,5,{args.q}) pretzel knot "
          f"(assuming {2 * args.q + 5} is cyclic):")
    print("  boundary slopes:", ", ".join(str(b) for b in report.system.boundary))
    for _, r in report.system.constraints:
        print(f"  {r.label}: coefficients {list(r.coeffs[:-1])}")  # not the -1 on S
    verdict = "INFEASIBLE" if report.infeasible_for_all_pairs else "FEASIBLE"
    print(f"verdict: {verdict} over all {len(report.verdicts)} coefficient pairs")
    for ((i, j), rows), v in zip(report.pairs.items(), report.verdicts):
        if v.witness is not None:
            wit = ", ".join(f"{r.label}: {y}" for r, y in zip(rows, v.witness) if y != 0)
            print(f"  pair (a{i + 1}, a{j + 1}): INFEASIBLE; witness {wit}")
        else:
            print(f"  pair (a{i + 1}, a{j + 1}): FEASIBLE at ({', '.join(map(str, v.point))})")
    return EXIT_OK


def _cmd_chars(args) -> int:
    total, reducible = _checked(char_counts, args.p, args.q, args.r)
    irreducible = total - reducible
    if args.json:
        print(_dump({"triple": [args.p, args.q, args.r], "total": total,
                     "reducible": reducible, "irreducible": irreducible}))
    else:
        print(f"triangle group ({args.p},{args.q},{args.r}): total {total}, "
              f"reducible {reducible}, irreducible {irreducible}")
    return EXIT_OK


def _cmd_group_present(args) -> int:
    p, q, r = args.p, args.q, args.r
    if r >= 0:
        raise UsageError("the presentation covers (p,q,-r); pass a negative r")
    if args.coxeter and args.fill is None:
        raise UsageError("--coxeter needs --fill S")
    pres = (_checked(wirtinger_presentation, p, q, -r) if args.fill is None
            else _checked(filled_presentation, p, q, -r, args.fill))
    payload = pres.to_json()
    payload["abelianization"] = str(pres.abelianization())
    if args.coxeter:
        quotient = _checked(coxeter_quotient, p, -r, args.fill)
        payload["coxeter_quotient"] = quotient.two_generator.to_json()
        payload["signature"] = (None if quotient.signature is None
                                else str(quotient.signature))
    if args.json:
        print(_dump(payload))
    else:
        print(pres)
        print("abelianization:", payload["abelianization"])
        if args.coxeter:
            print("factor group:", quotient.two_generator)
            print("signature:", payload["signature"])
    return EXIT_OK


def _cmd_group_coxeter(args) -> int:
    sig = _checked(CoxeterSignature.of, args.a, args.b, args.c)
    if args.max_cosets < 1:
        raise UsageError("--max-cosets must be positive")
    verdict = edjvet_verdict(sig)
    payload = {"signature": [2, sig.a, sig.b, sig.c], "verdict": verdict.status,
               "clause": verdict.clause}
    if args.enumerate:
        result = todd_coxeter(coxeter_presentation(sig), args.max_cosets)
        payload["enumeration"] = result.status
        payload["order"] = result.order
        payload["cosets_defined"] = result.cosets_defined
    if args.json:
        print(_dump(payload))
    else:
        clause = f" (clause {verdict.clause})" if verdict.clause else ""
        print(f"{sig}: {verdict.status}{clause}")
        if args.enumerate:
            print(f"enumeration: {payload['enumeration']}, order={payload['order']}, "
                  f"cosets defined={payload['cosets_defined']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretzel-surgery",
        description="Classify cyclic and finite Dehn surgeries on (p,q,r) "
                    "pretzel knots, with replayable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one knot")
    c.add_argument("--pretzel", required=True, help="indices p,q,r (nonzero)")
    c.add_argument("--question", choices=[CYCLIC, FINITE_Q], required=True)

    s = sub.add_parser("sweep", help="classify a whole family range")
    s.add_argument("--question", choices=[CYCLIC, FINITE_Q], required=True)
    s.add_argument("--bound", type=int, default=25,
                   help="cyclic sweeps: max |index| (default 25)")
    s.add_argument("--p-range", default="3:15", help="finite sweeps: odd p range")
    s.add_argument("--q-range", default="3:15", help="finite sweeps: odd q range")
    s.add_argument("--r-range", default="4:16", help="finite sweeps: even r range")

    n = sub.add_parser("norm", help="print the (-2,5,q) norm system and verdict")
    n.add_argument("--q", type=int, required=True, help="odd q >= 9")

    ch = sub.add_parser("chars", help="triangle-group character counts")
    ch.add_argument("p", type=int)
    ch.add_argument("q", type=int)
    ch.add_argument("r", type=int)

    g = sub.add_parser("group", help="presentations and coset enumeration")
    gsub = g.add_subparsers(dest="group_command", required=True)

    gp = gsub.add_parser("present", help="knot group presentation for (p,q,r), r<0")
    gp.add_argument("p", type=int)
    gp.add_argument("q", type=int)
    gp.add_argument("r", type=int)
    gp.add_argument("--fill", type=int, help="add the integral filling relator")
    gp.add_argument("--coxeter", action="store_true",
                    help="also print the two-generator factor group")

    gc = gsub.add_parser("coxeter", help="finiteness of (2,a,b;c)")
    gc.add_argument("a", type=int)
    gc.add_argument("b", type=int)
    gc.add_argument("c", type=int)
    gc.add_argument("--enumerate", action="store_true")
    gc.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)

    for leaf, func in ((c, _cmd_classify), (s, _cmd_sweep), (n, _cmd_norm), (ch, _cmd_chars),
                       (gp, _cmd_group_present), (gc, _cmd_group_coxeter)):
        leaf.add_argument("--json", action="store_true")
        leaf.set_defaults(func=func)
    c.add_argument("--cite", action="store_true",  # after --json: the usage line keeps its order
                   help="append each rule's citation to text output")
    return parser


def _absorb_dash_values(argv: list[str]) -> list[str]:
    """Join ``--pretzel -2,3,7`` into ``--pretzel=-2,3,7`` so argparse does
    not mistake the leading-dash value for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--pretzel" and i + 1 < len(argv):
            out.append(f"--pretzel={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_absorb_dash_values(
            list(sys.argv[1:] if argv is None else argv)))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The reader closed stdout, which is no internal fault.  Point stdout at
        # devnull, so the interpreter's last flush of it raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
