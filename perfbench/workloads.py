"""The benchmark's workloads: their inputs, one whole pass, one item and
the checks on every output.

A pass is the whole job as a user runs it; an item is one knot, one norm
system or one presentation.  Package functions are looked up on their module
at call time, so a tracer installed around a pass sees the benchmark's own
calls too.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


def _module(name: str):
    # ``pretzel_surgery.classify`` as an attribute is the function, not the module.
    return importlib.import_module(f"pretzel_surgery.{name}")


classify = _module("classify")
coxeter = _module("coxeter")
knots = _module("knots")
norms = _module("norms")
replay = _module("replay")
sweeps = _module("sweeps")

# Orders of the golden finite signatures (2,a,b;c) and the signatures whose
# enumeration must never close; the same values as tests/test_coxeter.py.
FINITE_GOLDENS = [
    ((2, 2, 2), 4), ((2, 3, 3), 6), ((2, 4, 2), 8), ((2, 6, 3), 12),
    ((3, 3, 4), 12), ((3, 5, 5), 60), ((3, 6, 4), 96), ((3, 7, 4), 168),
    ((3, 7, 6), 1092), ((3, 8, 4), 336), ((3, 9, 4), 12), ((3, 10, 4), 2160),
    ((3, 11, 4), 6072), ((4, 4, 2), 32), ((4, 6, 2), 72), ((4, 4, 3), 72),
    ((4, 5, 3), 120), ((4, 7, 3), 2184), ((5, 5, 2), 80), ((5, 9, 2), 3420),
    ((6, 7, 2), 2184),
]
INFINITE_PROBES = [
    (3, 7, 9), (3, 7, 12), (3, 9, 6), (3, 11, 5), (3, 13, 5), (3, 15, 4),
    (9, 13, 2), (9, 19, 2), (13, 21, 3), (7, 25, 4), (5, 11, 2), (5, 5, 3),
]
CLOSING_CAP = 1_000_000
PROBE_CAP = 20_000
SMOKE_PROBE_CAP = 2_000


@dataclass
class PassResult:
    items: int
    start: float
    end: float
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stream: str = ""
    rules: Counter = field(default_factory=Counter)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def rows_digest(rows) -> str:
    """sha256 over the per-knot (canonical triple, verdict, realized slopes)."""
    h = hashlib.sha256()
    for indices, verdict, realized in rows:
        h.update(f"{indices} {verdict} {realized}\n".encode())
    return h.hexdigest()


def stream_digest(lines) -> str:
    """sha256 of the JSON stream: one line per certificate, in knot order."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _row(cert) -> tuple:
    return cert.knot.indices, cert.verdict, tuple(cert.realized)


class Workload:
    """Items are run one at a time; a pass runs every item in input order."""

    name = ""

    def __init__(self, smoke: bool, reference: dict):
        self.smoke = smoke
        self.reference = reference

    def build(self) -> None:
        """Make the inputs (timed as set-up)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def run_item(self, i: int):
        raise NotImplementedError

    def check_item(self, i: int, out) -> bool:
        raise NotImplementedError

    def begin_items(self) -> None:
        """Called before a pass over single items."""

    def end_items(self) -> tuple[list[str], str]:
        """Called after a pass over single items; returns run-level problems
        and the digest of the pass's JSON stream ("" when there is none)."""
        return [], ""

    def run_pass(self, tracer=None) -> PassResult:
        outs = []
        t0 = perf_counter()
        for i in range(len(self)):
            if tracer:
                tracer.item = i
            outs.append(self.run_item(i))
        res = PassResult(len(outs), t0, perf_counter())
        res.failed = sum(not self.check_item(i, out) for i, out in enumerate(outs))
        return res


class Sweep(Workload):
    """A family sweep with replay, then the JSON stream of every certificate,
    as ``pretzel-surgery sweep --json`` runs it."""

    def build(self) -> None:
        self.knots = self._knots()

    def __len__(self) -> int:
        return len(self.knots)

    def run_pass(self, tracer=None) -> PassResult:
        if tracer:
            tracer.item = -1
        t0 = perf_counter()
        report = self._sweep()
        emit = classify.emit_certificate

        def lines():
            for i, cert in enumerate(report.certificates):
                if tracer:
                    tracer.item = i
                yield emit(cert)

        # Hashing each line as it is made stands in for writing it out.
        stream = stream_digest(lines())
        res = PassResult(len(report.certificates), t0, perf_counter(), stream=stream)

        certs = report.certificates
        res.failed = sum(not self._expected(c) for c in certs) + len(report.violations)
        res.problems += report.violations[:3]
        res.rules.update(r.id.split(":", 1)[0] for c in certs for r in c.rules)
        res.problems += self._pinned_problems([_row(c) for c in certs], res.rules)
        res.failed = min(res.failed, res.items)
        return res

    def run_item(self, i: int):
        cert = self._classify(self.knots[i])
        ok = replay.replay_certificate(cert)
        return cert, ok, classify.emit_certificate(cert)

    def check_item(self, i: int, out) -> bool:
        cert, ok, line = out
        self._rows[i] = _row(cert)
        self._lines[i] = line
        self._rules.update(r.id.split(":", 1)[0] for r in cert.rules)
        return ok and self._expected(cert)

    def begin_items(self) -> None:
        self._rows = [None] * len(self.knots)
        self._lines = [None] * len(self.knots)
        self._rules = Counter()

    def end_items(self) -> tuple[list[str], str]:
        return self._pinned_problems(self._rows, self._rules), stream_digest(self._lines)

    def _pinned_problems(self, rows, rules: Counter) -> list[str]:
        ref = self.reference
        problems = []
        got = rows_digest(rows)
        if len(rows) != ref["items"] or got != ref["digest"]:
            problems.append(f"{len(rows)} (triple, verdict, realized) rows with digest "
                            f"{got}; pinned: {ref['items']} rows, {ref['digest']}")
        if rules != Counter(ref["rules"]):
            problems.append(f"rule counts {dict(sorted(rules.items()))} differ from the "
                            "pinned reference")
        return problems


class CyclicSweep(Sweep):
    name = "cyclic_sweep"

    @property
    def bound(self) -> int:
        return 9 if self.smoke else 50

    def _knots(self) -> list:
        return [k for k in knots.enumerate_canonical(self.bound) if k.is_knot]

    def _sweep(self):
        return sweeps.sweep_cyclic(self.bound)

    def _classify(self, k):
        return classify.classify_cyclic(k)

    @staticmethod
    def _expected(cert) -> bool:
        if cert.knot.indices == (-2, 3, 7):
            return cert.verdict == classify.REALIZED and tuple(cert.realized) == (18, 19)
        return cert.verdict != classify.REALIZED and not cert.realized


class FiniteSweep(Sweep):
    name = "finite_sweep"

    @property
    def ranges(self) -> tuple:
        # Odd p <= q and even r; the smoke ranges are the CLI defaults.
        return ((3, 15), (3, 15), (4, 16)) if self.smoke else ((3, 61), (3, 61), (4, 62))

    def _knots(self) -> list:
        (p_lo, p_hi), (q_lo, q_hi), (r_lo, r_hi) = self.ranges
        return [knots.canonicalize(p, q, -r)
                for p in range(p_lo, p_hi + 1) if p % 2
                for q in range(max(p, q_lo), q_hi + 1) if q % 2
                for r in range(r_lo, r_hi + 1) if r % 2 == 0]

    def _sweep(self):
        return sweeps.sweep_finite(*self.ranges)

    def _classify(self, k):
        return classify.classify_finite(k)

    @staticmethod
    def _expected(cert) -> bool:
        return cert.verdict == classify.NONE and not cert.realized


class NormFamily(Workload):
    """Solve, then re-verify, the pairwise (-2,5,q) norm system for odd q."""

    name = "norm_family"

    def build(self) -> None:
        self.qs = list(range(9, 14 if self.smoke else 100, 2))

    def __len__(self) -> int:
        return len(self.qs)

    def run_item(self, i: int):
        report = norms.cyclic_infeasibility_minus2_5_q(self.qs[i])
        return report, norms.verify_infeasibility_report(report)

    def check_item(self, i: int, out) -> bool:
        report, verified = out
        return (verified and report.infeasible_for_all_pairs and report.q == self.qs[i]
                and len(report.verdicts) == 15)


class CosetEnum(Workload):
    """Todd-Coxeter on the golden finite signatures (to closure, checked
    against their orders), then on the infinite probes up to a fixed cap."""

    name = "coset_enum"

    def build(self) -> None:
        goldens = FINITE_GOLDENS[:6] if self.smoke else FINITE_GOLDENS
        probes = INFINITE_PROBES[:2] if self.smoke else INFINITE_PROBES
        cap = SMOKE_PROBE_CAP if self.smoke else PROBE_CAP
        sig = coxeter.CoxeterSignature
        self.cases = ([(coxeter.coxeter_presentation(sig(*abc)), CLOSING_CAP, order)
                       for abc, order in goldens]
                      + [(coxeter.coxeter_presentation(sig(*abc)), cap, None)
                         for abc in probes])

    def __len__(self) -> int:
        return len(self.cases)

    def run_item(self, i: int):
        presentation, cap, _ = self.cases[i]
        return coxeter.todd_coxeter(presentation, cap)

    def check_item(self, i: int, out) -> bool:
        _, cap, order = self.cases[i]
        if order is None:
            return (out.status == "INCONCLUSIVE" and out.order is None
                    and out.cosets_defined == cap)
        return out.is_finite and out.order == order


WORKLOADS = {w.name: w for w in (CyclicSweep, FiniteSweep, NormFamily, CosetEnum)}
