"""Benchmark of the pretzel_surgery package.

Run from the root of a checkout; the package is imported from ``./src``::

    python3 perfbench/run.py --workload cyclic_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: set-up time, and
throughput and peak memory of whole passes through the workload's entry
point, each in a fresh process; then per-item latency from passes over every
item in this process, in orders drawn from ``--seed``.  These times are
scaled to a reference machine speed (see ``speed.py``).  ``--trace 1``
alternates untraced and traced passes and reports per-layer call counts,
self times (raw wall seconds) and counters from the first traced pass; its
spans go to ``perfbench/out/trace-<workload>.spans``.  ``--smoke`` runs the
same checks on tiny inputs.  Every output is checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# Set-up takes 0.05-0.5 s, so the speed is sampled more often than in a run.
SETUP_PERIOD_S = 0.005
HASH_SEED = "0"
# Throughput is the median of at least three whole passes, and an item's time
# the median of at least three item passes.
MIN_PASSES = 3

# Traced functions, as module.function of pretzel_surgery.
TARGETS = [
    "sweeps.sweep_cyclic",
    "sweeps.sweep_finite",
    "classify.classify_cyclic",
    "classify.classify_finite",
    "classify.emit_certificate",
    "replay.replay_certificate",
    "knots.hyperbolicity_condition",
    "knots.torus_status",
    "knots.family",
    "presentations.longitude_triviality_check",
    "triangle.irreducible_char_count",
    "boundary.nonintegral_slopes_pq_minus_r",
    "boundary.nonintegral_slopes_minus2_pq",
    "boundary.small_p_value",
    "boundary.toroidal_slope",
    "norms.cyclic_infeasibility_minus2_5_q",
    "norms.verify_infeasibility_report",
    "linprog.solve_feasibility",
    "linprog.verify_witness",
    "coxeter.todd_coxeter",
    "coxeter.edjvet_verdict",
]
# A classify call made directly by a sweep starts the next knot's spans.
ITEM_ROOTS = ("classify.classify_cyclic", "classify.classify_finite")
ITEM_SCOPES = ("sweeps.sweep_cyclic", "sweeps.sweep_finite")


def _count_lp(args, result, counters) -> None:
    counters["linprog.infeasible"] += not result.feasible


def _count_replay(args, result, counters) -> None:
    counters["replay.rules_checked"] += len(args[0].rules)
    counters["replay.failed"] += not result


def _count_emit(args, result, counters) -> None:
    counters["classify.emit_bytes"] += len(result)  # json.dumps output is ASCII


def _count_cosets(args, result, counters) -> None:
    counters["coxeter.cosets_defined"] += result.cosets_defined
    if result.is_finite:
        counters["coxeter.closed_order"] += result.order
        counters["coxeter.closed_cosets"] += result.cosets_defined
    else:
        counters["coxeter.capped"] += 1


OBSERVERS = {
    "linprog.solve_feasibility": _count_lp,
    "replay.replay_certificate": _count_replay,
    "classify.emit_certificate": _count_emit,
    "coxeter.todd_coxeter": _count_cosets,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cyclic_sweep", "finite_sweep", "norm_family", "coset_enum"])
    ap.add_argument("--seed", type=int, default=1,
                    help="sets the order in which item passes visit the items")
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    ap.add_argument("--probe", choices=("setup", "pass"), help=argparse.SUPPRESS)
    return ap.parse_args()


def setup_probe(name: str, smoke: bool) -> tuple[float, float]:
    """In a fresh process: import the package and build the inputs.
    Returns the time taken, raw and at reference machine speed."""
    with speed.SpeedProbe(SETUP_PERIOD_S) as probe:
        t0 = perf_counter()
        import workloads
        workloads.WORKLOADS[name](smoke, {}).build()
        t1 = perf_counter()
    return t1 - t0, probe.scaled(t0, t1)


def pass_probe(name: str, smoke: bool) -> dict:
    """In a fresh process: build the inputs, then make one whole pass through
    the workload's entry point, as a user's process runs the job once."""
    import workloads
    wl = workloads.WORKLOADS[name](smoke, load_reference()["smoke" if smoke else "full"][name])
    wl.build()
    gc.collect()
    with speed.SpeedProbe() as probe:
        res = wl.run_pass()
    return {"seconds": probe.scaled(res.start, res.end), "raw": probe.work(res.start, res.end),
            "items": res.items, "failed": res.failed, "problems": res.problems,
            "stream": res.stream,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def in_fresh_process(kind: str, name: str, smoke: bool) -> str:
    """Run ``--probe kind`` in a fresh process; return its last output line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", kind, "--workload", name]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return done.stdout.splitlines()[-1]


class Tally:
    """Items attempted and failed, and run-level problems, over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.items
        self.failed += res.failed
        self.problems += res.problems

    def result(self, metrics: dict) -> dict:
        for p in self.problems:
            print(f"check failed: {p}", file=sys.stderr)
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def measured_run(wl, args) -> tuple[Tally, dict]:
    """End-to-end metrics, untraced, with times at reference machine speed.

    Set-up and whole passes each run in a fresh process, so no pass finds
    anything left by an earlier one, and peak memory is that of the job.
    Throughput is the median over the whole passes.  Latency comes from
    passes over single items in this process, each in an order drawn from
    the seed; an item's time is the median over those passes, so that a stall
    that hits one observation reaches no metric.  Whole passes take the first
    half of ``--seconds``, item passes the rest, and each kind runs at least
    MIN_PASSES times.
    """
    t_start = perf_counter()
    tally = Tally()
    setup = [float(in_fresh_process("setup", wl.name, args.smoke).split()[-1])
             for _ in range(SETUP_PROBES)]
    whole = []
    while len(whole) < MIN_PASSES or perf_counter() - t_start < args.seconds / 2:
        res = json.loads(in_fresh_process("pass", wl.name, args.smoke))
        whole.append(res)
        tally.attempted += res["items"]
        tally.failed += res["failed"]
        tally.problems += res["problems"]
    streams = {res["stream"] for res in whole}

    wl.build()
    n = len(wl)
    order = list(range(n))
    rng = random.Random(args.seed)
    starts, ends = array("d"), array("d")  # [p * n + i]: pass p of item i
    passes = 0
    gc.collect()
    with speed.SpeedProbe() as probe:
        while passes < MIN_PASSES or perf_counter() - t_start < args.seconds:
            starts.frombytes(bytes(8 * n))
            ends.frombytes(bytes(8 * n))
            base = passes * n
            rng.shuffle(order)
            wl.begin_items()
            for i in order:
                t0 = perf_counter()
                out = wl.run_item(i)
                t1 = perf_counter()
                starts[base + i] = t0
                ends[base + i] = t1
                tally.failed += not wl.check_item(i, out)
            tally.attempted += n
            problems, stream = wl.end_items()
            tally.problems += problems
            streams.add(stream)
            passes += 1
    if len(streams) != 1:
        tally.problems.append("the JSON stream differs between passes of one run")

    def per_item(values) -> list[float]:
        return [statistics.median(values[i::n]) for i in range(n)]

    scaled = per_item([probe.scaled(t0, t1) for t0, t1 in zip(starts, ends)])
    raw = per_item([probe.work(t0, t1) for t0, t1 in zip(starts, ends)])
    cuts = statistics.quantiles(scaled, n=100, method="inclusive")
    raw_cuts = statistics.quantiles(raw, n=100, method="inclusive")
    pass_items = whole[0]["items"]
    pass_n = f"{pass_items} items; median of {len(whole)} fresh processes"
    items_n = f"{n} items, each the median of {passes} passes in one process"
    metrics = {
        "items_per_s": (pass_items / statistics.median(r["seconds"] for r in whole),
                        "1/s", pass_n),
        "item_p50_us": (cuts[49] * 1e6, "us", items_n),
        "item_p99_us": (cuts[98] * 1e6, "us", items_n),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in whole), "MB",
                        f"median of {len(whole)} fresh processes"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
    }
    unscaled = {"items_per_s": pass_items / statistics.median(r["raw"] for r in whole),
                "item_p50_us": raw_cuts[49] * 1e6, "item_p99_us": raw_cuts[98] * 1e6}
    rows = [*metrics.items(),
            ("failed_frac", (tally.failed / tally.attempted, "frac", f"{tally.attempted} items"))]
    for name, (value, unit, count) in rows:
        note = f"; unscaled {unscaled[name]:.6g}" if name in unscaled else ""
        print(f"{wl.name} {name} = {value:.6g} {unit} (n = {count}{note})")
    print(f"machine speed: median kernel {statistics.median(probe.durations):.4g} s "
          f"over {len(probe.durations)} samples of the item passes; times above are "
          f"scaled to the reference {speed.REFERENCE_S:.4g} s")
    return tally, metrics


def traced_run(wl, args) -> tuple[Tally, dict]:
    """Per-layer metrics from the first traced pass; untraced and traced
    passes alternate so that the tracing overhead is measured too."""
    from tracer import Tracer
    from workloads import Sweep

    wl.build()
    tally = Tally()
    untraced, traced, streams = [], [], set()
    first = None
    t_start = perf_counter()
    while True:
        t_pair = perf_counter()
        gc.collect()
        res = wl.run_pass()
        tally.add(res)
        untraced.append(res.seconds)
        streams.add(res.stream)
        gc.collect()
        tracer = Tracer(TARGETS, OBSERVERS, ITEM_ROOTS, ITEM_SCOPES)
        with tracer.installed():
            res = wl.run_pass(tracer)
        tally.add(res)
        traced.append(res.seconds)
        streams.add(res.stream)
        if first is None:
            first = tracer, res
        del tracer, res
        pair = perf_counter() - t_pair
        if perf_counter() - t_start + pair > args.seconds:
            break

    if len(streams) != 1:
        tally.problems.append("the JSON stream differs between passes, traced or not")
    tracer, res = first
    calls, self_s, c = tracer.calls(), tracer.self_times(), tracer.counters
    metrics = {}
    for t in TARGETS:
        metrics[f"{t}.calls"] = (calls[t], "count", "")
        metrics[f"{t}.self_s"] = (self_s[t], "s", "")
    knots = res.items if isinstance(wl, Sweep) else 0
    metrics.update({
        "linprog.infeasible_frac": (
            _ratio(c["linprog.infeasible"], calls["linprog.solve_feasibility"]), "frac", ""),
        "classify.finite_calls_per_knot": (
            _ratio(calls["classify.classify_finite"], knots), "calls/knot", ""),
        "replay.rules_checked": (c["replay.rules_checked"], "count", ""),
        "replay.failed": (c["replay.failed"], "count", ""),
        "classify.emit_bytes": (c["classify.emit_bytes"], "B", ""),
        "coxeter.cosets_defined": (c["coxeter.cosets_defined"], "count", ""),
        "coxeter.capped": (c["coxeter.capped"], "count", ""),
        "coxeter.coset_yield": (
            _ratio(c["coxeter.closed_order"], c["coxeter.closed_cosets"]), "frac", ""),
        "trace.wall_s": (res.seconds, "s", ""),
        "trace.unaccounted_s": (res.seconds - sum(self_s.values()), "s", ""),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced),
                             "s", f"{len(traced)} traced and untraced passes"),
        "trace.spans": (len(tracer.columns["start"]), "count", ""),
    })
    for rule in rule_ids():
        metrics[f"classify.rule.{rule}"] = (res.rules.get(rule, 0), "count", "")

    for name, expected in wl.reference.get("counts", {}).items():
        if metrics[name][0] != expected:
            tally.problems.append(f"{name} = {metrics[name][0]}, expected {expected}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}.spans",
                 {"workload": wl.name, "smoke": args.smoke, "wall_s": res.seconds})
    for name, (value, unit, n) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}" + (f" (n = {n})" if n else ""))
    return tally, metrics


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def rule_ids() -> list[str]:
    """Every rule id that fires in a full-size sweep workload."""
    full = load_reference()["full"]
    return sorted({r for w in full.values() for r in w.get("rules", {})})


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # One dict and set layout for every run: string hashing is salted per
        # process otherwise, which moves timings by several percent.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "pretzel_surgery" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe == "setup":
        print(*setup_probe(args.workload, args.smoke))
        return 0
    if args.probe == "pass":
        print(json.dumps(pass_probe(args.workload, args.smoke)))
        return 0

    import pretzel_surgery
    import workloads
    if Path(pretzel_surgery.__file__).resolve().parent != (SRC / "pretzel_surgery").resolve():
        print(f"error: imported {pretzel_surgery.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    reference = load_reference()["smoke" if args.smoke else "full"][args.workload]
    wl = workloads.WORKLOADS[args.workload](args.smoke, reference)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    tally, metrics = (traced_run if args.trace else measured_run)(wl, args)
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
