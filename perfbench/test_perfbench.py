"""Keeps the benchmark importable and runnable: every workload on smoke
inputs, traced and untraced, with the same output checks as a full run.
Not a timing gate."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in spec}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        header, columns = tracer.read_spans(HERE / "out" / f"trace-{workload}.spans")
        assert header["spans"] == metrics["trace.spans"]
        self_s = tracer.self_times(header["names"], columns)
        for name, value in self_s.items():
            assert value == pytest.approx(metrics[f"{name}.self_s"], abs=1e-9)
        assert sum(self_s.values()) + metrics["trace.unaccounted_s"] == \
            pytest.approx(header["wall_s"], abs=1e-9)


def test_tracer_wraps_every_binding_and_restores_them():
    import pretzel_surgery
    norms, classify, replay, sweeps = (
        sys.modules[f"pretzel_surgery.{m}"] for m in ("norms", "classify", "replay", "sweeps"))
    lp, finite = norms.cyclic_infeasibility_minus2_5_q, classify.classify_finite
    lp_holders = (pretzel_surgery, norms, classify, replay)
    finite_holders = (pretzel_surgery, classify, replay, sweeps)
    t = tracer.Tracer(["norms.cyclic_infeasibility_minus2_5_q", "classify.classify_finite"])
    with t.installed():
        # The package attribute ``classify`` is the function, and the modules
        # import these functions by name: every binding is wrapped.
        assert all(h.cyclic_infeasibility_minus2_5_q is not lp for h in lp_holders)
        assert all(h.classify_finite is not finite for h in finite_holders)
        replay.cyclic_infeasibility_minus2_5_q(9)
    assert all(h.cyclic_infeasibility_minus2_5_q is lp for h in lp_holders)
    assert all(h.classify_finite is finite for h in finite_holders)
    assert t.calls() == {"norms.cyclic_infeasibility_minus2_5_q": 1,
                         "classify.classify_finite": 0}


def test_tracer_fails_loudly_on_a_missing_name_and_still_restores():
    from pretzel_surgery import knots
    original = knots.family
    t = tracer.Tracer(["knots.family", "knots.no_such_function"])
    with pytest.raises(LookupError, match="no_such_function"):
        with t.installed():
            pass
    assert knots.family is original
    with pytest.raises(LookupError, match="no_such_module"):
        with tracer.Tracer(["no_such_module.f"]).installed():
            pass


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "coset_enum", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
