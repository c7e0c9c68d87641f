import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pretzel_surgery.cli as cli_module
from pretzel_surgery.cli import main
from pretzel_surgery.knots import PretzelKnot, canonicalize, is_canonical
from pretzel_surgery.sweeps import pqr_knots
from schema import validate_certificate_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--pretzel", "-2,3,7",
                       "--question", "cyclic")
    assert code == 0
    assert "verdict=REALIZED" in out
    assert "18, 19" in out


def test_classify_canonicalizes_input(capsys):
    code, out, _ = run(capsys, "classify", "--pretzel", "7,3,-2",
                       "--question", "cyclic")
    assert code == 0
    assert "canonicalized to (-2,3,7)" in out


def test_classify_json_matches_schema(capsys):
    code, out, _ = run(capsys, "classify", "--pretzel", "-2,3,7",
                       "--question", "cyclic", "--json")
    assert code == 0
    payload = json.loads(out)
    assert validate_certificate_json(payload) == []
    assert payload["realized"] == [18, 19]


def test_classify_unresolved_exit_code(capsys):
    code, _, _ = run(capsys, "classify", "--pretzel", "-2,5,9",
                     "--question", "finite")
    assert code == 3


def test_classify_usage_errors(capsys):
    assert run(capsys, "classify", "--pretzel", "0,3,4",
               "--question", "cyclic")[0] == 2
    assert run(capsys, "classify", "--pretzel", "0,3,5",
               "--question", "finite")[0] == 2
    assert run(capsys, "classify", "--pretzel", "1,2",
               "--question", "cyclic")[0] == 2
    assert run(capsys, "classify", "--pretzel", "-2,4,6",
               "--question", "cyclic")[0] == 2


def test_user_input_faults_are_usage_errors(capsys):
    for argv in (["sweep", "--question", "finite", "--r-range", "0:4"],
                 ["sweep", "--question", "finite", "--p-range", "1:1", "--q-range", "3:3",
                  "--r-range", "4:4"],
                 ["sweep", "--question", "finite", "--r-range", "2:2"],
                 ["sweep", "--question", "finite", "--p-range=-3:-3"],
                 ["sweep", "--question", "finite", "--r-range=-4:-4"],
                 ["sweep", "--question", "cyclic", "--bound", "0"],
                 ["sweep", "--question", "cyclic", "--bound=-3"],
                 # Each question checks the other question's options too.
                 ["sweep", "--question", "finite", "--bound", "-5", "--p-range", "3:3",
                  "--q-range", "3:3", "--r-range", "4:4"],
                 ["sweep", "--question", "cyclic", "--bound", "1", "--p-range", "1:0"],
                 ["sweep", "--question", "cyclic", "--p-range", "x"],
                 # Ranges that hold no (p,q,-r) knot, whichever question is asked.
                 ["sweep", "--question", "finite", "--p-range", "4:4"],
                 ["sweep", "--question", "finite", "--r-range", "5:5"],
                 ["sweep", "--question", "finite", "--p-range", "15:15", "--q-range", "3:13"],
                 ["sweep", "--question", "cyclic", "--bound", "1", "--p-range", "4:4"],
                 # Found empty without walking the ranges.
                 ["sweep", "--question", "finite", "--p-range", "5:999999999", "--q-range", "3:3"],
                 ["sweep", "--question", "finite", "--p-range", "3:99999", "--q-range", "3:99999",
                  "--r-range", "5:5"],
                 ["chars", "1", "3", "7"],
                 ["group", "present", "2", "3", "-4"],
                 ["group", "present", "3", "3", "-4", "--fill", "6", "--coxeter"],
                 ["group", "coxeter", "1", "3", "3"],
                 ["group", "coxeter", "3", "7", "6", "--enumerate", "--max-cosets", "0"]):
        code, _, err = run(capsys, *argv)
        assert (code, err.startswith("error: ")) == (2, True), argv


@given(*[st.integers(-4, 16)] * 6)
@example(3, 15, 3, 15, 4, 16)
@example(4, 9, 3, 8, 5, 10)
@example(1, 5, 1, 5, 2, 6)
@example(3, 5, 3, 5, 3, 6)
@example(-5, -1, -5, 3, 4, 6)
def test_the_sweep_enumerator_walks_exactly_its_box(p_lo, p_hi, q_lo, q_hi, r_lo, r_hi):
    # The CLI's emptiness check and the finite sweep read the same enumerator.
    # Inside the family (p, q >= 3, r >= 4) a box yields canonical records, the
    # reference comprehension's; a box reaching below it raises ValueError.
    walk = pqr_knots((p_lo, p_hi), (q_lo, q_hi), (r_lo, r_hi))
    below = [(name, lo, least) for name, lo, least in zip("pqr", (p_lo, q_lo, r_lo), (3, 3, 4))
             if lo < least]
    if below:
        name, lo, least = below[0]
        with pytest.raises(ValueError, match=f"^{name} bounds must be >= {least}, got {lo}$"):
            next(walk)
        return
    walked = list(walk)
    assert walked == [
        canonicalize(p, q, -r) for p in range(p_lo, p_hi + 1) for q in range(q_lo, q_hi + 1)
        for r in range(r_lo, r_hi + 1) if p % 2 == q % 2 == 1 and p <= q and r % 2 == 0]
    assert all(type(k) is PretzelKnot and is_canonical(*k) for k in walked)


def test_internal_value_error_is_an_internal_error(monkeypatch, capsys):
    def broken(knot, question):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cli_module, "classify", broken)
    code, out, err = run(capsys, "classify", "--pretzel", "-2,3,7", "--question", "cyclic")
    assert (code, out, err) == (1, "", "internal error: broken invariant\n")


def _mid_stream_sweep():
    """A CLI process writing the sweep_cyclic(11) stream into a pipe, once its first
    line is read.  The stream (287 kB) outgrows the pipe, so the process is still
    writing: nothing more is read until it is interrupted or its stdout closed."""
    proc = subprocess.Popen([sys.executable, "-m", "pretzel_surgery.cli", "sweep",
                             "--question", "cyclic", "--bound", "11", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env())
    assert proc.stdout.readline().startswith('{"annotations":')
    return proc


def test_an_interrupt_exits_130_with_one_line():
    proc = _mid_stream_sweep()
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (130, "interrupted\n")


def test_a_closed_stdout_exits_141_quietly():
    # A reader such as head closing the pipe is no internal fault: no line on stderr.
    proc = _mid_stream_sweep()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, "")


# The sweep_cyclic(11) digest of test_classify.py::test_certificate_streams_pinned.
CYCLIC_11_SHA256 = "d4fc10eb7acaa78049c3031ee677c4541f98ae9e6236ca2318965d5110c56f5e"


def _env(**extra):
    """The environment of a new process that imports the package from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _stdout_digest(python_args, seed="0"):
    """sha256 of the standard output (less its last newline) of a new
    ``python *python_args`` process that imports the package from src/."""
    proc = subprocess.run([sys.executable, *python_args], capture_output=True, text=True,
                          timeout=300, env=_env(PYTHONHASHSEED=seed))
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout.removesuffix("\n").encode()).hexdigest()


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_sweep_under_python_O_matches_the_pinned_stream(seed):
    # -O strips assert statements; the sweep must give the same bytes without
    # them, under any string hash seed.
    assert _stdout_digest(["-O", "-m", "pretzel_surgery.cli", "sweep", "--question", "cyclic",
                           "--bound", "11", "--json"], seed) == CYCLIC_11_SHA256


def test_sweep_without_the_json_accelerator_matches_the_pinned_stream():
    # With _json blocked, json.encoder has no C encoder and the emitter falls
    # back to the pure-Python one, which must write the same bytes.
    script = ("import sys\n"
              "sys.modules['_json'] = None\n"
              "import json.encoder\n"
              "if json.encoder.c_make_encoder is not None:\n"
              "    sys.exit('the _json accelerator is still loaded')\n"
              "from pretzel_surgery import cli\n"
              "sys.exit(cli.main(['sweep', '--question', 'cyclic', '--bound', '11', '--json']))\n")
    assert _stdout_digest(["-c", script]) == CYCLIC_11_SHA256


def test_sweep_finite_json_stream(capsys):
    code, out, err = run(capsys, "sweep", "--question", "finite",
                         "--p-range", "3:7", "--q-range", "3:7",
                         "--r-range", "4:8", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        assert validate_certificate_json(json.loads(line)) == []
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["violations"] == []
    assert summary["unresolved"] == 0


def test_sweep_cyclic_bound(capsys):
    code, out, err = run(capsys, "sweep", "--question", "cyclic",
                         "--bound", "7", "--json")
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["realized"] == {"-2,3,7": [18, 19]}


def test_norm_command(capsys):
    code, out, _ = run(capsys, "norm", "--q", "9")
    assert code == 0
    assert "INFEASIBLE over all 15" in out
    code, out, _ = run(capsys, "norm", "--q", "9", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "INFEASIBLE"
    assert len(payload["pairs"]) == 15
    assert payload["constraints"][0]["rhs"] == "S"


def test_norm_output_pinned(capsys):
    # The solver's witnesses, the row labels and both renderings, for the
    # smallest q and for q = 99.
    outs = []
    for q in ("9", "99"):
        for argv in (("norm", "--q", q, "--json"), ("norm", "--q", q)):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
    stdout = "".join(outs).encode()
    assert len(stdout) == 9722
    digest = "d86c03597300ab594ea0cda4b2a2fd7a25b6d173a5d3c264230c35745ae44512"
    assert hashlib.sha256(stdout).hexdigest() == digest


def test_norm_output_of_a_feasible_model_pinned(capsys, feasible_norm_model):
    # Each coordinate of a sample point prints with str, as a witness entry does.
    code, out, _ = run(capsys, "norm", "--q", "9")
    assert code == 0
    assert "verdict: FEASIBLE over all 15" in out
    assert "  pair (a1, a2): FEASIBLE at (1, 1, 0, 0, 0, 0, 4)\n" in out
    assert "Fraction" not in out
    code, js, _ = run(capsys, "norm", "--q", "9", "--json")
    assert code == 0
    payload = json.loads(js)
    assert payload["verdict"] == "FEASIBLE"
    assert all(p["feasible"] and p["witness"] is None for p in payload["pairs"])
    stdout = (out + js).encode()
    assert len(stdout) == 2555
    digest = "227619d9fc0896071b75e154df348f8a2c3055eaa02178644d194d4c98a370f0"
    assert hashlib.sha256(stdout).hexdigest() == digest


def test_norm_rejects_small_q(capsys):
    assert run(capsys, "norm", "--q", "7")[0] == 2


def test_chars_command(capsys):
    code, out, _ = run(capsys, "chars", "2", "3", "7")
    assert code == 0
    assert "irreducible 3" in out
    code, out, _ = run(capsys, "chars", "2", "3", "7", "--json")
    assert json.loads(out)["irreducible"] == 3


def test_group_present_and_coxeter(capsys):
    code, out, _ = run(capsys, "group", "present", "3", "3", "-4",
                       "--fill", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["abelianization"] == "Z/13"
    code, out, _ = run(capsys, "group", "present", "3", "3", "-4",
                       "--fill", "11", "--coxeter", "--json")
    assert json.loads(out)["signature"] == "(2,3,5;2)"
    assert run(capsys, "group", "present", "3", "3", "4")[0] == 2
    assert run(capsys, "group", "present", "3", "3", "-4", "--coxeter")[0] == 2


def test_group_coxeter_enumerate(capsys):
    code, out, _ = run(capsys, "group", "coxeter", "3", "7", "6",
                       "--enumerate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "FINITE"
    assert payload["clause"] == "iii"
    assert payload["order"] == 1092


def test_group_coxeter_enumerate_json_bytes_pinned(capsys):
    # Recorded at commit d93b71a, before the per-column enumerator.
    code, out, _ = run(capsys, "group", "coxeter", "3", "7", "4", "--enumerate", "--json")
    assert code == 0
    assert out == ('{"clause":"iii","cosets_defined":382,"enumeration":"FINITE",'
                   '"order":168,"signature":[2,3,7,4],"verdict":"FINITE"}\n')


def test_group_present_coxeter_json_digest_pinned(capsys):
    # The filled knot group's relators (Word products and powers), its
    # abelianization (Smith normal form) and the factor group with its
    # signature; the digest leaves out the last newline, as in the CI step.
    code, out, _ = run(capsys, "group", "present", "5", "7", "-6", "--fill", "23",
                       "--coxeter", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["abelianization"], payload["signature"]) == ("Z/23", "(2,5,13;3)")
    digest = "a304d340f66308939c29df93fc1f67d9e7e01e6fc3f2056ae720e06ecea5cdaf"
    assert hashlib.sha256(out.removesuffix("\n").encode()).hexdigest() == digest


def test_group_coxeter_max_cosets_cap(capsys):
    code, out, _ = run(capsys, "group", "coxeter", "3", "7", "6",
                       "--enumerate", "--max-cosets", "50", "--json")
    assert code == 0
    assert json.loads(out)["enumeration"] == "INCONCLUSIVE"


def test_deterministic_output(capsys):
    first = run(capsys, "sweep", "--question", "finite", "--p-range", "3:5",
                "--q-range", "3:5", "--r-range", "4:6", "--json")
    second = run(capsys, "sweep", "--question", "finite", "--p-range", "3:5",
                 "--q-range", "3:5", "--r-range", "4:6", "--json")
    assert first == second
