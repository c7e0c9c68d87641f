import json

import pytest

from pretzel_surgery.cli import main
from pretzel_surgery.schema import validate_certificate_json


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
    assert run(capsys, "classify", "--pretzel", "1,2",
               "--question", "cyclic")[0] == 2
    assert run(capsys, "classify", "--pretzel", "-2,4,6",
               "--question", "cyclic")[0] == 2


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
