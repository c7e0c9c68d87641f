"""``src/`` keeps only what a command runs.

One fresh process runs a fixed list of CLI invocations on small boxes,
covering every subcommand and flag, and records each function of
``src/pretzel_surgery`` that runs under ``sys.setprofile``, import included.
Every other function must be on the allow-list below, with its reason.  A
helper that only tests read belongs in ``tests/``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pretzel_surgery"

INVOCATIONS = [
    ["classify", "--pretzel", "-2,3,7", "--question", "cyclic"],
    ["classify", "--pretzel", "7,3,-2", "--question", "finite", "--cite"],
    ["classify", "--pretzel", "-2,5,9", "--question", "cyclic", "--json"],
    ["classify", "--pretzel", "-2,5,9", "--question", "finite"],
    ["classify", "--pretzel", "-2,3,5", "--question", "finite", "--json"],
    ["classify", "--pretzel", "-6,3,3", "--question", "finite", "--json"],
    ["classify", "--pretzel", "-2,4,6", "--question", "cyclic"],
    ["classify", "--pretzel", "1,2", "--question", "cyclic"],
    ["classify", "--pretzel", "-2,x,7", "--question", "cyclic"],
    ["classify", "--pretzel", "0,3,5", "--question", "cyclic"],
    ["sweep", "--question", "cyclic", "--bound", "11", "--json"],
    ["sweep", "--question", "cyclic", "--bound", "4"],
    ["sweep", "--question", "finite", "--p-range", "3:11", "--q-range", "3:13",
     "--r-range", "4:14", "--json"],
    ["sweep", "--question", "finite", "--p-range", "3:5", "--q-range", "3:5", "--r-range", "4:6"],
    ["sweep", "--question", "finite", "--p-range", "5:3"],
    ["sweep", "--question", "finite", "--r-range", "0:4"],
    ["sweep", "--question", "finite", "--r-range", "5:5"],
    ["sweep", "--question", "cyclic", "--bound", "0"],
    ["norm", "--q", "9"],
    ["norm", "--q", "9", "--json"],
    ["norm", "--q", "8"],
    ["chars", "2", "3", "7"],
    ["chars", "2", "3", "7", "--json"],
    ["chars", "1", "3", "7"],
    ["group", "present", "5", "7", "-6"],
    ["group", "present", "5", "7", "-6", "--fill", "23", "--coxeter"],
    ["group", "present", "5", "7", "-6", "--fill", "23", "--coxeter", "--json"],
    ["group", "present", "5", "7", "6"],
    ["group", "present", "5", "7", "-6", "--coxeter"],
    ["group", "coxeter", "3", "7", "4", "--enumerate", "--json"],
    ["group", "coxeter", "3", "7", "6", "--enumerate", "--max-cosets", "200"],
    ["group", "coxeter", "3", "13", "4"],
    ["group", "coxeter", "1", "3", "3"],
    ["group", "coxeter", "3", "7", "4", "--max-cosets", "0"],
    ["--help"],
]

# Functions no invocation runs, each with its reason.
ALLOWED = {
    # Traced by perfbench/run.py, so they go with the benchmark change.
    "knots.hyperbolicity_condition": "traced by perfbench; its claim is proven in Tier-1",
    "knots.triangle_slack": "helper of hyperbolicity_condition",
    "knots.PretzelKnot.even_indices": "helper of hyperbolicity_condition",
    "knots.PretzelKnot.odd_indices": "helper of hyperbolicity_condition",
    "boundary.small_p_value": "traced by perfbench; small_p_pair is the rule's kernel",
    "boundary.toroidal_slope": "traced by perfbench; the rules compute 2(p+q) inline",
    "presentations.triangle_image_of_longitude": "reference of the longitude-collapse proof",
    "presentations.reduce_modulo_orders": "helper of triangle_image_of_longitude",
    "presentations.longitude_triviality_check": "traced by perfbench; proven in Tier-1",
    "words.Word.is_trivial": "helper of longitude_triviality_check",
    # Read by the benchmark, which no CLI invocation runs.
    "norms.verify_infeasibility_report": "perfbench re-verifies each norm report",
    "coxeter.EnumerationResult.is_finite": "perfbench reads each enumeration's status",
    # A branch no family reaches.
    "linprog.satisfies": "checks a sample point, which only a feasible LP has",
    # Protocol methods and guards.
    "classify._ReadOnly._read_only": "an in-place edit of shared rule inputs raises",
    "classify._ReadOnly.__reduce__": "copy and pickle of shared rule inputs",
    "records.Record._make": "namedtuple protocol, routed through the validating class",
    "records.Record.__lt__": "records are not ordered",
    "slopes.Slope.__repr__": "repr protocol",
    "words.Word.__repr__": "repr protocol",
    "words.Word.__eq__": "equality protocol; the commands compare no words",
    "words.Word.__hash__": "hash protocol; the commands key nothing by a word",
}

_RUNNER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
ran = set()
def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)
sys.setprofile(profile)
from pretzel_surgery.cli import main
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in ran})))
"""


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def in src/, the first
    line being a decorated function's first decorator, as in its code object."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[module.name, line] = f"{module.stem}.{name}"
                visit(child, module, f"{name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


@pytest.fixture(scope="module")
def unrun():
    done = subprocess.run([sys.executable, "-c", _RUNNER, str(SRC.parent),
                           json.dumps(INVOCATIONS)],
                          capture_output=True, text=True, timeout=120, check=True)
    ran = {(Path(file).name, line) for file, line in json.loads(done.stdout)
           if Path(file).parent == SRC}
    return {name for key, name in _functions().items() if key not in ran}


def test_every_function_in_src_runs_under_the_cli_or_is_allowed(unrun):
    assert sorted(unrun - ALLOWED.keys()) == []


def test_every_allowed_function_exists_and_stays_unrun(unrun):
    # An entry whose function now runs, or is gone, is stale.
    assert sorted(ALLOWED.keys() - unrun) == []
