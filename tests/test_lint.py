import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pretzel_surgery"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so a soundness guard must raise instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, save those on an import
    marked ``# noqa: F401`` (a binding kept for other modules to read)."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and not any("# noqa: F401" in line
                            for line in lines[node.lineno - 1:node.end_lineno])
                for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports only to re-export, so it is not checked.
    assert _unused_imports(path.read_text()) == []


def test_the_unused_import_check_sees_a_leftover_name():
    source = "from .knots import TorusStatus, family  # a comment\nfamily(k)\n"
    assert _unused_imports(source) == ["TorusStatus"]
    assert _unused_imports(source.replace("# a comment", "# noqa: F401")) == []


def test_replay_uses_only_public_names_of_classify():
    # Replay derives a certificate again through classify's public entry; a
    # private helper would be a second, unchecked path through the rules.
    tree = ast.parse((SRC / "replay.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "classify"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_rule_ids_live_only_in_the_classify_table():
    # Replay derives the chain through classify's pipelines, which apply the
    # rows of classify.RULES; a rule id spelled out in replay would be a
    # second table.
    from pretzel_surgery.classify import RULES
    ids = {key for rows in RULES.values() for key in rows}
    ids |= {key.rstrip(":") for key in ids}
    tree = ast.parse((SRC / "replay.py").read_text())
    spelled = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and node.value in ids]
    assert spelled == []


def _caches(source: str) -> list[tuple[str, bool]]:
    """(function, keeps one entry) for each function decorated with
    functools.cache or lru_cache; one entry means a literal maxsize of 1."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for d in getattr(node, "decorator_list", ()):
            call = d if isinstance(d, ast.Call) else None
            func = call.func if call else d
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("cache", "lru_cache"):
                continue
            sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1] \
                if call else []
            one = name == "lru_cache" and bool(sizes) and getattr(sizes[0], "value", None) == 1
            found.append((node.name, one))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_keeps_one_entry(path):
    # A sweep visits tens of thousands of knots once each; a memo that keeps
    # more than the last one only grows the process.
    assert [name for name, one in _caches(path.read_text()) if not one] == []


def test_the_one_entry_memos_are_the_known_three():
    # Each holds a pure function of one knot that no caller edits in place,
    # so replay shares no mutable state with classify.  A new per-knot store
    # must be added to this list on purpose.
    memos = sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py")
                   for name, _ in _caches(path.read_text()))
    assert memos == ["classify._boundary", "classify.classify_finite", "knots.family"]


def test_the_package_imports_neither_dataclasses_nor_inspect():
    # Every record is a tuple record (records.Record or a named tuple), so the
    # package and its CLI start without the dataclasses module and the
    # inspect module it loads, which cost every process several milliseconds.
    # A fresh process without site imports only what the package asks for.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import pretzel_surgery, pretzel_surgery.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_certificates_store_only_their_chain_and_verdict():
    # A sweep keeps one certificate per knot: a dict per certificate, or a
    # stored copy of what the knot or the chain determines, costs a sweep
    # megabytes of peak memory.  The data and the slope marks are derived
    # when read, so there is no slope-mark record either.  A row that records
    # the same inputs on every knot is one shared rule, and a knot that an
    # opening row settles gets that row's shared chain, as does every
    # (p,q,-r) knot of the cyclic sweep (its one rule is cyclic_via_finite).
    import pretzel_surgery.classify as classify
    from pretzel_surgery.classify import CYCLIC, Certificate
    from pretzel_surgery.knots import canonicalize
    from pretzel_surgery.sweeps import sweep_cyclic, sweep_finite
    assert Certificate._fields == ("knot", "question", "verdict", "realized", "rules")
    assert not hasattr(classify, "SlopeStatus")
    assert issubclass(Certificate, tuple) and "__slots__" in vars(Certificate)
    assert not hasattr(Certificate(canonicalize(-2, 3, 7), CYCLIC), "__dict__")
    certificates = sweep_cyclic(11).certificates + sweep_finite().certificates
    assert all(type(c.rules) is tuple for c in certificates)
    shared = [r for c in certificates for r in c.rules if r.id in classify._SHARED]
    assert {r.id for r in shared} == set(classify._SHARED)
    assert all(r is classify._SHARED[r.id] for r in shared)
    opened = [c for c in certificates if c.rules[0].id in classify._OPENED]
    assert {c.rules[0].id for c in opened} == set(classify._OPENED)
    assert all((c.verdict, c.realized, c.rules) == classify._OPENED[c.rules[0].id]
               and c.rules is classify._OPENED[c.rules[0].id][2] for c in opened)
    via_finite = [c for c in certificates if c.rules[0].id == "cyclic_via_finite"]
    assert len(via_finite) == 60
    assert all(c.rules is classify._OPENED["cyclic_via_finite"][2] for c in via_finite)


def test_readme_lists_every_module():
    # Every module is named in the first column of the README's
    # "Ingredients" table.
    readme = (SRC.parent.parent / "README.md").read_text()
    table = readme.split("## Ingredients", 1)[1].split("\n## ", 1)[0]
    listed = {name for line in table.splitlines() if line.startswith("| `")
              for name in re.findall(r"`(\w+)`", line.split("|")[1])}
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert sorted(modules - listed) == []
