import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pretzel_surgery"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so a soundness guard must raise instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def test_replay_uses_only_public_names_of_classify():
    # Replay calls classify's premises; a private helper would be a second,
    # unchecked definition of a rule.
    tree = ast.parse((SRC / "replay.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "classify"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
