"""Library invariants raise real exceptions: ``python -O`` strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weyl_order"


def test_library_has_no_assert_statement():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
