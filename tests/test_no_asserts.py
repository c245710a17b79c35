"""The package states its invariants as raises: `python -O` strips
`assert` statements, and with them the check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchoosable"


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
