"""Construction certificates are checked by running the verifier again.
The checker must not import the kernels the verifier uses, so that a
second derivation, with gaps of its own, cannot creep back in."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchoosable"
CHECKER = SRC / "certificates.py"
KERNELS = {
    "l_colorable",
    "has_clique_minor",
    "degeneracy",
    "color_pattern_classes",
    "gadget_blocked_detail",
}


def test_checker_imports_no_verification_kernel():
    tree = ast.parse(CHECKER.read_text(encoding="utf-8"), filename=str(CHECKER))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n in KERNELS]
    assert not found, f"certificates.py reaches verification kernels: {found}"
