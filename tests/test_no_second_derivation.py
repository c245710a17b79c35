"""Construction certificates are checked by running the verifier again.
The checker must not import the kernels the verifier uses, so that a
second derivation, with gaps of its own, cannot creep back in.  The
verifier itself certifies minor-freeness by the counting bound and
non-colorability by the Hall test, so it must reach neither the
exhaustive minor search nor the list-coloring solver.  Adjacency masks,
n²/16 bytes, are built by `graphs.adjacency_masks` for the two search
kernels alone, and no module keeps a second copy on the graph."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchoosable"
CHECKER = SRC / "certificates.py"
VERIFIER = SRC / "construction.py"
KERNELS = {
    "l_colorable",
    "has_clique_minor",
    "degeneracy",
    "color_pattern_classes",
    "gadget_blocked_detail",
}


def _uses(path: Path, names: set[str]) -> list[str]:
    """Imports, the modules imported from, attribute accesses and bare
    names in `path` that are in `names`, as 'line N: name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                used.append(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, ast.Name):
            used = [node.id]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in used if n in names]
    return found


def test_checker_imports_no_verification_kernel():
    found = _uses(CHECKER, KERNELS)
    assert not found, f"certificates.py reaches verification kernels: {found}"


def test_verifier_searches_for_no_minor():
    found = _uses(VERIFIER, {"has_clique_minor"})
    assert not found, f"construction.py reaches the minor search: {found}"


def test_verifier_runs_no_list_coloring_solver():
    found = _uses(VERIFIER, {"l_colorable"})
    assert not found, f"construction.py reaches the list-coloring solver: {found}"


def test_verifier_runs_no_degeneracy_heap():
    """Direct verify checks the construction's own vertex order, so it
    neither calls `graphs.degeneracy` nor keeps a heap of its own."""
    found = _uses(VERIFIER, {"degeneracy", "heapq"})
    assert not found, f"construction.py reaches the degeneracy heap: {found}"


def test_verifier_keeps_one_adjacency_representation():
    """The gadget's layout is arithmetic and its adjacency is read from
    its classes or from sorted neighbour lists: no bitmasks, no mask
    clique test, no labels, and no edge list of the gadget."""
    names = {"adj", "is_clique", "labels", "matching_pairs", "complete_multipartite"}
    found = _uses(VERIFIER, names)
    assert not found, f"construction.py reaches a second adjacency: {found}"


def test_only_the_search_kernels_build_adjacency_masks():
    """`adjacency_masks` is imported only by the kernels' modules and
    named only inside `has_clique_minor` and `l_colorable`; no module
    reads an `adj` attribute."""
    kernels = {"minors.py": "has_clique_minor", "listcolor.py": "l_colorable"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # the innermost function around each node; ast.walk is
        # breadth-first, so inner functions overwrite outer ones
        inside = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    inside[node] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                ok = path.name in kernels
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = [node.attr if isinstance(node, ast.Attribute) else node.id]
                ok = inside.get(node) == kernels.get(path.name)
                if isinstance(node, ast.Attribute) and node.attr == "adj":
                    found.append(f"{path.name} line {node.lineno}: .adj")
            else:
                continue
            if "adjacency_masks" in names and not ok:
                found.append(f"{path.name} line {node.lineno}: adjacency_masks")
    assert not found, f"adjacency masks outside the search kernels: {found}"
