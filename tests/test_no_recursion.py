"""The list-coloring solver, the degeneracy order, the clique-minor
reductions and search, the branch-set witness check, and the
vertex-mask walks in graphs.py that the solver and the check share run
on whole input graphs, up to VERTEX_CAP vertices.  A search that
recursed once per vertex would hit Python's recursion limit long before
that, so none of them may call itself, directly or through a chain of
calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchoosable"


def _call_graph(path: Path) -> dict[str, set[str]]:
    """Each function in `path` (module level, nested or method), by
    name, to the names it calls; a function's calls include those of the
    functions nested in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    graph: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = graph.setdefault(node.name, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Name):
                    calls.add(sub.func.id)
                elif isinstance(sub.func, ast.Attribute):
                    calls.add(sub.func.attr)
    return graph


def _reachable(graph: dict[str, set[str]], start: set[str]) -> set[str]:
    """The functions of `graph` that calls from `start` reach, in one
    step or more."""
    seen: set[str] = set()
    todo = [c for s in start for c in graph.get(s, ())]
    while todo:
        name = todo.pop()
        if name in graph and name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def recursive_functions(path: Path, roots: set[str] | None = None) -> list[str]:
    """Functions reachable from `roots` (all of them by default) that can
    call themselves back."""
    graph = _call_graph(path)
    scope = set(graph) if roots is None else roots | _reachable(graph, roots)
    return sorted(f for f in scope if f in _reachable(graph, {f}))


def test_solver_module_does_not_recurse():
    found = recursive_functions(SRC / "listcolor.py")
    assert not found, f"recursive functions in listcolor.py: {found}"


def test_graphs_module_does_not_recurse():
    names = {"degeneracy", "union_over", "reaches_all", "components"}
    assert names <= set(_call_graph(SRC / "graphs.py"))
    found = recursive_functions(SRC / "graphs.py")
    assert not found, f"recursive functions in graphs.py: {found}"


def test_minor_module_does_not_recurse():
    names = {"_reduce", "_grow_search", "check_witness"}
    assert names <= set(_call_graph(SRC / "minors.py"))
    found = recursive_functions(SRC / "minors.py")
    assert not found, f"recursive functions in minors.py: {found}"


def test_guard_sees_direct_and_mutual_recursion(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def outer(n):\n"
        "    def solve(k):\n"
        "        return k and solve(k - 1)\n"
        "    return solve(n)\n"
        "def ping(n):\n"
        "    return n and pong(n - 1)\n"
        "def pong(n):\n"
        "    return ping(n)\n"
        "def flat(n):\n"
        "    return [abs(k) for k in range(n)]\n",
        encoding="utf-8",
    )
    assert recursive_functions(probe) == ["ping", "pong", "solve"]
    assert recursive_functions(probe, {"flat"}) == []
