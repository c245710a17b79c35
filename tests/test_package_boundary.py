"""The package holds what the command line and the certificate checker
run, and no more.  Every top-level function and class of `src/`, and
every public name, must be reached from `cli.main` (whose subcommand
handlers `_build_parser` names in `set_defaults(fn=...)`) or from
`certificates.check_certificate`, or be on `LIBRARY_API` with its
reason.  Test-only oracles live in `tests/conftest.py`.

The benchmark harness under `bench/` wraps package functions by name
and calls package attributes; those names are pinned here by parsing
its files, without importing or running them."""

import ast
import importlib
from pathlib import Path

import unchoosable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "unchoosable"
BENCH = ROOT / "bench"
ROOTS = (("cli", "main"), ("certificates", "check_certificate"))

# (module, name) -> why it stays although neither root reaches it
LIBRARY_API = {
    ("__init__", "__getattr__"): "resolves `unchoosable.<name>` for library "
    "callers on first access (PEP 562); the package's own modules import "
    "each other directly",
    ("__init__", "__dir__"): "makes `dir(unchoosable)` list `__all__` (PEP 562)",
}


def _names(node: ast.AST):
    """The bare names `node` reads, annotations left out: a name only an
    annotation mentions is never run."""
    stack = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load):
            yield x.id
        for field, value in ast.iter_fields(x):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append(value)


def _scan() -> tuple[set, set]:
    """Every top-level (module, name) def and class of the package, and
    those reached from ROOTS or from module-level code, which runs on
    import.  A name in a module resolves to that module's own top-level
    definition, or to where a `from .x import` in it brings it from."""
    defs, binds, module_code = {}, {}, []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        local = binds[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
                local[node.name] = (mod, node.name)
            else:
                module_code.append((mod, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    local[alias.asname or alias.name] = (node.module, alias.name)

    todo = list(ROOTS)
    for mod, node in module_code:
        todo += [binds[mod][n] for n in _names(node) if n in binds[mod]]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        mod = key[0]
        todo += [binds[mod][n] for n in _names(defs[key]) if n in binds[mod]]
    return set(defs), reached


def test_every_definition_is_reached_or_library_api():
    defs, reached = _scan()
    assert set(ROOTS) <= defs
    stray = sorted(defs - reached - LIBRARY_API.keys())
    assert not stray, (
        f"defined in src/ but reached from neither {ROOTS}: {stray}; "
        "move a test-only helper to tests/conftest.py, or list library "
        "API in LIBRARY_API with its reason"
    )


def test_library_api_list_is_exact():
    # each entry names a definition that exists and that the scan does
    # not already reach, so the list cannot go stale
    defs, reached = _scan()
    assert LIBRARY_API.keys() <= defs - reached
    assert all(reason for reason in LIBRARY_API.values())


def test_every_public_name_is_reached_or_library_api():
    _, reached = _scan()
    stray = [
        name
        for name in unchoosable.__all__
        if (unchoosable._SUBMODULE[name], name) not in reached | LIBRARY_API.keys()
    ]
    assert not stray, f"exported but reached from neither {ROOTS}: {stray}"


def test_test_oracles_are_not_in_the_package():
    oracles = {
        "check_coloring",
        "complete_multipartite",
        "gadget_lists",
        "hadwiger_number",
    }
    assert oracles.isdisjoint(unchoosable.__all__)
    defs, _ = _scan()
    assert oracles.isdisjoint(name for _, name in defs)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_tracer_layer_functions_resolve():
    # bench/tracing.py getattr's each (module, function) of LAYER_FUNCTIONS
    # to wrap it; one that no longer resolves breaks every traced run
    pairs = []
    for node in _parse(BENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            for entry in node.value.elts:
                mod, fn = (ast.literal_eval(e) for e in entry.elts[:2])
                pairs.append((mod, fn))
    assert len(pairs) >= 10, pairs
    for mod, fn in pairs:
        module = importlib.import_module(f"unchoosable.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_bench_package_attributes_resolve():
    # every `module.attr` the harness reads off a package module it
    # imports by `from unchoosable import ...`
    seen = 0
    for path in sorted(BENCH.glob("*.py")):
        tree = _parse(path)
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "unchoosable"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                module = importlib.import_module(f"unchoosable.{modules[node.value.id]}")
                assert hasattr(module, node.attr), (
                    f"{path.name} line {node.lineno}: {node.value.id}.{node.attr}"
                )
                seen += 1
    assert seen >= 10, seen
