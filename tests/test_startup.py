"""Start-up cost of the command-line tool.

Every command runs in a fresh process, so what a command imports is
part of its run time.  The package resolves its public names on first
access, and each command imports what it calls, so `table` and a
compositional `verify` load no graph, search, coloring or certificate
code.  The records are NamedTuples, so `dataclasses` (and the
`inspect` it pulls in) is never loaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unchoosable
from unchoosable import (
    build,
    check_certificate,
    gadget_blocked_detail,
    has_clique_minor,
    lower_bound_table,
    params_for,
    verify_construction,
)

from conftest import complete_multipartite

SRC = Path(unchoosable.__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(SRC.parent))

# runs the CLI in this process, then prints the modules it loaded
_REPORT = """\
import contextlib, io, json, sys
from unchoosable.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

def _loaded(argv: list[str], *flags: str) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _REPORT, *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc["code"], set(doc["modules"])


@pytest.mark.parametrize(
    "argv", [["table", "--json"], ["verify", "--case", "a", "--t", "2"]], ids=" ".join
)
def test_table_and_compositional_verify_load_no_kernel(argv):
    code, modules = _loaded(argv)
    assert code == 0
    unwanted = {
        "dataclasses",
        "unchoosable.minors",
        "unchoosable.certificates",
        "unchoosable.listcolor",
        "unchoosable.graphs",
        "unchoosable.graphio",
    }
    assert not modules & unwanted, sorted(modules & unwanted)
    assert "unchoosable.construction" in modules


def test_check_cert_loads_no_coloring_solver(tmp_path):
    cp = tmp_path / "a2.json"
    code, _ = _loaded(["verify", "--case", "a", "--t", "2", "--cert", str(cp)])
    assert code == 0
    code, modules = _loaded(["check-cert", "--cert", str(cp)])
    assert code == 0
    unwanted = {"dataclasses", "unchoosable.listcolor"}
    assert not modules & unwanted, sorted(modules & unwanted)
    assert "unchoosable.certificates" in modules


def test_exit_codes_hold_in_fresh_processes_under_python_O(tmp_path):
    # each command imports its modules when it runs, so every exit code
    # is read from a fresh interpreter, with asserts stripped
    gp = tmp_path / "k3.json"
    lp = tmp_path / "lists.json"
    gp.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
    lists = {str(v): [1, 2] for v in range(3)}
    lp.write_text(json.dumps({"palette_size": 2, "lists": lists}))
    for argv, want in (
        (["table"], 0),
        (["verify", "--case", "c", "--t", "2", "--mode", "direct"], 0),
        (["verify", "--case", "a", "--t", "0"], 2),
        (["build", "--case", "a", "--t", "3"], 3),
        (["minor", "--input", str(gp), "--target", "4"], 1),
        (["color", "--graph", str(gp), "--lists", str(lp)], 1),
        (["degeneracy", "--input", str(gp)], 0),
        (["check-cert", "--cert", str(gp)], 1),
        (["check-cert", "--cert", str(tmp_path / "missing.json")], 2),
    ):
        assert _loaded(argv, "-O")[0] == want, argv


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.partition(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name} line {node.lineno}")
    assert not found, f"dataclasses imported: {found}"


def test_every_public_name_resolves():
    for name in unchoosable.__all__:
        assert getattr(unchoosable, name) is not None, name
    assert dir(unchoosable) == unchoosable.__all__
    with pytest.raises(AttributeError):
        unchoosable.no_such_name
    namespace: dict = {}
    exec("from unchoosable import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(unchoosable.__all__)
    for name in unchoosable.__all__:
        assert namespace[name] is getattr(unchoosable, name), name


def _plain(doc, path="doc") -> list[str]:
    """The paths in `doc` holding anything but the exact JSON types: a
    NamedTuple record would be written as a list without complaint."""
    if type(doc) is dict:
        return [p for k, v in doc.items() for p in _plain(v, f"{path}.{k}")]
    if type(doc) is list:
        return [p for i, v in enumerate(doc) for p in _plain(v, f"{path}[{i}]")]
    return [] if type(doc) in (str, int, bool) or doc is None else [path]


def test_no_record_reaches_a_json_document():
    bundle = verify_construction(params_for("c", 2))
    docs = [
        lower_bound_table(),
        bundle,
        verify_construction(params_for("c", 2), "direct"),
        gadget_blocked_detail(params_for("a", 2), (1, 2, 3, 4, 5)),
        build(params_for("b", 1))[1].to_json_dict(),
        has_clique_minor(complete_multipartite([2, 2, 2]), 4).witness.to_json_dict(),
        check_certificate(bundle)._asdict(),
    ]
    for doc in docs:
        assert not _plain(doc), _plain(doc)
