import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unchoosable import (
    Graph,
    InvalidArgumentError,
    ListAssignment,
    ParseError,
    ResourceLimitError,
    check_certificate,
    params_for,
    read_adjacency_json,
    read_graph,
    write_graph,
    verify_construction,
    write_adjacency_json,
    write_graph6,
)
from unchoosable import cli, listcolor
from unchoosable.cli import main
from unchoosable.graphs import VERTEX_CAP
from unchoosable.graphio import read_json
from unchoosable.listcolor import precoloring_from_json_dict

from conftest import check_coloring, complete_multipartite


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


def test_table_matches_known_row(capsys):
    code, out, _ = run(["table"], capsys)
    assert code == 0
    assert "2 3 5 6 7 9 10 11 13" in out


def test_table_json(capsys):
    code, out, _ = run(["table", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["5"]["case"] == "a" and doc["5"]["lower_bound"] == 5


def test_build_writes_graph_and_lists(tmp_path, capsys):
    gp = tmp_path / "b1.g6"
    lp = tmp_path / "b1.json"
    code, out, _ = run(
        ["build", "--case", "b", "--t", "1",
         "--graph", str(gp), "--lists", str(lp), "--json"],
        capsys,
    )
    assert code == 0
    man = json.loads(out)
    assert man["n_vertices"] == 10 and man["n_gadgets"] == 4
    g = read_graph(str(gp))
    assert g.n == 10 and g.m == 13
    lists = json.loads(lp.read_text(encoding="utf-8"))
    assert lists["palette_size"] == 3
    assert all(len(v) == 2 for v in lists["lists"].values())


def test_build_stats_only_large(capsys):
    code, out, _ = run(
        ["build", "--case", "a", "--t", "2", "--stats-only", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["n_vertices"] == 163845


def test_build_full_over_cap_exits_3(capsys):
    code, _, err = run(["build", "--case", "a", "--t", "2"], capsys)
    assert code == 3
    assert "stats-only" in err


def test_verify_direct_writes_certificate(tmp_path, capsys):
    cp = tmp_path / "cert.json"
    code, out, _ = run(
        ["verify", "--case", "b", "--t", "1", "--mode", "direct",
         "--cert", str(cp)],
        capsys,
    )
    assert code == 0 and "verified" in out
    cert = json.loads(cp.read_text(encoding="utf-8"))
    assert cert["kind"] == "construction-verified"

    code, out, _ = run(["check-cert", "--cert", str(cp)], capsys)
    assert code == 0 and out.startswith("accepted")


def test_verify_compositional_covers_every_class(capsys):
    code, out, _ = run(
        ["verify", "--case", "c", "--t", "2", "--json"], capsys
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["children"][1]["covered"] == 125


def test_minor_exit_codes(tmp_path, capsys):
    gp = tmp_path / "oct.g6"
    write_graph(complete_multipartite([2] * 3), str(gp))
    code, out, _ = run(["minor", "--input", str(gp), "--target", "5"], capsys)
    assert code == 1 and "no K_5 minor" in out
    code, out, _ = run(["minor", "--input", str(gp), "--target", "4"], capsys)
    assert code == 0 and "contains" in out


def test_minor_long_cycle_exits_1_without_search(tmp_path, capsys):
    gp = tmp_path / "c2000.json"
    n = 2000
    write_graph(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), str(gp))
    t0 = time.monotonic()
    code, out, _ = run(["minor", "--input", str(gp), "--target", "4"], capsys)
    assert code == 1 and "no K_4 minor (0 search nodes)" in out
    assert time.monotonic() - t0 < 1.0


def test_minor_long_cycle_at_three_needs_no_recursion(tmp_path, capsys):
    # no rule shrinks a cycle at t = 3, so the search places every vertex
    gp = tmp_path / "c2000.json"
    wp = tmp_path / "w.json"
    n = 2000
    write_graph(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), str(gp))
    t0 = time.monotonic()
    code, out, err = run(
        ["minor", "--input", str(gp), "--target", "3", "--witness", str(wp)], capsys
    )
    assert code == 0 and "contains" in out and err == ""
    assert time.monotonic() - t0 < 1.0
    # a 1998-vertex path branch set: connectivity is one breadth-first pass
    t0 = time.monotonic()
    code, out, _ = run(["check-cert", "--cert", str(wp), "--graph", str(gp)], capsys)
    assert code == 0 and "accepted" in out
    assert time.monotonic() - t0 < 1.0


def test_minor_witness_roundtrips_through_check_cert(tmp_path, capsys):
    gp = tmp_path / "k4.g6"
    wp = tmp_path / "w.json"
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    write_graph(k4, str(gp))
    code, _, _ = run(
        ["minor", "--input", str(gp), "--target", "4", "--witness", str(wp)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["check-cert", "--cert", str(wp), "--graph", str(gp)], capsys
    )
    assert code == 0 and "accepted" in out

    doc = json.loads(wp.read_text(encoding="utf-8"))
    doc["branch_sets"][0] = [9]
    write_text(wp, json.dumps(doc))
    code, _, _ = run(["check-cert", "--cert", str(wp), "--graph", str(gp)], capsys)
    assert code == 1

    # a K_0 witness claims nothing, so it is malformed
    write_text(wp, json.dumps({"kind": "branch-set-positive", "branch_sets": []}))
    code, out, _ = run(["check-cert", "--cert", str(wp), "--graph", str(gp)], capsys)
    assert code == 1 and "malformed certificate" in out


def test_color_exit_codes(tmp_path, capsys):
    gp = tmp_path / "c4.g6"
    lp = tmp_path / "lists.json"
    cp = tmp_path / "coloring.json"
    cyc = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    write_graph(cyc, str(gp))
    write_text(
        lp,
        json.dumps(
            {"palette_size": 2,
             "lists": {str(v): [1, 2] for v in range(4)}}
        ),
    )
    code, out, _ = run(
        ["color", "--graph", str(gp), "--lists", str(lp),
         "--coloring", str(cp)],
        capsys,
    )
    assert code == 0 and "colorable" in out
    coloring = json.loads(cp.read_text(encoding="utf-8"))["coloring"]
    assert coloring[0] != coloring[1]

    # odd cycle, same lists: a negative determination
    gp5 = tmp_path / "c5.g6"
    cyc5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    write_graph(cyc5, str(gp5))
    write_text(
        lp,
        json.dumps(
            {"palette_size": 2,
             "lists": {str(v): [1, 2] for v in range(5)}}
        ),
    )
    code, out, _ = run(["color", "--graph", str(gp5), "--lists", str(lp)], capsys)
    assert code == 1 and "not colorable" in out


def test_color_precolor(tmp_path, capsys):
    gp = tmp_path / "p3.g6"
    lp = tmp_path / "lists.json"
    pp = tmp_path / "pre.json"
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    write_graph(path3, str(gp))
    write_text(
        lp,
        json.dumps(
            {"palette_size": 2,
             "lists": {str(v): [1, 2] for v in range(3)}}
        ),
    )
    write_text(pp, json.dumps({"0": 2}))
    code, out, _ = run(
        ["color", "--graph", str(gp), "--lists", str(lp),
         "--precolor", str(pp), "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["coloring"][0] == 2


def test_color_bad_precolor_is_usage_error(tmp_path, capsys):
    gp = tmp_path / "e.g6"
    lp = tmp_path / "lists.json"
    pp = tmp_path / "pre.json"
    write_graph(Graph.from_edges(2, [(0, 1)]), str(gp))
    write_text(
        lp,
        json.dumps({"palette_size": 2, "lists": {"0": [1], "1": [1, 2]}}),
    )
    # not in vertex 0's list; in no list; a bool; a non-canonical id
    for pins in ({"0": 2}, {"0": 0}, {"0": True}, {"00": 1}):
        write_text(pp, json.dumps(pins))
        code, _, err = run(
            ["color", "--graph", str(gp), "--lists", str(lp), "--precolor", str(pp)],
            capsys,
        )
        assert code == 2 and err.startswith("error: "), (pins, err)


def test_graph_above_vertex_cap_exits_3(tmp_path, capsys):
    gp = tmp_path / "huge.json"
    write_text(gp, json.dumps({"n": 1_000_000_000, "edges": []}))
    code, out, err = run(["degeneracy", "--input", str(gp)], capsys)
    assert code == 3 and out == "" and err.startswith("resource limit:")


# runs the CLI in a process whose address space is capped at 256 MB, so
# a writer that allocates before its size check fails here rather than
# taking gigabytes; prints the exit code and the peak RSS in kB (VmHWM:
# getrusage's maxrss keeps the forking process's peak across exec)
_CAPPED_CLI = """\
import re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from unchoosable.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


def test_graph6_output_past_its_cap_exits_3_before_allocating(tmp_path):
    # a 26-byte edgeless graph of 10^5 vertices pasted with K_1 would be
    # 833 MB of graph6, and packing it would take about 3 GB
    big, k1, out = tmp_path / "big.json", tmp_path / "k1.json", tmp_path / "x.g6"
    write_text(big, json.dumps({"n": VERTEX_CAP, "edges": []}))
    write_text(k1, json.dumps({"n": 1, "edges": []}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    argv = ["paste", "--g1", str(big), "--clique1", "", "--g2", str(k1),
            "--clique2", "", "--out", str(out)]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 3, proc.stderr
    assert proc.stderr.startswith("resource limit: graph6 of a graph with 100001 ")
    assert "(.json)" in proc.stderr
    assert peak_kb < 64 << 10, peak_kb
    assert time.monotonic() - t0 < 5.0
    assert not out.exists()


def test_degeneracy_command(tmp_path, capsys):
    gp = tmp_path / "t.g6"
    write_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), str(gp))
    code, out, _ = run(["degeneracy", "--input", str(gp), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["degeneracy"] == 1
    assert sorted(doc["elimination_order"]) == [0, 1, 2, 3]


def test_paste_command(tmp_path, capsys):
    g1p = tmp_path / "g1.g6"
    g2p = tmp_path / "g2.g6"
    outp = tmp_path / "out.g6"
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    write_graph(tri, str(g1p))
    write_graph(tri, str(g2p))
    code, out, _ = run(
        ["paste", "--g1", str(g1p), "--clique1", "0,1",
         "--g2", str(g2p), "--clique2", "0,1", "--out", str(outp)],
        capsys,
    )
    assert code == 0
    pasted = read_graph(str(outp))
    assert pasted.n == 4 and pasted.m == 5


def test_paste_non_clique_is_input_error(tmp_path, capsys):
    g1p = tmp_path / "g1.g6"
    g2p = tmp_path / "g2.g6"
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    write_graph(path3, str(g1p))
    write_graph(path3, str(g2p))
    code, _, err = run(
        ["paste", "--g1", str(g1p), "--clique1", "0,2",
         "--g2", str(g2p), "--clique2", "0,1", "--out", "x.g6"],
        capsys,
    )
    assert code == 2 and "error" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(["minor", "--input", "no-such.g6", "--target", "3"], capsys)
    assert code == 2 and "error" in err


def test_corrupt_graph6_is_parse_error(tmp_path, capsys):
    gp = tmp_path / "bad.g6"
    good = write_graph6(Graph.from_edges(10, [(0, 9), (3, 7)]))
    write_text(gp, good[:-1])
    code, _, err = run(["minor", "--input", str(gp), "--target", "3"], capsys)
    assert code == 2 and "error" in err
    gp.write_bytes(b"\xff\xfe")  # not ASCII, so not graph6 either
    code, _, err = run(["minor", "--input", str(gp), "--target", "3"], capsys)
    assert code == 2 and err.startswith("error: ")


def test_usage_error_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--case", "z", "--t", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--case", "b", "--t", "1", "--symmetry", "off"])
    assert err.value.code == 2
    # neither verify nor check-cert searches, so neither takes a budget
    for argv in (
        ["verify", "--case", "b", "--t", "1", "--mode", "direct", "--timeout", "1"],
        ["check-cert", "--cert", "cert.json", "--timeout", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    for bad in ("0", "-1", "nan", "soon"):
        with pytest.raises(SystemExit) as err:
            main(["minor", "--input", "g.g6", "--target", "3", "--timeout", bad])
        assert err.value.code == 2
    capsys.readouterr()
    # malformed input files are input errors, not internal failures
    gp = tmp_path / "path.json"
    write_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), str(gp))
    lists = {"palette_size": 2, "lists": {str(v): [1, 2] for v in range(3)}}
    malformed = [
        ("lists", {"palette_size": 2, "lists": [[1], [2], [1]]}),
        ("lists", dict(lists, palette_size="x")),
        ("graph", {"n": 3, "edges": [[0, True]]}),
        ("graph", {"n": 3, "edges": [[0, 1], [0, 1]]}),
        ("graph", {"n": 3, "edges": [[0, 1], [1, 0]]}),
    ]
    for role, doc in malformed:
        bad = tmp_path / "bad.json"
        write_text(bad, json.dumps(doc))
        if role == "graph":
            argv = ["degeneracy", "--input", str(bad)]
        else:
            argv = ["color", "--graph", str(gp), "--lists", str(bad)]
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: "), (doc, err)
    # JSON nested past the parser's recursion limit, at every reader
    deep = tmp_path / "deep.json"
    write_text(deep, "[" * 100_000 + "]" * 100_000)
    lp = tmp_path / "lists.json"
    write_text(lp, json.dumps(lists))
    for argv in (
        ["check-cert", "--cert", str(deep)],
        ["degeneracy", "--input", str(deep)],
        ["color", "--graph", str(gp), "--lists", str(deep)],
        ["color", "--graph", str(gp), "--lists", str(lp), "--precolor", str(deep)],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: "), (argv, err)
        assert "nested too deeply" in err
    # paths no file can have, read and written at every place a file is
    # opened: a NUL byte, and an unpaired surrogate, which no encoding
    # of a file name takes
    for bad in ("a\x00b", "a\ud800b"):
        for argv in (
            ["minor", "--input", bad, "--target", "3"],
            ["check-cert", "--cert", bad],
            ["color", "--graph", str(gp), "--lists", bad],
            ["color", "--graph", str(gp), "--lists", str(lp), "--precolor", bad],
            ["build", "--case", "c", "--t", "1", "--graph", bad + ".g6"],
            ["build", "--case", "c", "--t", "1", "--lists", bad],
            ["verify", "--case", "c", "--t", "1", "--cert", bad],
            ["color", "--graph", str(gp), "--lists", str(lp), "--coloring", bad],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2 and err.startswith("error: cannot open "), (argv, err)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
IDS = st.sampled_from(["0", "1", "2", "00", "-1", " 1", "x", "9" * 5000])


def near(*shapes):
    # a JSON value, or one shaped like a valid document around JSON leaves
    return st.one_of(JSON, *shapes)


LIST_DOCS = near(
    st.fixed_dictionaries({
        "palette_size": near(st.integers(-1, 3)),
        "lists": near(st.dictionaries(IDS, near(st.lists(near(st.integers(0, 4)))))),
    })
)
GRAPH_DOCS = near(
    st.fixed_dictionaries(
        {"n": near(st.integers(-1, 4))},
        optional={
            "edges": near(st.lists(near(st.lists(near(st.integers(-1, 4)))))),
            "labels": near(st.dictionaries(st.text(max_size=2), near(
                st.lists(near(st.integers(-1, 4)))))),
        },
    )
)
PRECOLOR_DOCS = near(st.dictionaries(IDS, near(st.integers(-1, 4))))


@settings(max_examples=200, deadline=None)
@given(lists=LIST_DOCS, graph=GRAPH_DOCS, precolor=PRECOLOR_DOCS)
def test_readers_raise_only_input_errors(lists, graph, precolor):
    """Each input reader turns any JSON value into a value or an input
    error (exit 2), never another exception (exit 3); the one resource
    limit is a graph of more than VERTEX_CAP vertices."""
    for read, doc in (
        (ListAssignment.from_json_dict, lists),
        (lambda d: read_adjacency_json(json.dumps(d)), graph),
        (precoloring_from_json_dict, precolor),
    ):
        try:
            read(doc)
        except (ParseError, InvalidArgumentError):
            pass
        except ResourceLimitError:
            assert doc is graph and doc["n"] > VERTEX_CAP


# Paths and other argument words: relative names without "/", so
# whatever a drawn command writes lands in the test's own directory.
WORD = st.text(st.characters(exclude_characters="/"), max_size=8)


def mostly(usual, rare=WORD):
    # about one draw in ten from `rare`, so most runs get past argparse
    return st.sampled_from([usual] * 9 + [rare]).flatmap(lambda drawn: drawn)


def _input_files():
    """Each input file the property writes, with the documents that make
    a run get past parsing: small graphs, lists that fit them, the
    certificates of rows c1 and a1, a witness and pins."""
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    lists = [
        ListAssignment.from_lists(3, [[1, 2, 3], [1, 2], [3]]),
        ListAssignment.from_lists(2, [[1, 2]] * 3),
        ListAssignment.from_lists(3, [[1, 2, 3]] * 4),
    ]
    certs = [
        verify_construction(params_for("c", 1), mode="direct"),
        verify_construction(params_for("a", 1)),
        {"kind": "branch-set-positive", "t": 3, "branch_sets": [[0], [1], [2]]},
    ]
    return {
        "g.g6": [write_graph6(g) for g in (tri, k4, path)],
        "h.g6": [write_graph6(g) for g in (tri, k4)],
        "g.json": [write_adjacency_json(g) for g in (tri, path)],
        "lists.json": [json.dumps(la.to_json_dict()) for la in lists],
        "cert.json": [json.dumps(doc) for doc in certs],
        "pre.json": [json.dumps(doc) for doc in ({"0": 1}, {"1": 2}, {"0": 9})],
    }


INPUT_FILES = _input_files()
ANY_CONTENT = st.one_of(
    st.binary(max_size=24),
    st.text(max_size=24),
    st.one_of(JSON, LIST_DOCS, GRAPH_DOCS, PRECOLOR_DOCS).map(json.dumps),
    # an integer past Python's int digit limit, and a UTF-8 graph document
    st.sampled_from(["9" * 5000, '{"n": 2, "edges": [], "x": "é"}']),
)
CONTENTS = st.fixed_dictionaries(
    {name: mostly(st.sampled_from(docs), ANY_CONTENT)
     for name, docs in INPUT_FILES.items()}
)


def file_arg(*names):
    return mostly(
        st.sampled_from(names),
        st.sampled_from(sorted(INPUT_FILES) + ["out.json", "missing.json", "."]) | WORD,
    )


GRAPH_FILE = file_arg("g.g6", "h.g6", "g.json")
OUT_FILE = file_arg("out.json", "out.g6")
# rows from t = 2 on take up to seconds each to verify directly, which
# the dedicated tests above cover; here t stays where a run is quick
VALUES = {
    "--case": mostly(st.sampled_from("abc")),
    "--t": mostly(st.integers(-1, 1).map(str), st.sampled_from(["1000", "1.5", "x"])),
    "--mode": mostly(st.sampled_from(["direct", "compositional"])),
    "--target": mostly(st.integers(-1, 5).map(str)),
    "--timeout": mostly(st.sampled_from(["0.001", "1", "inf"]),
                        st.sampled_from(["0", "-1", "nan"]) | WORD),
    "--clique1": mostly(
        st.lists(st.integers(-1, 4).map(str), max_size=3).map(",".join)
    ),
    "--graph": GRAPH_FILE,
    "--input": GRAPH_FILE,
    "--g1": GRAPH_FILE,
    "--g2": GRAPH_FILE,
    "--lists": file_arg("lists.json"),
    "--cert": file_arg("cert.json"),
    "--precolor": file_arg("pre.json"),
    "--witness": OUT_FILE,
    "--coloring": OUT_FILE,
    "--out": OUT_FILE,
}
VALUES["--clique2"] = VALUES["--clique1"]
SWITCHES = ("--json", "--stats-only", "--help")
# per command, the flags it requires and the ones it may take
SPEC = {
    "build": (("--case", "--t"), ("--stats-only", "--graph", "--lists")),
    "verify": (("--case", "--t"), ("--mode", "--cert")),
    "minor": (("--input", "--target"), ("--witness", "--timeout")),
    "color": (("--graph", "--lists"), ("--precolor", "--coloring")),
    "degeneracy": (("--input",), ()),
    "paste": (("--g1", "--clique1", "--g2", "--clique2", "--out"), ()),
    "table": ((), ()),
    "check-cert": (("--cert",), ("--graph",)),
}
STRAY = st.one_of(
    st.sampled_from(sorted(VALUES)).flatmap(
        lambda flag: VALUES[flag].map(lambda value: [flag, value])
    ),
    st.sampled_from(SWITCHES).map(lambda switch: [switch]),
    WORD.map(lambda word: [word]),
)


@st.composite
def argvs(draw):
    """A command with most of its own flags, in any order, and now and
    then an unknown command or a stray flag, switch or word."""
    command = draw(mostly(st.sampled_from(sorted(SPEC))))
    required, optional = SPEC.get(command, ((), ()))
    flags = [f for f in required if draw(mostly(st.just(True), st.just(False)))]
    flags += [f for f in optional + ("--json",) if draw(st.booleans())]
    args = [[f] if f in SWITCHES else [f, draw(VALUES[f])] for f in flags]
    args += draw(mostly(st.just([]), st.lists(STRAY, min_size=1, max_size=2)))
    return [command] + [word for arg in draw(st.permutations(args)) for word in arg]


def test_exit_codes_hold_for_any_arguments_and_files(tmp_path, monkeypatch):
    """Whatever the arguments and the input files hold, the CLI exits 0,
    1, 2 or 3 and prints no traceback: argparse's usage errors exit 2,
    and every other failure is caught by `main`."""
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(argv=argvs(), contents=CONTENTS)
    def exits_within_contract(argv, contents):
        for name, content in contents.items():
            data = content if isinstance(content, bytes) else content.encode("utf-8")
            (tmp_path / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        assert "internal error" not in err.getvalue(), (argv, err.getvalue())

    exits_within_contract()


def assert_internal_failure(code, err):
    # exit 1 would read as "refuted"; a crash is exit 3 with one line
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("internal error: ")
    assert "Traceback" not in err


def test_bigint_overflow_exits_2(capsys):
    # the counts of a1000 would need more digits than int-to-str allows
    code, out, err = run(["build", "--case", "a", "--t", "1000", "--stats-only"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{sys.get_int_max_str_digits()}-digit" in err


# the digit-limit test of params_for once multiplied r by a float log,
# which overflows at this scale and made build and check-cert exit 3
HUGE_T = 10**400


def test_build_scale_past_any_float_exits_2(capsys):
    code, out, err = run(["build", "--case", "a", "--t", str(HUGE_T), "--stats-only"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"{sys.get_int_max_str_digits()}-digit" in err


def test_check_cert_scale_past_any_float_is_not_internal(tmp_path, capsys):
    cp = tmp_path / "cert.json"
    assert run(["verify", "--case", "a", "--t", "2", "--cert", str(cp)], capsys)[0] == 0
    doc = json.loads(cp.read_text(encoding="utf-8"))
    todo = [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            if "t" in node:
                node["t"] = HUGE_T
            todo.extend(node.values())
        elif isinstance(node, list):
            todo.extend(node)
    write_text(cp, json.dumps(doc))
    code, _, err = run(["check-cert", "--cert", str(cp)], capsys)
    assert code in (1, 2) and "internal error" not in err, (code, err)


def test_integer_past_digit_limit_is_input_error(tmp_path, capsys):
    # json.loads and int() raise ValueError on an integer of more digits
    # than int-to-str allows; every JSON reader makes that an input error
    gp = tmp_path / "g.json"
    write_graph(Graph.from_edges(2, []), str(gp))
    lp = tmp_path / "lists.json"
    write_text(lp, json.dumps(ListAssignment.from_lists(1, [[1], [1]]).to_json_dict()))
    big = tmp_path / "big.json"
    write_text(big, "9" * 5000)
    pre = tmp_path / "pre.json"
    write_text(pre, json.dumps({"9" * 5000: 1}))
    for argv in (
        ["check-cert", "--cert", str(big)],
        ["degeneracy", "--input", str(big)],
        ["color", "--graph", str(gp), "--lists", str(big)],
        ["color", "--graph", str(gp), "--lists", str(lp), "--precolor", str(pre)],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: "), (argv, err)


def test_color_long_path_needs_no_recursion(tmp_path, capsys):
    gp = tmp_path / "path.g6"
    lp = tmp_path / "lists.json"
    cp = tmp_path / "coloring.json"
    n = 300
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    write_graph(g, str(gp))
    write_text(
        lp,
        json.dumps({"palette_size": 2, "lists": {str(v): [1, 2] for v in range(n)}}),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, _, err = run(
            ["color", "--graph", str(gp), "--lists", str(lp), "--coloring", str(cp)],
            capsys,
        )
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and err == ""
    coloring = json.loads(cp.read_text(encoding="utf-8"))["coloring"]
    assert check_coloring(g, ListAssignment.from_json_dict(read_json(str(lp))), coloring)


def test_internal_failure_exits_3(tmp_path, capsys, monkeypatch):
    gp = tmp_path / "edge.g6"
    lp = tmp_path / "lists.json"
    write_graph(Graph.from_edges(2, [(0, 1)]), str(gp))
    write_text(lp, json.dumps({"palette_size": 2, "lists": {"0": [1, 2], "1": [1, 2]}}))

    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(listcolor, "l_colorable", crash)
    code, _, err = run(["color", "--graph", str(gp), "--lists", str(lp)], capsys)
    assert_internal_failure(code, err)
    assert "RecursionError" in err


def test_direct_b2_verify_and_check_run_no_search():
    # b2 direct: 5188 vertices.  verify and the replay in check-cert each
    # build the graph, check the construction's degeneracy order and the
    # Hall test on its 360 blocked copies, all linear in its size; the
    # solver's refutation they ran before took about half a second in
    # each.  Timed in CPU seconds of this process, which the load of
    # other processes does not add to.
    params = params_for("b", 2)
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        bundle = verify_construction(params, mode="direct")
        res = check_certificate(json.loads(json.dumps(bundle)))
        best = min(best, time.process_time() - t0)
        assert res.ok, res.reason
    assert bundle["children"][1]["blocked_copies"] == 360
    assert best < 0.6, best


def test_minor_timeout_exits_3(tmp_path, capsys):
    gp = tmp_path / "b5.g6"
    write_graph(complete_multipartite([2] * params_for("b", 5).r), str(gp))
    t0 = time.monotonic()
    code, _, err = run(
        ["minor", "--input", str(gp), "--target", "16", "--timeout", "0.5"], capsys
    )
    assert code == 3 and "resource limit" in err
    assert time.monotonic() - t0 < 5.0


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "unchoosable.cli", "table"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2 3 5 6 7 9 10 11 13" in proc.stdout


def test_check_cert_exit_codes_hold_under_python_O(tmp_path, capsys):
    # `python -O` strips assert statements: a check written as one would
    # pass the tampered certificates, and an internal failure would not
    # exit 2 on the malformed one
    cp = tmp_path / "b1.json"
    argv = ["verify", "--case", "b", "--t", "1", "--mode", "compositional"]
    assert run(argv + ["--cert", str(cp)], capsys)[0] == 0
    cert = json.loads(cp.read_text(encoding="utf-8"))
    n_gadgets = json.loads(json.dumps(cert))
    n_gadgets["manifest"]["n_gadgets"] = 5
    partition = json.loads(json.dumps(cert))
    partition["children"][0]["children"][0]["partition"] = [[0, 1, 2], [3]]
    cases = [
        (cert, 0),
        (n_gadgets, 1),
        (partition, 1),
        (json.dumps(cert)[:-1], 2),
        ({"kind": "construction-verified", "manifest": []}, 1),
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for doc, want in cases:
        write_text(cp, doc if isinstance(doc, str) else json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "unchoosable.cli", "check-cert",
             "--cert", str(cp)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == want, (doc, proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_json_outputs_reparse(tmp_path, capsys):
    # every --json mode emits a single readable document, and every JSON
    # file a command writes is indented by 2 and ends in one newline
    gp = tmp_path / "g.g6"
    write_graph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), str(gp))
    lp, cp, wp, kp = (tmp_path / f"{name}.json" for name in "lcwk")
    tp = tmp_path / "triangle-lists.json"
    lists = {"0": [1, 2, 3], "1": [1, 2], "2": [3]}
    write_text(tp, json.dumps({"palette_size": 3, "lists": lists}))
    for argv in (
        ["table", "--json"],
        ["build", "--case", "c", "--t", "1", "--json", "--lists", str(lp)],
        ["verify", "--case", "c", "--t", "1", "--json", "--cert", str(cp)],
        ["minor", "--input", str(gp), "--target", "3", "--json", "--witness", str(wp)],
        ["color", "--graph", str(gp), "--lists", str(tp), "--json",
         "--coloring", str(kp)],
        ["degeneracy", "--input", str(gp), "--json"],
    ):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        json.loads(out)
    for path in (lp, cp, wp, kp):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name