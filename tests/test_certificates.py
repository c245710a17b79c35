import copy
import functools
import json
import operator
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unchoosable import (
    Graph,
    check_certificate,
    has_clique_minor,
    params_for,
    verify_construction,
    verify_minor_free,
    verify_not_colorable,
)
from unchoosable.certificates import CheckResult

from conftest import complete_multipartite, oracle_has_minor


@pytest.fixture(scope="module")
def bundles():
    return {
        "b1": verify_construction(params_for("b", 1), mode="direct"),
        "c1": verify_construction(params_for("c", 1), mode="direct"),
        "a1": verify_construction(params_for("a", 1), mode="direct"),
        "a2": verify_construction(params_for("a", 2), mode="compositional"),
        "b2": verify_construction(params_for("b", 2), mode="compositional"),
    }


def roundtrip(cert: dict) -> dict:
    return json.loads(json.dumps(cert))


def test_bundles_accepted(bundles):
    for name, cert in bundles.items():
        res = check_certificate(roundtrip(cert))
        assert res.ok, (name, res.reason)


def test_witness_certificate_accepted():
    g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    ans = has_clique_minor(g, 4)
    cert = {"kind": "branch-set-positive"}
    cert.update(ans.witness.to_json_dict())
    assert check_certificate(roundtrip(cert), g).ok
    # bare witness file without the kind marker still checks
    bare = ans.witness.to_json_dict()
    assert check_certificate(roundtrip(bare), g).ok


def test_witness_needs_its_graph():
    cert = {"kind": "branch-set-positive", "t": 2, "branch_sets": [[0], [1]]}
    assert not check_certificate(cert).ok


def test_flipped_witness_vertex_rejected():
    g = Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    )
    ans = has_clique_minor(g, 4)
    assert ans.contains
    doc = ans.witness.to_json_dict()
    doc["branch_sets"][0][0] = 4  # vertex 4 hangs off the K_4
    assert not check_certificate({"kind": "branch-set-positive", **doc}, g).ok
    # a vertex id is a JSON integer, not its text, a float or a bool
    k2 = Graph.from_edges(2, [(0, 1)])
    for sets in ([["0"], [1]], [[0.0], [1]], [[False], [True]], [0, 1]):
        cert = {"kind": "branch-set-positive", "branch_sets": sets}
        assert not check_certificate(cert, k2).ok, sets


def test_witness_t_mismatch_rejected():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    cert = {"kind": "branch-set-positive", "t": 2, "branch_sets": [[0], [1], [2]]}
    assert not check_certificate(cert, g).ok
    # t is a JSON integer too; true once passed for 1 against K_2
    k2 = Graph.from_edges(2, [(0, 1)])
    for t, sets in ((True, [[0]]), (1.0, [[0]]), ("1", [[0]]), (True, [["0"]])):
        cert = {"kind": "branch-set-positive", "t": t, "branch_sets": sets}
        assert not check_certificate(cert, k2).ok, (t, sets)


# a pendant vertex 4 on K_4, and a K_4, K_3, K_2 and K_1 witness of it
G5 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
G5_WITNESSES = ([[0], [1], [2], [3]], [[0], [1], [2, 3, 4]], [[0, 1], [3, 4]], [[4]])
ODD = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=2)
    | st.dictionaries(st.text(max_size=1), st.integers(), max_size=2)
)


def true_witness(g: Graph, sets) -> bool:
    """Disjoint sets of vertices of `g`, each connected, pairwise joined
    by an edge: walked over the edge set, without the package."""
    edges = set(g.edges) | {(v, u) for u, v in g.edges}
    flat = [v for bs in sets for v in bs]
    if len(flat) != len(set(flat)) or not all(0 <= v < g.n for v in flat):
        return False
    for bs in sets:
        seen, todo = {bs[0]}, [bs[0]]
        while todo:
            u = todo.pop()
            for v in bs:
                if (u, v) in edges and v not in seen:
                    seen.add(v)
                    todo.append(v)
        if len(seen) != len(bs):
            return False
    return all(
        any((u, v) in edges for u in a for v in b)
        for i, a in enumerate(sets) for b in sets[i + 1:]
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_witness_reader_never_raises(data):
    """A witness of G5 with a few edits (an id retyped as the bool, float
    or string of its value, or moved; a set or the list of sets swapped
    for another JSON value; t given, wrong or mistyped) gets a verdict,
    never an exception.  It is refused when an id is not a JSON integer,
    and accepted exactly when it is a true witness whose t, if given,
    counts its sets."""
    sets = [list(bs) for bs in data.draw(st.sampled_from(G5_WITNESSES))]
    for _ in range(data.draw(st.integers(0, 2))):
        bs = data.draw(st.sampled_from(sets))
        j = data.draw(st.integers(0, len(bs) - 1))
        v = bs[j] if type(bs[j]) is int else 0
        bs[j] = data.draw(st.sampled_from([v == 1, float(v), str(v), v + 1, -1, 5]))
    doc = {"branch_sets": sets}
    if data.draw(st.booleans()):
        doc["kind"] = "branch-set-positive"
    if data.draw(st.booleans()):
        doc["t"] = data.draw(st.sampled_from([len(sets), len(sets) + 1]) | ODD)
    if data.draw(st.integers(0, 9)) == 0:
        sets[data.draw(st.integers(0, len(sets) - 1))] = data.draw(ODD)
    if data.draw(st.integers(0, 9)) == 0:
        doc["branch_sets"] = data.draw(ODD)
    res = check_certificate(doc, G5)
    assert type(res) is CheckResult
    well_typed = doc["branch_sets"] is sets and all(
        type(bs) is list and all(type(v) is int for v in bs) for bs in sets
    )
    t_ok = type(doc.get("t", len(sets))) is int and doc.get("t", len(sets)) == len(sets)
    assert res.ok == (well_typed and t_ok and true_witness(G5, sets)), (doc, res)


def test_dropped_class_rejected(bundles):
    cert = roundtrip(bundles["a2"])
    color = cert["children"][1]
    removed = color["classes"].pop(1)
    color["covered"] -= removed["size"]
    res = check_certificate(cert)
    assert not res.ok


def test_inflated_class_size_rejected(bundles):
    cert = roundtrip(bundles["a2"])
    color = cert["children"][1]
    color["classes"][0]["size"] += 8
    color["covered"] += 8
    assert not check_certificate(cert).ok


def test_all_improper_classes_rejected(bundles):
    # sizes still sum to q^r and each entry re-solves with its stated
    # status, but the repetition-free vectors are never solved
    cert = roundtrip(bundles["b2"])
    color = cert["children"][1]
    color["symmetry"] = False  # a stale field must not relax the check
    q, r = color["q"], color["r"]
    color["classes"] = [
        {"representative": [c] * r, "status": "improper-root",
         "blocked": True, "size": size}
        for c, size in ((1, q**r - 1), (2, 1))
    ]
    assert not check_certificate(cert).ok


def test_duplicated_class_rejected(bundles):
    cert = roundtrip(bundles["b2"])
    color = cert["children"][1]
    color["symmetry"] = False
    entries = color["classes"]
    dup = next(e for e in entries if e["status"] == "blocked")
    improper = max(
        (e for e in entries if e["status"] == "improper-root"),
        key=lambda e: e["size"],
    )
    improper["size"] -= dup["size"]
    entries.append(dict(dup))
    assert not check_certificate(cert).ok


def test_forged_class_status_rejected(bundles):
    cert = roundtrip(bundles["a2"])
    color = cert["children"][1]
    entry = next(e for e in color["classes"] if e["status"] == "blocked")
    entry["status"] = "improper-root"
    assert not check_certificate(cert).ok


def test_wrong_gadget_count_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    cert["children"][0]["n_gadgets"] = 3
    assert not check_certificate(cert).ok


def test_wrong_glue_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    cert["children"][0]["glue"] = [0, 1]  # template roots are 0 and 2
    assert not check_certificate(cert).ok


def test_tampered_manifest_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    cert["manifest"]["n_vertices"] = 11
    assert not check_certificate(cert).ok
    cert = roundtrip(bundles["b1"])
    cert["manifest"]["p"] = 5
    assert not check_certificate(cert).ok


def test_degeneracy_lie_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    cert["degeneracy"]["degeneracy"] = 1
    assert not check_certificate(cert).ok


def test_wrong_child_target_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    cert["children"][0]["children"][0]["target"] = 3
    assert not check_certificate(cert).ok


def test_missing_child_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    cert["children"] = cert["children"][:1]
    assert not check_certificate(cert).ok


def test_unknown_kind_rejected():
    assert not check_certificate({"kind": "trust-me"}).ok
    assert not check_certificate({"payload": 1}).ok
    assert not check_certificate([1, 2]).ok


def test_malformed_payload_rejected(bundles):
    cert = roundtrip(bundles["b1"])
    del cert["manifest"]["case"]
    res = check_certificate(cert)
    assert not res.ok and "malformed" in res.reason


def test_standalone_certs_accepted():
    minor = verify_minor_free(params_for("b", 1))
    assert check_certificate(roundtrip(minor)).ok
    color = verify_not_colorable(params_for("b", 1), mode="compositional")
    assert check_certificate(roundtrip(color)).ok
    direct = verify_not_colorable(params_for("b", 1), mode="direct")
    assert check_certificate(roundtrip(direct)).ok


def test_gadget_child_checks_standalone(bundles):
    child = roundtrip(bundles["a1"]["children"][0]["children"][0])
    assert child["kind"] == "counting-bound"
    assert child["partition"] == [[0, 1], [2, 3], [4, 5]]
    assert check_certificate(child).ok  # reads the gadget's classes from case/t
    octahedron = complete_multipartite([2] * 3)
    assert check_certificate(child, octahedron).ok


@pytest.mark.parametrize("row", ["a2", "b3", "c1", "c3"])
def test_gadget_child_in_another_order_accepted(row):
    # the template-scope child is proof-checked, not replayed: the same
    # partition in another order is as good a proof
    pp = params_for(row[0], int(row[1:]))
    child = roundtrip(verify_minor_free(pp)["children"][0])
    assert check_certificate(child).ok
    pairs = [part for part in child["partition"] if len(part) == 2]
    apex = [part for part in child["partition"] if len(part) == 1]
    assert len(pairs) == pp.r and len(apex) == (row[0] == "c")
    orders = [
        pairs[::-1] + apex,  # parts reversed
        [part[::-1] for part in pairs] + apex,  # pair members swapped
        apex + [part[::-1] for part in pairs[::-1]],  # apex first, all of it
    ]
    for partition in orders:
        res = check_certificate({**child, "partition": partition})
        assert res.ok, (row, partition, res.reason)


def _on_parts(edit):
    return lambda child: edit(child["partition"])


def _swap_across(ps):
    ps[0][1], ps[1][0] = ps[1][0], ps[0][1]  # {0,2} and {1,3}: edges


# each edit breaks the a2 gadget child
A2_CHILD_TAMPERS = [
    ("edge inside a part", _on_parts(_swap_across)),
    ("parts merged", _on_parts(lambda ps: ps[0].extend(ps.pop(1)))),
    ("part split", _on_parts(lambda ps: ps.append([ps[0].pop()]))),
    ("vertex dropped", _on_parts(lambda ps: ps[0].pop())),
    ("vertex duplicated", _on_parts(lambda ps: ps[0].append(ps[1][0]))),
    ("vertex out of range", _on_parts(lambda ps: ps[0].__setitem__(1, 10))),
    ("negative vertex", _on_parts(lambda ps: ps[0].__setitem__(1, -1))),
    ("vertex as text", _on_parts(lambda ps: ps[0].__setitem__(1, "1"))),
    ("empty part", _on_parts(lambda ps: ps.append([]))),
    ("target p-1", lambda c: c.__setitem__("target", c["target"] - 1)),
    ("n changed", lambda c: c.__setitem__("n", c["n"] + 1)),
    ("other t", lambda c: c.__setitem__("t", 3)),
    ("other case", lambda c: c.__setitem__("case", "b")),
    ("vertex as bool", _on_parts(lambda ps: ps[0].__setitem__(1, True))),
    ("target as float", lambda c: c.__setitem__("target", float(c["target"]))),
    ("n as float", lambda c: c.__setitem__("n", float(c["n"]))),
    ("n as text", lambda c: c.__setitem__("n", str(c["n"]))),
    ("t as float", lambda c: c.__setitem__("t", float(c["t"]))),
    ("t as text", lambda c: c.__setitem__("t", str(c["t"]))),
]


@pytest.mark.parametrize(
    "name,edit", A2_CHILD_TAMPERS, ids=[n for n, _ in A2_CHILD_TAMPERS]
)
def test_counting_bound_tamper_rejected(bundles, name, edit):
    bundle = roundtrip(bundles["a2"])
    child = bundle["children"][0]["children"][0]
    assert child["kind"] == "counting-bound" and check_certificate(child).ok
    edit(child)
    assert not check_certificate(roundtrip(child)).ok
    assert not check_certificate(bundle).ok


def test_counting_bound_child_of_other_row_rejected(bundles):
    bundle = roundtrip(bundles["a2"])
    pasting = bundle["children"][0]
    for other in ("b2", "a1"):
        foreign = roundtrip(bundles[other]["children"][0]["children"][0])
        assert check_certificate(foreign).ok  # sound for its own row
        pasting["children"] = [foreign]
        assert not check_certificate(pasting).ok
        assert not check_certificate(bundle).ok


def test_exhaustive_child_in_pasting_rejected(bundles):
    # a pasting takes only counting-bound children, even true ones
    bundle = roundtrip(bundles["a2"])
    pasting = bundle["children"][0]
    child = pasting["children"][0]
    exhaustive = {key: child[key] for key in ("scope", "case", "t", "target", "n")}
    exhaustive.update(kind="exhaustive-negative", method="exhaustive", nodes=0)
    pasting["children"] = [exhaustive]
    res = check_certificate(pasting)
    assert not res.ok and "children[0].kind" in res.reason
    res = check_certificate(bundle)
    assert not res.ok and "children[0].children[0].kind" in res.reason


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_counting_bound_acceptance_is_sound(data):
    """Whatever graph and partition it is shown, the checker accepts a
    counting-bound certificate for K_t only when no K_t minor exists."""
    n = data.draw(st.integers(1, 8))
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    across_only = data.draw(st.booleans())
    edges = [
        (u, v)
        for (u, v), k in zip(slots, keep)
        if k and not (across_only and labels[u] == labels[v])
    ]
    g = Graph.from_edges(n, edges)
    parts = [[v for v in range(n) if labels[v] == x] for x in sorted(set(labels))]
    mutation = data.draw(st.sampled_from(["none", "drop", "duplicate"]))
    if mutation == "drop":
        parts[0].pop()
    elif mutation == "duplicate":
        parts[-1].append(parts[0][0])
    target = data.draw(st.integers(1, n + 1))
    cert = {"kind": "counting-bound", "target": target, "n": n, "partition": parts}
    res = check_certificate(cert, g)
    if res.ok:
        assert not oracle_has_minor(g, target), (edges, parts, target)
    if mutation == "none" and all(labels[u] != labels[v] for u, v in edges):
        assert res.ok == (target > (n + len(parts)) // 2)
    elif mutation != "none":
        assert not res.ok


def single_field_edits(doc, path=()):
    """Every single-field edit of a JSON document, as (path, edited
    copy): each leaf changed (int +1, bool flipped, string altered) or
    retyped (bool as 0/1, int as float, 0/1 as bool), each key dropped,
    and one key added to each object."""
    if isinstance(doc, dict):
        yield path + ("+",), {**doc, "extra": 0}
        for key, value in doc.items():
            yield path + ("-" + key,), {k: v for k, v in doc.items() if k != key}
            for sub, edited in single_field_edits(value, path + (key,)):
                yield sub, {**doc, key: edited}
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            for sub, edited in single_field_edits(value, path + (i,)):
                yield sub, doc[:i] + [edited] + doc[i + 1:]
    elif isinstance(doc, bool):
        yield path, not doc
        yield path + ("int",), int(doc)
    elif isinstance(doc, int):
        yield path, doc + 1
        yield path + ("float",), float(doc)
        if doc in (0, 1):
            yield path + ("bool",), bool(doc)
    elif isinstance(doc, str):
        yield path, doc + "x"


@pytest.mark.parametrize("name", ["b1", "c1", "a2", "b2"])
def test_every_single_field_edit_rejected(bundles, name):
    cert = roundtrip(bundles[name])
    edits = list(single_field_edits(cert))
    assert len(edits) > 40
    accepted = [path for path, bad in edits if check_certificate(bad).ok]
    assert not accepted
    assert check_certificate(cert).ok  # the edits left the original alone


def test_equal_documents_compare_type_for_type():
    # equal values of other types, subclasses included, are not equal
    # documents; reordered keys are; and a deep document is refused
    # without recursing into it
    import collections
    import enum

    from unchoosable.certificates import _difference

    class Text(str):
        pass

    Flag = enum.IntEnum("Flag", "ON")
    fresh = {"n": 1, "kind": "x", "parts": [[0, 1]], "ok": True}
    assert _difference(fresh, dict(fresh)) is None
    reordered = {"ok": True, "parts": [[0, 1]], "kind": "x", "n": 1}
    assert _difference(fresh, reordered) is None
    for key, value in [
        ("n", True), ("n", 1.0), ("n", Flag.ON), ("kind", Text("x")),
        ("parts", [(0, 1)]), ("parts", ((0, 1),)), ("ok", 1),
    ]:
        assert _difference(fresh, {**fresh, key: value}) is not None, (key, value)
    assert _difference(fresh, collections.OrderedDict(fresh)) is not None
    deep = [0]
    for _ in range(10_000):
        deep = [deep]
    assert _difference(fresh, {**fresh, "parts": [deep]}) is not None


def _reordered(doc):
    """`doc` with the keys of every object in reverse order."""
    if isinstance(doc, dict):
        return {key: _reordered(doc[key]) for key in reversed(doc)}
    if isinstance(doc, list):
        return [_reordered(value) for value in doc]
    return doc


@pytest.mark.parametrize("name", ["b1", "a1", "a2", "b2"])
def test_reordered_keys_accepted(bundles, name):
    cert = _reordered(roundtrip(bundles[name]))
    assert list(cert) == list(reversed(list(bundles[name])))
    res = check_certificate(cert)
    assert res.ok, res.reason


def test_python_built_retypes_rejected_with_their_path(bundles):
    # a document built in Python, not read from JSON: Python's == takes
    # 1 for true and 2.0 for 2, the check does not, nor a tuple for a list
    edits = [
        (("children", 0, "glue"), tuple, "children[0].glue"),
        (("children", 0, "glue_is_clique"), int, "children[0].glue_is_clique"),
        (("children", 1, "classes", 0, "size"), float, "children[1].classes[0].size"),
        (("manifest", "n_gadgets"), float, "manifest.n_gadgets"),
    ]
    for path, retype, named in edits:
        cert = copy.deepcopy(bundles["a2"])
        *head, last = path
        node = functools.reduce(operator.getitem, head, cert)
        node[last] = retype(node[last])
        res = check_certificate(cert)
        assert not res.ok and res.reason.startswith(named + ":"), (path, res.reason)


def test_equal_documents_name_no_path(bundles, monkeypatch):
    # the first differing path is only worked out for a mismatch
    import unchoosable.certificates as certificates

    def named(*args):
        pytest.fail(f"a path was named for an equal document: {args[2:]}")

    monkeypatch.setattr(certificates, "_first_difference", named)
    for name, cert in bundles.items():
        res = check_certificate(roundtrip(cert))
        assert res.ok, (name, res.reason)


def test_crafted_direct_agreement_rejected_without_search(bundles):
    # a1 has 195 vertices; the verifier never searches a graph that big,
    # so a stated whole-graph search cannot be re-derived
    crafted = {"ran": True, "n": 195}
    bundle = roundtrip(bundles["a1"])
    bundle["children"][0]["direct_agreement"] = crafted
    # CPU seconds of this process, which other processes' load does
    # not add to
    t0 = time.process_time()
    res = check_certificate(bundle)
    assert not res.ok and "direct_agreement" in res.reason
    assert time.process_time() - t0 < 1.0
    # standalone, too large to build: rejected, not a resource limit
    pasting = roundtrip(bundles["a2"]["children"][0])
    pasting["direct_agreement"] = dict(crafted, n=163845)
    res = check_certificate(pasting)
    assert not res.ok and "direct_agreement" in res.reason
