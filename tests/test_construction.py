import collections
import itertools
import json
import math
import random

import networkx as nx
import pytest

from unchoosable import (
    ConstructionParams,
    ConstructionRefuted,
    Graph,
    InvalidArgumentError,
    ResourceLimitError,
    SearchTimeout,
    build,
    build_stats,
    check_certificate,
    check_witness,
    color_pattern_classes,
    counting_bound,
    gadget_blocked_detail,
    gadget_template,
    has_clique_minor,
    l_colorable,
    ListAssignment,
    lower_bound_table,
    params_for,
    paste,
    verify_construction,
    verify_minor_free,
    verify_not_colorable,
)
from unchoosable import certificates, construction, graphs, minors
from unchoosable.graphs import neighbour_lists

from conftest import (
    adjacency_sets,
    complete_multipartite,
    gadget_lists,
    hadwiger_number,
)


def test_parameter_table_rows():
    assert params_for("a", 1) == ConstructionParams("a", 1, 5, 4, 3, "K_{rx2}")
    assert params_for("c", 1) == ConstructionParams("c", 1, 3, 1, 1, "K_{1,rx2}")
    assert params_for("b", 2) == ConstructionParams("b", 2, 7, 6, 4, "K_{rx2}")


def test_parameter_identities_hold_at_scale():
    for t in range(1, 101):
        for case in "abc":
            pp = params_for(case, t)
            floor_3r2 = (3 * pp.r) // 2
            if case == "c":
                assert floor_3r2 + 2 == pp.p
            else:
                assert floor_3r2 + 1 == pp.p
            assert pp.q + 2 == gadget_vertices(pp)


def gadget_vertices(pp: ConstructionParams) -> int:
    return 2 * pp.r + (1 if pp.gadget_kind == "K_{1,rx2}" else 0)


def test_params_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        params_for("d", 1)
    with pytest.raises(InvalidArgumentError):
        params_for("a", 0)
    params_for("a", 600)  # its counts have 4066 digits
    with pytest.raises(InvalidArgumentError, match="digit"):
        params_for("a", 700)  # 4836 digits, past the default limit of 4300
    # K_{2x2} has 4 vertices, the row asks for q+2 = 5
    with pytest.raises(InvalidArgumentError):
        gadget_template(ConstructionParams("b", 1, 4, 3, 2, "K_{rx2}"))


def test_gadget_template_invariants():
    for case, t in itertools.product("abc", range(1, 13)):
        pp = params_for(case, t)
        tpl = gadget_template(pp)
        gadget = _multipartite(tpl.part_of)
        g = nx.Graph(gadget.edges)
        g.add_nodes_from(range(gadget.n))
        assert gadget.n == pp.q + 2
        # the only non-edges are the deleted matching, so the roots are
        # a clique and in case c the apex meets every other vertex
        missing = {tuple(sorted(e)) for e in nx.complement(g).edges}
        assert missing == set(tpl.pairs) and len(tpl.pairs) == pp.r
        assert tpl.root_clique == tuple(range(0, 2 * pp.r, 2))
        # the w_i, then in case c the apex
        apex = (2 * pp.r,) if case == "c" else ()
        assert tpl.own == tuple(range(1, 2 * pp.r, 2)) + apex


def _partitions(tpl):
    """The template's counting-bound partition and some that are not
    partitions into independent sets, or not partitions at all."""
    apex = tpl.own[len(tpl.pairs):]
    parts = [list(pair) for pair in tpl.pairs] + [[u] for u in apex]
    merged = [parts[0] + parts[-1]] + parts[1:-1]
    split = [[v] for v in parts[0]] + parts[1:]
    return [parts, merged, split, parts[1:], parts + [parts[0]], [[]] + parts]


def _vectors(pp, seed):
    rng = random.Random(seed)
    proper = [tuple(rng.sample(range(1, pp.q + 1), pp.r)) for _ in range(4)]
    repeating = (1, 2) * (pp.r // 2) + (1,) * (pp.r % 2)
    return [tuple(range(1, pp.r + 1)), (1,) * pp.r, repeating] + proper


def _class_facts(tpl, pp, seed):
    """Bounds, clique tests, Hall verdicts and free colors read from the
    classes, as the compositional verifier reads them."""
    return (
        [
            construction._class_bound(tpl.part_of, parts)
            for parts in _partitions(tpl)
        ],
        [
            construction._distinct_classes(tpl.part_of, s)
            for s in (tpl.root_clique, tpl.own)
        ],
        [construction._class_hall(tpl, pp.q, vec) for vec in _vectors(pp, seed)],
    )


def _pairwise_adjacent(nbrs, vertices) -> bool:
    """Whether `vertices` are pairwise adjacent in the neighbour sets
    `nbrs`; a repeated vertex fails, being no neighbour of itself."""
    return all(b in nbrs[a] for a, b in itertools.combinations(vertices, 2))


def _hall_blocked(nbrs, lists, pinned: dict, clique) -> tuple[bool, set[int]]:
    """The Hall test for one root coloring, on edges: with `pinned`
    colored as it maps, each member of `clique` keeps the colors of its
    list that no pinned neighbour has.  Shut out when `clique` is a
    clique of the neighbour sets `nbrs` keeping fewer colors than
    members; returns that verdict and the colors kept."""
    free = set()
    for s in clique:
        taken = {pinned[v] for v in nbrs[s] if v in pinned}
        free.update(x for x in lists[s] if x not in taken)
    return _pairwise_adjacent(nbrs, clique) and len(free) < len(clique), free


def _edge_facts(tpl, graph, pp, seed):
    """The same facts from `graph`'s edges and neighbour sets, by the
    edge-level oracles above."""
    nbrs = adjacency_sets(graph)
    return (
        [counting_bound(graph, parts) for parts in _partitions(tpl)],
        [_pairwise_adjacent(nbrs, s) for s in (tpl.root_clique, tpl.own)],
        [
            _hall_blocked(
                nbrs,
                gadget_lists(pp, vec).lists,
                dict(zip(tpl.root_clique, vec)),
                tpl.own,
            )
            for vec in _vectors(pp, seed)
        ],
    )


def _multipartite(part_of):
    """The complete multipartite graph whose classes are `part_of`."""
    pairs = itertools.combinations(range(len(part_of)), 2)
    edges = [(u, v) for u, v in pairs if part_of[u] != part_of[v]]
    return Graph.from_edges(len(part_of), edges)


def _gadget(pp):
    """The row's gadget as the paper lays it out: K_{r x 2}, or
    K_{1, r x 2} in case c, pair i being (2i, 2i+1)."""
    return complete_multipartite([2] * pp.r + [1] * (pp.gadget_kind == "K_{1,rx2}"))


def test_class_level_checks_equal_the_edge_level_ones():
    rng = random.Random(21)
    for case, t in itertools.product("abc", range(1, 13)):
        pp = params_for(case, t)
        tpl = gadget_template(pp)
        gadget = _gadget(pp)
        assert _multipartite(tpl.part_of).edges == gadget.edges
        edges = _edge_facts(tpl, gadget, pp, seed=t)
        assert _class_facts(tpl, pp, seed=t) == edges, (case, t)
        for vec in _vectors(pp, seed=t):
            if construction.vector_is_proper(vec):
                detail = gadget_blocked_detail(pp, vec)
                blocked, free = construction._class_hall(tpl, pp.q, vec)
                assert detail["blocked"] == blocked
                assert detail["free_colors"] == sorted(free)
        # other class maps, the roots kept in distinct classes and every
        # other vertex put in a random one, agree with their own graphs
        for _ in range(3):
            part_of = list(tpl.part_of)
            for s in tpl.own:
                part_of[s] = rng.randrange(pp.r + 1)
            other = tpl._replace(part_of=tuple(part_of))
            assert _class_facts(other, pp, seed=t) == _edge_facts(
                other, _multipartite(part_of), pp, seed=t
            ), (case, t, part_of)
        # a class map that is wrong about one vertex is caught: the apex
        # (case c), or else the last w_i, put in pair 0's class
        last = len(tpl.part_of) - 1
        wrong = tpl._replace(part_of=tpl.part_of[:last] + (0,))
        assert _class_facts(wrong, pp, seed=t) != edges, (case, t)


def test_gadget_lists_formula():
    pp = params_for("c", 1)
    la = gadget_lists(pp, (1,))
    tpl = gadget_template(pp)
    v1, w1 = tpl.pairs[0]
    assert la.lists[v1] == (1,)
    assert la.lists[w1] == (2,)
    assert la.lists[tpl.own[-1]] == (1,)  # the apex

    pp = params_for("b", 1)
    la = gadget_lists(pp, (1, 2))
    tpl = gadget_template(pp)
    assert la.lists[tpl.pairs[0][1]] == (2, 3)
    assert la.lists[tpl.pairs[1][1]] == (1, 3)
    for v, _ in tpl.pairs:
        assert la.lists[v] == (1, 2)

    pp = params_for("a", 1)
    la = gadget_lists(pp, (4, 4, 4))
    tpl = gadget_template(pp)
    for _, w in tpl.pairs:
        assert la.lists[w] == (1, 2, 3, 5)
    for v, _ in tpl.pairs:
        assert la.lists[v] == (1, 2, 3, 4)
    assert la.palette_size == 5


def test_gadget_lists_rejects_bad_vectors():
    pp = params_for("b", 1)
    with pytest.raises(InvalidArgumentError):
        gadget_lists(pp, (1,))
    with pytest.raises(InvalidArgumentError):
        gadget_lists(pp, (1, 3))


def test_gadget_blocked_examples():
    for case, vec in [("c", (1,)), ("b", (1, 2)), ("b", (1, 1)), ("a", (1, 2, 3))]:
        assert gadget_blocked_detail(params_for(case, 1), vec)["blocked"]


def test_gadget_blocked_detail_statuses():
    proper = gadget_blocked_detail(params_for("b", 1), (2, 1))
    assert proper["status"] == "blocked" and proper["blocked"]
    # w_1, w_2 (ids 1, 3) may only use color 3, and they are adjacent
    assert proper["clique"] == [1, 3] and proper["free_colors"] == [3]
    improper = gadget_blocked_detail(params_for("b", 1), (2, 2))
    assert improper["status"] == "improper-root" and improper["blocked"]
    assert "clique" not in improper and "free_colors" not in improper


def test_gadget_open_to_other_root_colorings():
    # the copy built for vector c only shuts out c itself; any other
    # proper root coloring extends
    pp = params_for("a", 1)
    tpl = gadget_template(pp)
    la = gadget_lists(pp, (1, 2, 3))
    other = {v: ci for (v, _), ci in zip(tpl.pairs, (2, 1, 3))}
    assert l_colorable(_gadget(pp), la, precoloring=other).colorable


def solver_blocks(pp, vec, timeout=None) -> bool:
    """The solver's own verdict on the gadget copy for vec, roots pinned."""
    tpl = gadget_template(pp)
    pin = {v: ci for (v, _), ci in zip(tpl.pairs, vec)}
    la = gadget_lists(pp, vec)
    return not l_colorable(_gadget(pp), la, precoloring=pin, timeout=timeout).colorable


def test_every_vector_blocked_at_t1():
    # deciding every vector separately must give the orbit certificate's
    # statuses, with as many vectors per status as its class sizes, and
    # the solver must find no completion of any proper vector's copy
    for case, t in [("a", 1), ("b", 1), ("c", 1), ("b", 2), ("c", 2)]:
        pp = params_for(case, t)
        vectors = list(itertools.product(range(1, pp.q + 1), repeat=pp.r))
        statuses = collections.Counter(
            gadget_blocked_detail(pp, vec)["status"] for vec in vectors
        )
        for vec in vectors:
            if len(set(vec)) == pp.r:
                assert solver_blocks(pp, vec), (case, t, vec)
        cert = verify_not_colorable(pp, mode="compositional")
        assert statuses == {e["status"]: e["size"] for e in cert["classes"]}
        assert all(e["blocked"] for e in cert["classes"])
        assert cert["covered"] == len(vectors), (case, t)


def test_pattern_classes_small_examples():
    # (case, t) -> [(representative, size)]: the repetition-free orbit,
    # then the vectors repeating a color (none when r = 1)
    table = {
        ("b", 1): [((1, 2), 2), ((1, 1), 2)],
        ("a", 1): [((1, 2, 3), 24), ((1, 1, 1), 40)],
        ("a", 2): [((1, 2, 3, 4, 5), 6720), ((1, 1, 1, 1, 1), 26048)],
        ("c", 1): [((1,), 1)],
    }
    for (case, t), want in table.items():
        pp = params_for(case, t)
        got = color_pattern_classes(pp)
        assert got == want, (case, t)
        assert sum(size for _, size in got) == pp.q**pp.r


def test_pattern_classes_drop_unrealizable_partitions():
    # r=3 positions but only q=2 colors: no vector is repetition-free,
    # so that class covers nothing and must be absent
    pp = ConstructionParams("x", 1, 0, 2, 3, "K_{rx2}")
    cls = color_pattern_classes(pp)
    assert all(len(set(rep)) <= 2 for rep, _ in cls)
    assert all(size > 0 for _, size in cls)
    assert cls == [((1, 1, 1), 8)]
    assert sum(size for _, size in cls) == 2**3


def test_pattern_classes_cover_everything():
    for case, t in [("a", 1), ("b", 2), ("c", 2), ("a", 2)]:
        pp = params_for(case, t)
        total = sum(size for _, size in color_pattern_classes(pp))
        assert total == pp.q**pp.r


def test_pattern_class_count_t2_case_a():
    # q=8, r=5: one orbit of 8!/3! repetition-free vectors, the rest
    # repeat a color
    cls = color_pattern_classes(params_for("a", 2))
    assert len(cls) == 2
    assert [size for _, size in cls] == [6720, 32768 - 6720]
    assert sum(size for _, size in cls) == 32768


def test_build_counts_match_stats():
    for case, n, m in [("c", 3, 2), ("b", 10, 13), ("a", 195, 579)]:
        pp = params_for(case, 1)
        st = build_stats(pp)
        g, la = build(pp)
        assert (g.n, g.m) == (n, m) == (st.n_vertices, st.n_edges)
        assert la.n == g.n


def test_stats_only_large_instances():
    expect = {"a": (163845, 983050), "b": (5188, 23334), "c": (503, 1878)}
    for case, (n, m) in expect.items():
        st = build_stats(params_for(case, 2))
        assert (st.n_vertices, st.n_edges) == (n, m)
        assert st.n_gadgets == st.params.q ** st.params.r


def test_manifest_fields():
    man = build_stats(params_for("b", 1)).manifest("full")
    assert man == {
        "case": "b",
        "t": 1,
        "p": 4,
        "q": 2,
        "r": 2,
        "n_vertices": 10,
        "n_edges": 13,
        "n_gadgets": 4,
        "mode": "full",
    }


def test_build_layout_and_lists():
    pp = params_for("b", 1)
    g, la = build(pp)
    edges = set(g.edges)
    q, r = pp.q, pp.r
    assert edges.issuperset(itertools.combinations(range(r), 2))
    for v in range(r):
        assert la.lists[v] == tuple(range(1, q + 1))
    for k, vec in enumerate(itertools.product(range(1, q + 1), repeat=r)):
        base = r + k * (q + 2 - r)
        for i, ci in enumerate(vec):
            w = base + i
            expected = tuple(x for x in range(1, q + 2) if x != ci)
            assert la.lists[w] == expected
            # w_i sees every root but its own partner
            for j in range(r):
                assert ((j, w) in edges) == (j != i)


@pytest.mark.parametrize("case,t", [("a", 1), ("b", 1), ("c", 1), ("c", 2)])
def test_build_lists_are_the_gadget_lists_of_each_vector(case, t):
    # copy k's rows are its vector's gadget lists on `own`, in `own`'s
    # order, and every vertex with a given list holds the one tuple of it
    pp = params_for(case, t)
    tpl = gadget_template(pp)
    _, la = build(pp)
    q, r, size = pp.q, pp.r, len(tpl.own)
    assert la.palette_size == q + 1
    vectors = list(itertools.product(range(1, q + 1), repeat=r))
    assert la.n == r + len(vectors) * size
    for k, vec in enumerate(vectors):
        want = gadget_lists(pp, vec).lists
        if k == 0:
            assert la.lists[:r] == tuple(want[v] for v in tpl.root_clique)
        lo = r + k * size
        assert la.lists[lo : lo + size] == tuple(want[u] for u in tpl.own)
    assert len(set(map(id, la.lists))) == len(set(la.lists)) == q + 1


def test_build_case_c_extra_vertex():
    pp = params_for("c", 2)  # r=3, q=5, 125 copies of a 7-vertex gadget
    g, la = build(pp)
    edges = set(g.edges)
    q, r = pp.q, pp.r
    for k in range(3):
        base = r + k * (q + 2 - r)
        u = base + r
        assert la.lists[u] == tuple(range(1, q + 1))
        for j in range(r):
            assert (j, u) in edges
        for i in range(r):
            assert (base + i, u) in edges


def test_build_equals_folded_pasting():
    # the id layout is exactly what pasting copies onto the root clique
    # in vector order produces
    for case in "abc":
        pp = params_for(case, 1)
        tpl = gadget_template(pp)
        r = pp.r
        folded = Graph.from_edges(
            r, [(i, j) for i in range(r) for j in range(i + 1, r)]
        )
        roots = tuple(range(r))
        for _ in range(pp.q**pp.r):
            folded = paste(folded, roots, _gadget(pp), tpl.root_clique)
        g, _ = build(pp)
        assert (folded.n, folded.edges) == (g.n, g.edges)


@pytest.mark.parametrize("case,t", [("a", 1), ("b", 1), ("c", 1), ("c", 2), ("b", 2)])
def test_build_edges_are_canonical(case, t):
    # build makes its Graph without from_edges, so nothing else sorts or
    # normalizes its edges
    g, _ = build(params_for(case, t))
    assert all(u < v for u, v in g.edges)
    assert g.edges == Graph.from_edges(g.n, g.edges).edges


def test_build_respects_vertex_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        build(params_for("a", 2))
    monkeypatch.setattr(graphs, "VERTEX_CAP", 5)
    with pytest.raises(ResourceLimitError) as err:
        build(params_for("b", 1))
    assert "full build needs 10 vertices, cap is 5; use stats-only" in str(err.value)


def test_all_lists_have_size_q():
    for case in "abc":
        pp = params_for(case, 1)
        _, la = build(pp)
        assert all(len(row) == pp.q for row in la.lists)


def test_verify_minor_free_certificates():
    cert = verify_minor_free(params_for("b", 1))
    assert cert["kind"] == "compositional-pasting"
    assert cert["children"][0]["target"] == 4
    assert cert["children"][0]["n"] == 4
    assert cert["n_gadgets"] == 4

    cert = verify_minor_free(params_for("a", 1))
    assert cert["children"][0]["n"] == 6  # octahedron gadget
    assert cert["children"][0]["target"] == 5

    # one pasting certificate for both modes, and no whole-graph search
    pastings = [
        verify_construction(params_for("b", 1), mode=mode)["children"][0]
        for mode in ("direct", "compositional")
    ]
    assert pastings[0] == pastings[1] == verify_minor_free(params_for("b", 1))
    assert all("direct_agreement" not in pasting for pasting in pastings)


@pytest.mark.parametrize("case", "abc")
def test_counting_bound_lands_one_below_p(case):
    for t in range(1, 13):
        pp = params_for(case, t)
        child = verify_minor_free(pp)["children"][0]
        assert child["kind"] == "counting-bound"
        assert counting_bound(_gadget(pp), child["partition"]) == pp.p - 1
        assert check_certificate(child).ok


# every row with t <= 3 whose gadget has at most 12 vertices (a3's
# 14-vertex search takes seconds)
CROSS_CHECK_ROWS = ["a1", "a2", "b1", "b2", "b3", "c1", "c2", "c3"]


@pytest.mark.parametrize("row", CROSS_CHECK_ROWS)
def test_exhaustive_search_agrees_with_counting_bound(row):
    pp = params_for(row[0], int(row[1:]))
    child = verify_minor_free(pp)["children"][0]
    assert child["kind"] == "counting-bound" and child["target"] == pp.p
    g = _gadget(pp)
    assert g.n <= 12
    assert not has_clique_minor(g, pp.p).contains
    assert has_clique_minor(g, pp.p - 1).contains  # the bound is tight


def test_gadget_solver_honours_timeout():
    pp = params_for("b", 5)  # the (1,...,r) solve takes several seconds
    with pytest.raises(SearchTimeout):
        solver_blocks(pp, range(1, pp.r + 1), timeout=0.2)


def test_compositional_verify_and_check_run_no_solver():
    # construction.py reaches no solver at all, which
    # test_no_second_derivation checks on its source
    for case, t in [("a", 2), ("b", 3), ("c", 3), ("a", 5), ("b", 5), ("c", 5)]:
        bundle = verify_construction(params_for(case, t), mode="compositional")
        res = check_certificate(json.loads(json.dumps(bundle)))
        assert res.ok, (case, t, res.reason)


def test_verify_and_check_build_one_template():
    # the template is cached per row: a verify and the replay of its
    # certificate lay the row's gadget out once, in either mode, and
    # `build` reads the same template
    for case, t, mode in [("a", 2, "compositional"), ("a", 1, "direct")]:
        gadget_template.cache_clear()
        bundle = verify_construction(params_for(case, t), mode=mode)
        assert check_certificate(json.loads(json.dumps(bundle))).ok
        assert gadget_template.cache_info().misses == 1, (case, t, mode)


def test_template_cache_holds_one_row_and_stays_unchanged():
    gadget_template.cache_clear()
    for case in "ab":
        bundle = verify_construction(params_for(case, 2), mode="compositional")
        assert check_certificate(json.loads(json.dumps(bundle))).ok
    info = gadget_template.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    gadget_template(params_for("b", 2))
    assert gadget_template.cache_info().hits == info.hits + 1


def test_compositional_verify_and_check_lay_out_no_edges(monkeypatch):
    # the class-level checks stand alone: with every edge-level helper
    # the construction could reach made to raise, compositional verify
    # and check still pass on the largest rows of the table, and so does
    # the check of the gadget's counting-bound child given alone
    def refuse(*args, **kwargs):
        raise AssertionError("an edge-level helper was called")

    for name in ("neighbour_lists", "counting_bound"):
        for module in (construction, graphs, minors, certificates):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for row in ("a100", "b100", "c100", "a600"):
        gadget_template.cache_clear()
        pp = params_for(row[0], int(row[1:]))
        bundle = json.loads(json.dumps(verify_construction(pp)))
        res = check_certificate(bundle)
        assert res.ok, (row, res.reason)
        child = bundle["children"][0]["children"][0]
        assert child["scope"] == "gadget-template"
        gadget_template.cache_clear()
        res = check_certificate(child)
        assert res.ok, (row, res.reason)


def test_direct_verify_builds_the_graph_neighbour_lists_once(monkeypatch):
    # the Hall test and the degeneracy order share one list per vertex,
    # in a verify, in its replay and in the replay of its
    # non-colorability child given alone
    builds, sizes = [], []
    real = construction.build

    def counted_build(params):
        builds.append(params)
        return real(params)

    def counted(g):
        sizes.append(g.n)
        return neighbour_lists(g)

    monkeypatch.setattr(construction, "build", counted_build)
    monkeypatch.setattr(graphs, "neighbour_lists", counted)
    pp = params_for("a", 1)
    n = build_stats(pp).n_vertices
    bundle = verify_construction(pp, mode="direct")
    assert builds == [pp] and sizes == [n]
    for doc in (bundle, bundle["children"][1]):
        builds.clear()
        sizes.clear()
        res = check_certificate(json.loads(json.dumps(doc)))
        assert res.ok, res.reason
        assert builds == [pp] and sizes == [n], doc["kind"]
    g, _ = real(pp)
    assert bundle["degeneracy"]["degeneracy"] == graphs.degeneracy(g).degeneracy


def test_obstruction_blocks_every_row_up_to_t100():
    # the pairwise adjacent w_i (plus the apex in case c) keep q+1-r
    # colors, one fewer than there are of them.  t <= 100 covers every
    # p <= 300, and each row verifies and replays.
    for case in "abc":
        for t in range(1, 101):
            pp = params_for(case, t)
            entry = gadget_blocked_detail(pp, range(1, pp.r + 1))
            size = pp.r + (case == "c")
            assert entry["status"] == "blocked" and entry["blocked"], (case, t)
            assert len(entry["clique"]) == size, (case, t)
            assert len(entry["free_colors"]) == pp.q + 1 - pp.r == size - 1, (case, t)
            bundle = verify_construction(pp, mode="compositional")
            res = check_certificate(json.loads(json.dumps(bundle)))
            assert res.ok, (case, t, res.reason)


def test_verify_minor_free_rejects_rows_the_bound_does_not_settle():
    bogus = ConstructionParams("b", 1, 3, 2, 2, "K_{rx2}")  # C_4 has a K_3 minor
    with pytest.raises(InvalidArgumentError, match="counting bound 3"):
        verify_minor_free(bogus)
    # the row is rightly refused: its gadget does contain the minor
    g = _multipartite(gadget_template(bogus).part_of)
    ans = has_clique_minor(g, bogus.p)
    assert ans.contains and check_witness(g, ans.witness)


def test_verify_not_colorable_direct():
    pp = params_for("b", 1)
    cert = verify_not_colorable(pp, mode="direct")
    assert cert["mode"] == "direct" and cert["n"] == 10
    assert cert["blocked_copies"] == 2 and cert["total_vectors"] == 4


def test_verify_not_colorable_compositional_modes_agree():
    pp = params_for("a", 1)
    comp = verify_not_colorable(pp, mode="compositional")
    direct = verify_not_colorable(pp, mode="direct")
    assert comp["covered"] == direct["total_vectors"] == 64
    statuses = [e["status"] for e in comp["classes"]]
    assert statuses == ["blocked", "improper-root"]


def test_verify_not_colorable_direct_refutes_generous_lists():
    # same graph, one extra color everywhere: the graph is colorable, so
    # no copy may pass the Hall test
    pp = params_for("b", 1)
    g, _ = build(pp)
    generous = ListAssignment.from_lists(3, [range(1, 4)] * g.n)
    assert l_colorable(g, generous).colorable
    with pytest.raises(ConstructionRefuted):
        construction._check_built(pp, g, generous)


def test_direct_refutes_lists_and_graph_of_different_sizes():
    # one list short or one over: not the roots' fault, so both counts
    # are named
    pp = params_for("b", 1)
    g, la = build(pp)
    for lists, n in ((la.lists[:-1], 9), (la.lists + la.lists[-1:], 11)):
        with pytest.raises(
            ConstructionRefuted, match=rf"^{n} lists for the 10 vertices of the graph$"
        ):
            construction._check_built(pp, g, ListAssignment(la.palette_size, lists))


def _copy_of(pp, vec) -> range:
    """The ids `build` gives the copy for vector vec: r + k*len(own) on,
    k being vec's place in the lexicographic order of [1,q]^r."""
    size = len(gadget_template(pp).own)
    k = list(itertools.product(range(1, pp.q + 1), repeat=pp.r)).index(vec)
    return range(pp.r + k * size, pp.r + (k + 1) * size)


def _with_lists(la, changes):
    rows = [list(row) for row in la.lists]
    for v, row in changes.items():
        rows[v] = row
    return ListAssignment.from_lists(la.palette_size, rows)


def test_direct_refutes_a_copy_missing_an_edge():
    pp = params_for("b", 1)
    g, la = build(pp)
    w1, w2 = _copy_of(pp, (1, 2))
    torn = Graph.from_edges(g.n, [e for e in g.edges if e != (w1, w2)])
    assert torn.m == g.m - 1
    assert l_colorable(torn, la).colorable  # w1 = w2 = 3 under roots (1, 2)
    with pytest.raises(ConstructionRefuted, match=r"copy 1 .*\(1, 2\)") as err:
        construction._check_built(pp, torn, la)
    assert err.value.vector == (1, 2)
    # a missing root edge leaves repeated root colors unblocked
    loose = Graph.from_edges(g.n, [e for e in g.edges if e != (0, 1)])
    with pytest.raises(ConstructionRefuted, match="not a clique"):
        construction._check_built(pp, loose, la)


def _swapped(g, old, new) -> Graph:
    """g with edge `old` replaced, in its place, by a repeat of `new`:
    the edge count stays, and the edges are no longer sorted nor
    distinct, as only a Graph built directly, skipping from_edges, can
    hold them."""
    assert old in g.edges and new in g.edges
    return Graph(g.n, tuple(new if e == old else e for e in g.edges))


def test_direct_refutes_a_missing_edge_hidden_by_a_repeat():
    # the neighbour rows of such a graph are out of order and repeat a
    # vertex; the adjacency they show can only be short, so the proof
    # fails, and only by a refutation
    pp = params_for("b", 1)
    g, la = build(pp)
    w1, w2 = _copy_of(pp, (1, 2))
    torn = _swapped(g, (w1, w2), (0, w2))
    assert torn.m == g.m and l_colorable(torn, la).colorable
    with pytest.raises(ConstructionRefuted, match=r"copy 1 .*\(1, 2\)") as err:
        construction._check_built(pp, torn, la)
    assert err.value.vector == (1, 2)
    # root 0's edge into copy 0 in place of the root edge: the proof,
    # which blocks repeated root colors by that edge, no longer holds
    loose = _swapped(g, (0, 1), (0, w1 - 1))
    assert loose.m == g.m
    with pytest.raises(ConstructionRefuted, match="not a clique"):
        construction._check_built(pp, loose, la)


def test_direct_refutes_a_root_color_outside_the_copies():
    # q+1 on a root: no copy was built for a vector holding it.  On the
    # last root, the rank's last digit, such a vector's rank can still
    # name a copy built for another vector.
    for row in ("b1", "a1", "c1"):
        pp = params_for(row[0], int(row[1:]))
        g, la = build(pp)
        wider = _with_lists(la, {pp.r - 1: range(1, pp.q + 2)})
        with pytest.raises(ConstructionRefuted, match="no gadget copy"):
            construction._check_built(pp, g, wider)


def test_direct_refutes_a_root_list_missing_a_color():
    # the copies are laid out one per vector of [1,q]^r: a root list
    # short of a color would leave the copies for it unchecked, and the
    # count of blocked copies short of q!/(q-r)!
    for row in ("b1", "a1", "c2"):
        pp = params_for(row[0], int(row[1:]))
        g, la = build(pp)
        narrower = _with_lists(la, {0: range(2, pp.q + 1)})
        want = rf"root 0 lists .*not \[1,{pp.q}\]"
        with pytest.raises(ConstructionRefuted, match=want):
            construction._check_built(pp, g, narrower)


def test_direct_refutes_a_w_list_given_back_its_color():
    for row in ("b1", "a1", "c1"):
        pp = params_for(row[0], int(row[1:]))
        g, la = build(pp)
        vec = tuple(range(1, pp.r + 1))
        w1 = _copy_of(pp, vec)[0]  # w_1 of the copy, whose list avoids 1
        assert 1 not in la.lists[w1]
        healed = _with_lists(la, {w1: range(1, pp.q + 2)})
        with pytest.raises(ConstructionRefuted, match="keeps colors") as err:
            construction._check_built(pp, g, healed)
        assert err.value.vector == vec


def test_verify_not_colorable_refutes_unblocked_gadget(monkeypatch):
    # force one vector to report completable and check it is surfaced
    import unchoosable.construction as cons

    real = cons.gadget_blocked_detail

    def fake(params, c):
        detail = real(params, c)
        if tuple(c) == (1, 2):
            detail = dict(detail, status="no-obstruction", blocked=False)
        return detail

    monkeypatch.setattr(cons, "gadget_blocked_detail", fake)
    with pytest.raises(ConstructionRefuted, match="no obstruction found") as err:
        cons.verify_not_colorable(params_for("b", 1), mode="compositional")
    assert err.value.vector == (1, 2)


def test_verify_construction_refutes_degeneracy_above_q(monkeypatch):
    # a1 plus (3, 7): vertex 3, w_0 of copy 0, gains a fifth later
    # neighbour.  Copy 1, ids 6..8, is for the improper vector (1,1,2),
    # so the Hall pass never reads vertex 7's row.
    import unchoosable.construction as cons

    real = cons.build

    def fake(params):
        g, la = real(params)
        return Graph.from_edges(g.n, g.edges + ((3, 7),)), la

    monkeypatch.setattr(cons, "build", fake)
    with pytest.raises(ConstructionRefuted, match="vertex 3 has 5 later neighbours"):
        cons.verify_construction(params_for("a", 1), mode="direct")


def _a1_with(add=(), drop=()):
    pp = params_for("a", 1)
    g, la = build(pp)
    edges = set(g.edges).union(add).difference(drop)
    return pp, Graph.from_edges(g.n, edges), la


def test_order_check_refutes_what_the_order_rules_out():
    # (0, 3) is (v_0, w_0) of copy 0: the heap still finds degeneracy
    # 4 = q, yet the graph has a K_5 minor, and vertex 3 gets a fifth
    # later neighbour in the construction's order
    pp, g, la = _a1_with(add=[(0, 3)])
    assert graphs.degeneracy(g).degeneracy == pp.q
    assert has_clique_minor(g, pp.p).contains
    with pytest.raises(
        ConstructionRefuted, match=r"vertex 3 has 5 later neighbours, above q=4"
    ):
        construction._check_built(pp, g, la)
    # without the root edge (0, 4) of copy 0, root 0 has three
    # neighbours among the roots and copy 0, so they are no gadget
    pp, g, la = _a1_with(drop=[(0, 4)])
    with pytest.raises(
        ConstructionRefuted, match=r"vertex 0 of the roots and copy 0 has 3 neighbours"
    ):
        construction._check_built(pp, g, la)


def test_verify_not_colorable_refutes_uncovered_vectors(monkeypatch):
    # classes that miss vectors must not pass as a cover of [1,q]^r
    import unchoosable.construction as cons

    real = cons.color_pattern_classes
    monkeypatch.setattr(cons, "color_pattern_classes", lambda pp: real(pp)[:1])
    with pytest.raises(ConstructionRefuted, match="cover"):
        cons.verify_construction(params_for("a", 1), mode="compositional")


def test_order_check_is_not_fooled_by_unsorted_or_repeated_rows():
    # Graph(n, edges) keeps edges as given, so rows can come out of
    # order or repeat a vertex.  Vertex 5 of a1, w_2 of copy 0, given
    # later neighbours 100..102 in this row order: a bisect alone takes
    # [3, 100, 4] as its earlier ids and counts 4 later neighbours; the
    # count by value takes 3 and 4 and finds the true 5.
    pp = params_for("a", 1)
    g, la = build(pp)
    mine = [(0, 5), (1, 5), (3, 5), (5, 100), (4, 5), (5, 101), (5, 102)]
    h = Graph(g.n, tuple(e for e in g.edges if 5 not in e) + tuple(mine))
    assert neighbour_lists(h)[5] == [0, 1, 3, 100, 4, 101, 102]
    with pytest.raises(ConstructionRefuted, match="vertex 5 has 5 later neighbours"):
        construction._check_built(pp, h, la)
    # root edge (0, 4) of copy 0 replaced by a repeat of (0, 5): root 0's
    # row still has four entries among the roots and copy 0, three distinct
    h = Graph(g.n, tuple(sorted([e for e in g.edges if e != (0, 4)] + [(0, 5)])))
    with pytest.raises(
        ConstructionRefuted, match=r"vertex 0 of the roots and copy 0 has 3 neighbours"
    ):
        construction._check_built(pp, h, la)


def test_order_check_values():
    # the order check accepts each row as q-degenerate, as the bundle
    # states; the heap of graphs.degeneracy must agree
    for row in ("a1", "b1", "c1", "c2", "b2"):
        pp = params_for(row[0], int(row[1:]))
        g, la = build(pp)
        assert construction._check_built(pp, g, la) == math.perm(pp.q, pp.r), row
        assert graphs.degeneracy(g).degeneracy == pp.q, row
    # (5, 6) joins the last vertex of copy 0 to the first of copy 1: each
    # keeps at most q later neighbours, so the order check refutes only
    # what the order rules out
    pp, g, la = _a1_with(add=[(5, 6)])
    assert construction._check_built(pp, g, la) == math.perm(4, 3)
    assert graphs.degeneracy(g).degeneracy == 4


def test_verify_construction_bundles():
    direct = verify_construction(params_for("b", 1), mode="direct")
    assert direct["kind"] == "construction-verified"
    assert direct["manifest"]["mode"] == "full"
    assert direct["degeneracy"]["degeneracy"] <= direct["degeneracy"]["bound"]
    kinds = [c["kind"] for c in direct["children"]]
    assert kinds == ["compositional-pasting", "non-colorability"]

    comp = verify_construction(params_for("b", 2), mode="compositional")
    assert comp["manifest"]["mode"] == "stats-only"
    assert "degeneracy" not in comp
    assert len(comp["children"][1]["classes"]) == 2


def test_lower_bound_table_row():
    rows = lower_bound_table()
    assert sorted(rows) == list(range(3, 12))
    assert [rows[p]["lower_bound"] for p in range(3, 12)] == [
        2, 3, 5, 6, 7, 9, 10, 11, 13,
    ]
    assert (rows[5]["case"], rows[5]["t"]) == ("a", 1)
    assert (rows[8]["case"], rows[8]["t"]) == ("a", 2)
    assert (rows[11]["case"], rows[11]["t"]) == ("a", 3)
    for p, row in rows.items():
        pp = params_for(row["case"], row["t"])
        assert pp.p == p and row["lower_bound"] == pp.q + 1


def test_minus_matching_drives_the_table():
    # the gadget's hadwiger number sits exactly one below p, so the
    # construction cannot be improved by a lazier gadget search
    for case, t in [("a", 1), ("b", 1), ("c", 1), ("b", 2)]:
        pp = params_for(case, t)
        assert hadwiger_number(_gadget(pp)) == pp.p - 1


def test_symmetry_soundness_sampled():
    # a random permutation of [1,q] maps (1,...,r) to a member of its
    # orbit, which must re-solve as blocked like the representative
    rng = random.Random(83)
    for _ in range(150):
        pp = params_for(rng.choice("abc"), rng.choice([1, 2]))
        rep, _ = color_pattern_classes(pp)[0]
        perm = rng.sample(range(1, pp.q + 1), pp.q)
        member = tuple(perm[x - 1] for x in rep)
        assert gadget_blocked_detail(pp, rep)["status"] == "blocked"
        assert gadget_blocked_detail(pp, member)["status"] == "blocked"
        assert solver_blocks(pp, rep) and solver_blocks(pp, member)
