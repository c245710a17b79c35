import json
import random
import sys
import time

import pytest

from unchoosable import (
    Graph,
    InvalidArgumentError,
    ListAssignment,
    PreconditionError,
    build,
    check_coloring,
    l_colorable,
    params_for,
)
from unchoosable.construction import verify_not_colorable

from conftest import oracle_list_colorable, random_graph, random_lists


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def uniform(n: int, palette: int, size: int) -> ListAssignment:
    return ListAssignment.from_lists(palette, [range(1, size + 1)] * n)


def test_list_assignment_validation():
    with pytest.raises(InvalidArgumentError):
        ListAssignment.from_lists(2, [[1, 3]])
    with pytest.raises(InvalidArgumentError):
        ListAssignment.from_lists(-1, [])
    la = ListAssignment.from_lists(3, [[3, 1, 1]])
    assert la.lists == ((1, 3),)


def test_list_assignment_json_roundtrip():
    la = ListAssignment.from_lists(4, [[1, 2], [3], [2, 4]])
    doc = la.to_json_dict()
    text = json.dumps(doc)
    assert ListAssignment.from_json_dict(json.loads(text)) == la
    assert doc["lists"]["1"] == [3]


def test_list_assignment_json_rejects_bad_keys():
    with pytest.raises(InvalidArgumentError):
        ListAssignment.from_json_dict({"palette_size": 2, "lists": {"5": [1]}})
    with pytest.raises(InvalidArgumentError):
        ListAssignment.from_json_dict({"lists": {}})


def test_check_coloring():
    g = cycle(4)
    la = uniform(4, 2, 2)
    assert check_coloring(g, la, [1, 2, 1, 2])
    assert not check_coloring(g, la, [1, 1, 2, 2])  # improper
    assert not check_coloring(g, la, [1, 2, 1, 3])  # off-list
    with pytest.raises(InvalidArgumentError):
        check_coloring(g, la, [1, 2, 1])


def test_even_cycle_two_colorable_odd_not():
    la4 = uniform(4, 2, 2)
    res = l_colorable(cycle(4), la4)
    assert res.colorable and check_coloring(cycle(4), la4, res.coloring)
    la5 = uniform(5, 2, 2)
    assert not l_colorable(cycle(5), la5).colorable


def test_forced_chain_has_unique_solution():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    la = ListAssignment.from_lists(2, [[1], [1, 2], [1]])
    res = l_colorable(g, la)
    assert res.colorable and res.coloring == (1, 2, 1)
    # flipping the middle list to a dead end makes it uncolorable
    dead = ListAssignment.from_lists(2, [[1], [1], [1]])
    assert not l_colorable(g, dead).colorable


def test_empty_list_means_uncolorable():
    g = Graph.from_edges(2, [(0, 1)])
    la = ListAssignment.from_lists(2, [[1, 2], []])
    assert not l_colorable(g, la).colorable


def test_empty_graph_is_colorable():
    g = Graph.from_edges(0, [])
    la = ListAssignment.from_lists(1, [])
    res = l_colorable(g, la)
    assert res.colorable and res.coloring == ()


def test_precoloring_pins_and_validates():
    g = cycle(4)
    la = uniform(4, 3, 3)
    res = l_colorable(g, la, precoloring={0: 2, 2: 3})
    assert res.colorable
    assert res.coloring[0] == 2 and res.coloring[2] == 3
    with pytest.raises(PreconditionError):
        l_colorable(g, ListAssignment.from_lists(3, [[1, 2]] * 4), {0: 3})
    with pytest.raises(InvalidArgumentError):
        l_colorable(g, la, {9: 1})


def test_conflicting_precoloring_is_uncolorable_not_an_error():
    g = Graph.from_edges(2, [(0, 1)])
    la = uniform(2, 2, 2)
    assert not l_colorable(g, la, {0: 1, 1: 1}).colorable


def test_component_failure_rewinds_sibling_domains():
    # vertex 0 bridges an edge component and a triangle component.
    # Under 0=1 the edge component is solved first (shrinking vertex 2's
    # domain), then the triangle fails, so everything must rewind before
    # retrying 0=2.  Undo that forgets the succeeded sibling would leave
    # vertex 2 pinned to 1 and wrongly report the retry uncolorable.
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)]
    g = Graph.from_edges(6, edges)
    lists = [[1, 2], [1, 2], [1, 2], [1, 2], [2, 3], [2, 3]]
    la = ListAssignment.from_lists(3, lists)
    res = l_colorable(g, la)
    assert res.colorable
    assert check_coloring(g, la, res.coloring)
    assert res.coloring[:4] == (2, 1, 2, 1)


def test_mismatched_sizes_rejected():
    g = cycle(4)
    with pytest.raises(InvalidArgumentError):
        l_colorable(g, uniform(3, 2, 2))


def test_solver_matches_product_oracle():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        palette = rng.randint(1, 4)
        lists = random_lists(rng, n, palette, min(3, palette))
        la = ListAssignment.from_lists(palette, lists)
        want = oracle_list_colorable(g, lists)
        res = l_colorable(g, la)
        assert res.colorable == want
        if res.colorable:
            assert check_coloring(g, la, res.coloring)


# The solver's search tree is part of what a direct-mode certificate
# records (its backtrack count), so these figures are pinned: a faster
# solver must make the same choices in the same order.
DIRECT_CERTIFICATES = {
    ("b", 1): {"q": 2, "r": 2, "n": 10, "palette_size": 3, "backtracks": 6},
    ("c", 1): {"q": 1, "r": 1, "n": 3, "palette_size": 2, "backtracks": 1},
    ("a", 1): {"q": 4, "r": 3, "n": 195, "palette_size": 5, "backtracks": 136},
    ("c", 2): {"q": 5, "r": 3, "n": 503, "palette_size": 6, "backtracks": 685},
}


@pytest.mark.parametrize("case,t", list(DIRECT_CERTIFICATES))
def test_direct_search_tree_is_pinned(case, t):
    pp = params_for(case, t)
    g, la = build(pp)
    want = DIRECT_CERTIFICATES[case, t]
    res = l_colorable(g, la)
    assert not res.colorable and res.backtracks == want["backtracks"]
    cert = verify_not_colorable(pp, mode="direct", built=(g, la))
    assert json.dumps(cert) == json.dumps(
        {
            "kind": "non-colorability",
            "case": case,
            "t": t,
            "q": want["q"],
            "r": want["r"],
            "mode": "direct",
            "n": want["n"],
            "palette_size": want["palette_size"],
            "backtracks": want["backtracks"],
            "total_vectors": want["q"] ** want["r"],
        }
    )


def test_solver_with_precoloring_matches_product_oracle():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        palette = rng.randint(1, 4)
        lists = random_lists(rng, n, palette, palette)
        pins = {v: rng.choice(lists[v]) for v in range(n) if rng.random() < 0.25}
        pinned = [[pins[v]] if v in pins else lists[v] for v in range(n)]
        la = ListAssignment.from_lists(palette, lists)
        res = l_colorable(g, la, precoloring=pins)
        assert res.colorable == oracle_list_colorable(g, pinned)
        if res.colorable:
            assert check_coloring(g, la, res.coloring)
            assert all(res.coloring[v] == c for v, c in pins.items())


def test_odd_cycle_refuted_in_milliseconds():
    g, la = cycle(99), uniform(99, 2, 2)
    g.adj  # noqa: B018 - build the masks outside the timed runs
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        res = l_colorable(g, la)
        times.append(time.perf_counter() - t0)
    assert not res.colorable
    assert min(times) < 0.005, times
    assert res.backtracks == 196


def test_long_path_needs_no_recursion():
    n = 20_000
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    la = uniform(n, 2, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        res = l_colorable(g, la)
    finally:
        sys.setrecursionlimit(limit)
    assert res.colorable and check_coloring(g, la, res.coloring)
    assert res.coloring[:4] == (1, 2, 1, 2) and res.backtracks == 0


def test_vertex_choice_does_not_scan_the_component():
    # with three colors per vertex no domain is ever down to one color
    # ahead of the search, so a choice that scanned the uncolored
    # component for the smallest domain would make this path cubic
    n = 20_000
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    la = uniform(n, 3, 3)
    t0 = time.perf_counter()
    res = l_colorable(g, la)
    assert time.perf_counter() - t0 < 3.0
    assert res.colorable and check_coloring(g, la, res.coloring)


def test_search_tree_on_sparse_random_graphs_is_pinned():
    # totals over 200 sparse graphs of 10-40 vertices, as the recursive
    # solver this one replaced counted them
    rng = random.Random(67)
    backtracks = colorable = 0
    for _ in range(200):
        n = rng.randint(10, 40)
        g = random_graph(rng, n, 3.0 / n)
        la = ListAssignment.from_lists(4, random_lists(rng, n, 4, 3))
        res = l_colorable(g, la)
        backtracks += res.backtracks
        if res.colorable:
            colorable += 1
            assert check_coloring(g, la, res.coloring)
    assert (backtracks, colorable) == (548, 47)


def test_cut_vertex_splits_the_rest():
    # the leaf 2 is pinned to 1, so the centre takes 2 and its other
    # leaves become four independent parts, each solved once
    g = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    lists = [[1, 2], [1, 2], [1], [1, 2], [1, 2], [1, 2]]
    res = l_colorable(g, ListAssignment.from_lists(2, lists))
    assert res.colorable and res.coloring == (2, 1, 1, 1, 1, 1)
    assert res.backtracks == 0
    lists[5] = [2]  # the centre's one color: it fails, then leaf 2 does
    res = l_colorable(g, ListAssignment.from_lists(2, lists))
    assert not res.colorable and res.backtracks == 2
