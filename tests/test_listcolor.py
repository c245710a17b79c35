import json
import random

import pytest

from unchoosable import (
    Graph,
    InvalidArgumentError,
    ListAssignment,
    PreconditionError,
    check_coloring,
    l_colorable,
)

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
