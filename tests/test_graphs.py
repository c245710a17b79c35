import random
import tracemalloc

import networkx as nx
import pytest

from unchoosable import (
    Graph,
    InvalidArgumentError,
    ListAssignment,
    PreconditionError,
    build,
    check_witness,
    degeneracy,
    has_clique_minor,
    l_colorable,
    params_for,
    paste,
    write_graph6,
)

from unchoosable.graphs import (
    adjacency_masks,
    components,
    neighbour_lists,
    reaches_all,
    union_over,
)

from conftest import (
    adjacency_sets,
    complete_multipartite,
    oracle_degeneracy,
    random_graph,
)


def test_from_edges_normalizes_and_dedupes():
    g = Graph.from_edges(4, [(1, 0), (0, 1), (2, 3), (3, 2)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.m == 2


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(-1, [])


def test_adjacency_and_degrees():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    nbrs = neighbour_lists(g)
    assert [len(row) for row in nbrs] == [3, 1, 1, 1]
    assert nbrs[0] == [1, 2, 3]
    assert 2 in nbrs[0] and 2 not in nbrs[1]
    assert adjacency_masks(g) == [0b1110, 0b1, 0b1, 0b1]


# every row whose direct build fits under the vertex cap
BUILDABLE = ("a1", "b1", "c1", "c2", "b2")


def test_neighbour_lists_are_the_sorted_neighbour_sets():
    # one pass over the sorted edges leaves each row strictly ascending,
    # so direct verify may read a row's prefix as its low neighbours
    rng = random.Random(1201)
    graphs = [
        random_graph(rng, rng.randint(0, 40), rng.choice([0.05, 0.2, 0.5, 0.9]))
        for _ in range(150)
    ]
    graphs += [build(params_for(row[0], int(row[1:])))[0] for row in BUILDABLE]
    for g in graphs:
        rows = neighbour_lists(g)
        assert len(rows) == g.n
        for row, want in zip(rows, adjacency_sets(g)):
            assert all(a < b for a, b in zip(row, row[1:])), row
            assert row == sorted(want)


def test_neighbour_lists_take_under_a_third_of_set_rows():
    # traced bytes, not time: on b2's graph (5188 vertices, 23334
    # edges) the lists peak at about 0.8 MB, one set per vertex at 4.2 MB
    g, _ = build(params_for("b", 2))

    def peak(make) -> int:
        tracemalloc.start()
        try:
            rows = make(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lists, sets = peak(neighbour_lists), peak(adjacency_sets)
    assert 3 * lists <= sets, (lists, sets)


def test_graph_holds_only_its_two_fields():
    # the kernels build their adjacency masks per call and cache nothing
    # on the graph, which has no room for it
    assert Graph._fields == ("n", "edges")
    g = complete_multipartite([2, 2, 2])
    ans = has_clique_minor(g, 4)
    assert ans.contains and check_witness(g, ans.witness)
    assert not l_colorable(g, ListAssignment.from_lists(2, [[1, 2]] * 6)).colorable
    assert degeneracy(g).degeneracy == 4
    assert write_graph6(g)
    assert not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.n = 7


def test_complete_multipartite_octahedron():
    g = complete_multipartite([2, 2, 2])
    assert g.n == 6 and g.m == 12
    # classes are consecutive id pairs, non-adjacent inside
    for a in (0, 2, 4):
        assert (a, a + 1) not in g.edges


def test_complete_multipartite_rejects_empty_part():
    with pytest.raises(InvalidArgumentError):
        complete_multipartite([2, 0, 2])


def test_k_r_times_2_matching_labels():
    # K_{3x2}: the matched pair of class i is (2i, 2i+1)
    g = complete_multipartite([2] * 3)
    assert g.n == 6 and g.m == 12
    pairs = ((0, 1), (2, 3), (4, 5))
    assert set(pairs).isdisjoint(g.edges)
    assert {(0, 2), (0, 4), (2, 4)} <= set(g.edges)  # the v_i are a clique
    assert {(1, 3), (1, 5), (3, 5)} <= set(g.edges)  # so are the w_i


def test_k_1_r_times_2_extra_vertex_dominates():
    # K_{1,2x2}: the apex, vertex 4, meets every other vertex
    g = complete_multipartite([2] * 2 + [1])
    assert g.n == 5 and g.m == 8
    assert neighbour_lists(g)[4] == [0, 1, 2, 3]
    assert {(0, 1), (2, 3)}.isdisjoint(g.edges)


def test_k_r_times_2_r1_is_empty_pair():
    g = complete_multipartite([2])
    assert g.n == 2 and g.m == 0


def test_paste_positional_identification():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    g = paste(tri, (0, 1), tri, (2, 0))
    # second triangle keeps vertex 1, its 2 and 0 become 0 and 1
    assert g.n == 4
    assert {(0, 3), (1, 3)} <= set(g.edges)
    assert g.m == 5


def test_paste_example_counts():
    # triangles land entirely on the clique; the second octahedron adds
    # its three non-root vertices and nine fresh edges
    oct_ = complete_multipartite([2] * 3)
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    g = paste(oct_, (0, 2, 4), tri, (0, 1, 2))
    assert (g.n, g.m) == (6, 12)
    g = paste(g, (0, 2, 4), oct_, (0, 2, 4))
    g = paste(g, (0, 2, 4), tri, (0, 1, 2))
    assert (g.n, g.m) == (9, 21)


def test_paste_requires_cliques():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(PreconditionError, match="first graph"):
        paste(path, (0, 2), tri, (0, 1))
    with pytest.raises(PreconditionError, match="second graph"):
        paste(tri, (0, 1), path, (0, 2))


def test_is_clique():
    # paste is where cliques are tested: a triangle with a pendant vertex
    # pastes its cliques on either side, in any order, and a set with a
    # non-edge it refuses
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    k4 = complete_multipartite([1] * 4)
    for clique in [(0, 1, 2), (2, 1, 0), (3,), (), (3, 2)]:
        k = len(clique)
        other = tuple(range(k))
        for h in (paste(g, clique, k4, other), paste(k4, other, g, clique)):
            assert (h.n, h.m) == (8 - k, 10 - k * (k - 1) // 2), clique
    for bad in [(0, 1, 3), (1, 3), (3, 0, 2)]:
        other = tuple(range(len(bad)))
        with pytest.raises(PreconditionError, match="not a clique in the first"):
            paste(g, bad, k4, other)
        with pytest.raises(PreconditionError, match="not a clique in the second"):
            paste(k4, other, g, bad)
    # a repeated vertex is no clique: refused before the clique test
    for bad in [(0, 1, 0), (3, 3)]:
        other = tuple(range(len(bad)))
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            paste(g, bad, k4, other)
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            paste(k4, other, g, bad)


def test_paste_rejects_mismatched_sets():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InvalidArgumentError):
        paste(tri, (0, 1), tri, (0,))
    with pytest.raises(InvalidArgumentError):
        paste(tri, (0, 0), tri, (0, 1))


def test_degeneracy_known_values():
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert degeneracy(tree).degeneracy == 1
    cyc = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert degeneracy(cyc).degeneracy == 2
    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert degeneracy(k5).degeneracy == 4
    assert degeneracy(Graph.from_edges(3, [])).degeneracy == 0


def test_degeneracy_elimination_order_property():
    # along the elimination order, each vertex sees at most d later ones
    g = complete_multipartite([2] * 3 + [1])
    nbrs = neighbour_lists(g)
    res = degeneracy(g)
    order = res.elimination_order
    assert sorted(order) == list(range(g.n))
    position = {v: i for i, v in enumerate(order)}
    worst = max(
        sum(1 for u in nbrs[v] if position[u] > position[v])
        for v in order
    )
    assert worst == res.degeneracy


def test_degeneracy_matches_subgraph_oracle():
    rng = random.Random(401)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
        assert degeneracy(g).degeneracy == oracle_degeneracy(g)


def naive_elimination_order(g: Graph) -> tuple[int, ...]:
    # remove the alive vertex of least (degree, id), one linear scan each
    nbr = adjacency_sets(g)
    alive = set(range(g.n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (len(nbr[u] & alive), u))
        alive.remove(v)
        order.append(v)
    return tuple(order)


def test_degeneracy_order_matches_naive_scan():
    rng = random.Random(403)
    graphs = [
        random_graph(rng, rng.randint(0, 40), rng.choice([0.05, 0.15, 0.4, 0.9]))
        for _ in range(150)
    ]
    graphs.append(build(params_for("c", 2))[0])
    for g in graphs:
        res = degeneracy(g)
        order = naive_elimination_order(g)
        assert res.elimination_order == order
        nbrs = adjacency_sets(g)
        alive = set(range(g.n))
        most = 0
        for v in order:
            alive.remove(v)
            most = max(most, len(nbrs[v] & alive))
        assert res.degeneracy == most


def _spider(legs: int, length: int) -> Graph:
    """A star's centre 0 with a pendant path of `length` vertices per leg."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph.from_edges(1 + legs * length, edges)


def _wheel(rim: int) -> Graph:
    """Centre 0 joined to a cycle 1..rim: removing a rim vertex (degree 3)
    drops its two rim neighbours to 2, below the least degree so far."""
    edges = [(0, v) for v in range(1, rim + 1)]
    edges += [(v, v % rim + 1) for v in range(1, rim + 1)]
    return Graph.from_edges(rim + 1, edges)


def _degeneracy_edge_cases():
    yield "empty", Graph(n=0, edges=())  # result (0, ())
    clique = (1, 3, 4, 6, 8)
    yield "isolated-beside-clique", Graph.from_edges(
        9, [(u, v) for u in clique for v in clique if u < v]
    )
    yield "spider", _spider(4, 3)
    yield "wheel", _wheel(9)
    rng = random.Random(409)
    for k in range(4):
        n = rng.randint(200, 400)
        yield f"sparse-{k}", random_graph(rng, n, rng.uniform(1.0, 4.0) / n)


@pytest.mark.parametrize(
    "g", [pytest.param(g, id=name) for name, g in _degeneracy_edge_cases()]
)
def test_degeneracy_edge_cases_match_naive_scan(g):
    # the per-degree heaps fill, empty and refill, and the cursor steps
    # back down; the order must still be the least (degree, id) each time
    res = degeneracy(g)
    order = naive_elimination_order(g)
    assert res.elimination_order == order
    nbrs = adjacency_sets(g)
    alive = set(range(g.n))
    most = 0
    for v in order:
        alive.remove(v)
        most = max(most, len(nbrs[v] & alive))
    assert res.degeneracy == most


def mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def walk_instances():
    """Seeded graphs of up to 12 vertices, each with vertex subsets: the
    empty set, a single vertex, everything, and random subsets."""
    rng = random.Random(1103)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.8]))
        subsets = [set(), {rng.randrange(n)}, set(range(n))]
        subsets += [{v for v in range(n) if rng.random() < 0.6} for _ in range(4)]
        yield rng, g, subsets


def test_components_match_networkx():
    for _, g, subsets in walk_instances():
        adj = adjacency_masks(g)
        nxg = nx.Graph(g.edges)
        nxg.add_nodes_from(range(g.n))
        for within in subsets:
            want = sorted(nx.connected_components(nxg.subgraph(within)), key=min)
            assert components(adj, mask(within)) == [mask(c) for c in want]


def test_reaches_all_means_one_component():
    split = 0
    for rng, g, subsets in walk_instances():
        adj = adjacency_masks(g)
        for within in subsets:
            parts = components(adj, mask(within))
            for _ in range(4):
                targets = {v for v in within if rng.random() < 0.5}
                one = any(mask(targets) & ~part == 0 for part in parts)
                want = bool(targets) and one
                split += bool(targets) and not one
                assert reaches_all(adj, mask(within), mask(targets)) == want
    assert split > 100  # targets split across parts were drawn
    # a path 0-1-2 with its middle left out: the ends lie in two parts
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    adj = adjacency_masks(path)
    assert reaches_all(adj, 0b111, 0b101)
    assert not reaches_all(adj, 0b101, 0b101)
    assert not reaches_all(adj, 0, 0)


def test_union_over_is_a_set_union():
    for rng, g, subsets in walk_instances():
        table = [rng.getrandbits(8) for _ in range(g.n)]
        adj, nbrs = adjacency_masks(g), neighbour_lists(g)
        for within in subsets:
            want = set()
            for u in within:
                want |= {c for c in range(8) if table[u] >> c & 1}
            assert union_over(table, mask(within)) == mask(want)
            assert union_over(adj, mask(within)) == mask(
                set().union(*(nbrs[u] for u in within))
            )
