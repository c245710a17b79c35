import json
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unchoosable import (
    Graph,
    InvalidArgumentError,
    ListAssignment,
    PreconditionError,
    build,
    l_colorable,
    params_for,
)
from unchoosable.construction import verify_not_colorable
from unchoosable.graphs import adjacency_masks
from unchoosable.listcolor import _Domains, _order

from conftest import check_coloring, oracle_list_colorable, random_graph, random_lists


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


@pytest.mark.parametrize(
    "rows,bad",
    [
        ([[1, 2], [0, 2]], "vertex 1 lists color 0"),
        ([[2, -5, 1]], "vertex 0 lists color -5"),
        ([[9, 1, 4]], "vertex 0 lists color 4"),
        ([[1], [7, 0, -1, 2]], "vertex 1 lists color -1"),  # the least bad color
    ],
)
def test_list_assignment_names_the_least_color_out_of_range(rows, bad):
    with pytest.raises(InvalidArgumentError, match=f"^{bad}, outside \\[1,3\\]$"):
        ListAssignment.from_lists(3, rows)


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


ROWS_NOT_INTEGER_ARRAYS = (
    "lists must be keyed by the ids 0..n-1, each an array of integer colors"
)
PALETTE_NOT_INTEGER = "list assignment needs an integer palette_size and lists"


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"palette_size": 3, "lists": {"0": [true]}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": [1.0]}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": ["1"]}}', ROWS_NOT_INTEGER_ARRAYS),
        # equal to the row before it as tuples: (True,) == (1,)
        ('{"palette_size": 3, "lists": {"0": [1], "1": [true]}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": [1], "1": {"0": 1}}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": [1], "1": {}}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": [1], "1": 2}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": [1], "1": ""}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": 3, "lists": {"0": [1], "2": [1]}}', ROWS_NOT_INTEGER_ARRAYS),
        ('{"palette_size": true, "lists": {"0": [1]}}', PALETTE_NOT_INTEGER),
        ('{"palette_size": 2.0, "lists": {"0": [1]}}', PALETTE_NOT_INTEGER),
        ('{"palette_size": -1, "lists": {"0": [1]}}', "palette size must be >= 0, got -1"),
        (
            '{"palette_size": 3, "lists": {"0": [1], "1": [7, 0, -1, 2],'
            ' "2": [7, 0, -1, 2], "3": [-4]}}',
            "vertex 1 lists color -1, outside [1,3]",
        ),
        (
            '{"palette_size": 3, "lists": {"0": [2, 1], "1": [1, 2], "2": [3, 4],'
            ' "3": [0]}}',
            "vertex 2 lists color 4, outside [1,3]",
        ),
    ],
)
def test_list_assignment_json_rejections_keep_their_messages(text, message):
    with pytest.raises(InvalidArgumentError) as err:
        ListAssignment.from_json_dict(json.loads(text))
    assert str(err.value) == message


@pytest.mark.parametrize("case,t", [("a", 1), ("b", 2)])
def test_equal_lists_share_one_tuple(case, t):
    _, built = build(params_for(case, t))
    text = json.dumps(built.to_json_dict())
    for la in (built, ListAssignment.from_json_dict(json.loads(text))):
        assert la == built
        assert len(set(map(id, la.lists))) == len(set(la.lists)) == built.palette_size
    # rows equal only once sorted and deduplicated share one tuple too
    la = ListAssignment.from_lists(3, [[2, 1], [1, 2], (1, 2, 2), [3]])
    assert la.lists == ((1, 2), (1, 2), (1, 2), (3,))
    assert len(set(map(id, la.lists))) == 2
    # the document aliases no row: editing one list leaves the others
    doc = built.to_json_dict()
    doc["lists"]["0"].append(99)
    assert doc["lists"]["1"] == list(built.lists[1])


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


def test_colors_far_apart_cost_only_the_colors_in_use():
    # as bit c-1 of a mask, color 10**30 would need about 10**29 bytes
    far = 10**30
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    la = ListAssignment.from_lists(far, [[1, far], [far, 7], [1, far]])
    res = l_colorable(g, la)
    assert res.colorable and res.coloring == (1, 7, 1)
    res = l_colorable(g, la, precoloring={1: far})
    assert res.colorable and res.coloring == (1, far, 1)
    res = l_colorable(g, la, precoloring={0: far})
    assert res.colorable and res.coloring == (far, 7, 1)


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


# The solver refutes every direct row on the whole graph, a cross-check
# independent of the Hall test the direct certificate rests on, and its
# search trees are pinned here.  The counts no longer enter certificates:
# a direct certificate records the copies its Hall test blocked,
# q!/(q-r)!.  Solving the parts of a split tightest first moved b2's
# count from 7116 to 5916.
DIRECT_CERTIFICATES = {
    ("b", 1): {"q": 2, "r": 2, "n": 10, "palette_size": 3, "backtracks": 6},
    ("c", 1): {"q": 1, "r": 1, "n": 3, "palette_size": 2, "backtracks": 1},
    ("a", 1): {"q": 4, "r": 3, "n": 195, "palette_size": 5, "backtracks": 136},
    ("c", 2): {"q": 5, "r": 3, "n": 503, "palette_size": 6, "backtracks": 685},
    ("b", 2): {"q": 6, "r": 4, "n": 5188, "palette_size": 7, "backtracks": 5916},
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
            "blocked_copies": math.perm(want["q"], want["r"]),
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


def test_long_forced_chain_keeps_no_mask_per_step():
    # each coloring removes a color from the next vertex of the path.  A
    # whole n-bit mask per step, on the trail, in a choice point or in
    # its goals, would make the traced peak grow as n**2: 5.1 MB at
    # n = 5000 and 16.8 MB at 10**4 with the remaining component kept in
    # each choice point's goals, 1.4 MB and 2.6 MB without.  The solver
    # builds the graph's adjacency masks (n**2/16 bytes) inside the
    # traced run, so their size is taken off each peak
    peaks = []
    for n in (5000, 10_000):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        la = uniform(n, 2, 2)
        masks = adjacency_masks(g)
        mask_bytes = sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))
        del masks
        tracemalloc.start()
        try:
            res = l_colorable(g, la)
            peaks.append(tracemalloc.get_traced_memory()[1] - mask_bytes)
        finally:
            tracemalloc.stop()
        assert res.colorable and res.backtracks == 0
    assert peaks[1] < 8e6 and peaks[1] < 2.5 * peaks[0], peaks


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


def _color_masks(lists: list[list[int]]) -> _Domains:
    """The solver's view of `lists` before any vertex is colored: one
    vertex mask per color in use, and the domains read through it."""
    colors = sorted({c for row in lists for c in row})
    index = {c: i for i, c in enumerate(colors)}
    has = [0] * len(colors)
    for v, row in enumerate(lists):
        for c in row:
            has[index[c]] |= 1 << v
    return _Domains(has, index, lists)


def test_order_puts_the_tightest_part_first():
    # vertex 4 has lost color 4, so parts {0}, {1, 2}, {3}, {4} meet
    # 3 colors, 2 ({1} | {2}), 2 and 1.  Vertex 5 names every color of
    # the parts, so they are keyed by one AND per color; vertices naming
    # nine more colors make them small enough to be keyed by walking
    # their domains instead.
    lists = [[1, 2, 3], [1], [2], [1, 2], [3, 4], [1, 2, 3, 4]]
    for extra in ([], [[5, 6, 7], [8, 9, 10], [11, 12, 13]]):
        domains = _color_masks(lists + extra)
        domains.has[3] ^= 1 << 4
        parts = [0b00001, 0b00110, 0b01000, 0b10000]
        assert _order(parts, domains) == [0b10000, 0b00110, 0b01000, 0b00001]
        # equal keys keep the order they came in
        assert _order([0b01000, 0b00110], domains) == [0b01000, 0b00110]
        assert _order([0b00110, 0b01000], domains) == [0b00110, 0b01000]
        one = [0b11111]
        assert _order(one, domains) is one


def test_blocked_part_is_met_before_its_colorable_siblings():
    # the centre 0 splits 400 long paths, each colorable whatever the
    # centre takes, from a K4 left with three colors once it is colored.
    # Taken in vertex order, every centre color would first color all
    # the paths; tightest first, the K4 fails at once each time.
    paths, length = 400, 50
    edges = []
    for i in range(paths):
        first = 1 + i * length
        edges.append((0, first))
        edges += [(first + j, first + j + 1) for j in range(length - 1)]
    k4 = range(1 + paths * length, 5 + paths * length)
    edges += [(0, v) for v in k4] + [(u, v) for u in k4 for v in k4 if u < v]
    n = 5 + paths * length
    g = Graph.from_edges(n, edges)
    la = ListAssignment.from_lists(
        5, [[1, 2, 3, 4]] + [[1, 2, 3, 4, 5]] * (paths * length) + [[1, 2, 3, 4]] * 4
    )
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = l_colorable(g, la)
        times.append(time.perf_counter() - t0)
    assert not res.colorable and res.backtracks == 64
    # about 0.15 s tightest first, 0.8 s or more in vertex order
    assert min(times) < 0.6, times


@st.composite
def listed_graphs(draw, palette: int):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    color_list = st.lists(
        st.integers(1, palette), min_size=1, max_size=palette, unique=True
    )
    lists = draw(st.lists(color_list, min_size=n, max_size=n))
    return Graph.from_edges(n, edges), lists


@st.composite
def disjoint_pairs(draw):
    palette = draw(st.integers(1, 4))
    return palette, draw(listed_graphs(palette)), draw(listed_graphs(palette))


@settings(max_examples=300, deadline=None)
@given(disjoint_pairs())
def test_disjoint_union_is_solved_side_by_side(case):
    # parts share no edges, so the order they are solved in cannot change
    # a coloring: the union's answer is the two sides' answers side by side
    palette, (g1, lists1), (g2, lists2) = case
    shift = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    union = Graph.from_edges(g1.n + g2.n, list(g1.edges) + shift)
    res = l_colorable(union, ListAssignment.from_lists(palette, lists1 + lists2))
    one = l_colorable(g1, ListAssignment.from_lists(palette, lists1))
    two = l_colorable(g2, ListAssignment.from_lists(palette, lists2))
    assert res.colorable == (one.colorable and two.colorable)
    if res.colorable:
        assert res.coloring == one.coloring + two.coloring
