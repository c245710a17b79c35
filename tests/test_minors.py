import hashlib
import random

import pytest

from unchoosable import (
    BranchSetWitness,
    Graph,
    InvalidArgumentError,
    SearchTimeout,
    check_witness,
    counting_bound,
    has_clique_minor,
)

from unchoosable import minors
from unchoosable.graphs import adjacency_masks, reaches_all, union_over

from conftest import (
    complete_multipartite,
    forbid_adjacency_masks,
    hadwiger_number,
    oracle_has_minor,
    random_graph,
)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_check_witness_accepts_singletons_on_k4():
    g = complete(4)
    w = BranchSetWitness(((0,), (1,), (2,), (3,)))
    assert check_witness(g, w)


def test_check_witness_rejects_overlap_disconnection_nonadjacency():
    g = cycle(5)
    assert not check_witness(g, BranchSetWitness(((0, 1), (1, 2),)))
    assert not check_witness(g, BranchSetWitness(((0, 2),)))
    assert not check_witness(g, BranchSetWitness(((0,), (2,))))
    assert not check_witness(g, BranchSetWitness(((0,), ())))
    with pytest.raises(InvalidArgumentError):
        check_witness(g, BranchSetWitness(((0,), (7,))))


def mask_check_witness(g: Graph, witness: BranchSetWitness) -> bool:
    """The adjacency-mask check that `check_witness` replaced, kept as
    its reference."""
    adj = adjacency_masks(g)
    masks = []
    seen = 0
    for bs in witness.branch_sets:
        if not bs:
            return False
        mask = 0
        for v in bs:
            if not (0 <= v < g.n):
                raise InvalidArgumentError(f"witness vertex {v} out of range [0,{g.n})")
            mask |= 1 << v
        if mask & seen or mask.bit_count() != len(bs):
            return False  # overlap between sets or repeats inside one
        seen |= mask
        masks.append(mask)
    for mask in masks:
        if not reaches_all(adj, mask, mask):
            return False
    for i in range(len(masks)):
        ni = union_over(adj, masks[i])
        for j in range(i + 1, len(masks)):
            if not ni & masks[j]:
                return False
    return True


def _mutate(rng: random.Random, sets: list[list[int]], n: int) -> None:
    """One random edit of `sets` in place: move, drop, add, repeat or
    swap a vertex, add or remove a set, or add an out-of-range id."""
    i = rng.randrange(len(sets))
    bs = sets[i]
    edit = rng.randrange(8)
    if edit == 0 and bs:  # move a vertex to another set
        sets[rng.randrange(len(sets))].append(bs.pop(rng.randrange(len(bs))))
    elif edit == 1 and bs:  # drop a vertex, maybe emptying the set
        bs.pop(rng.randrange(len(bs)))
    elif edit == 2:  # add any vertex: maybe unused, maybe in another set
        bs.insert(rng.randint(0, len(bs)), rng.randrange(n))
    elif edit == 3 and bs:  # repeat a vertex inside its set
        bs.append(rng.choice(bs))
    elif edit == 4:  # a new singleton set
        sets.append([rng.randrange(n)])
    elif edit == 5 and len(sets) > 1:
        sets.pop(i)
    elif edit == 6 and bs:  # swap a vertex for any vertex
        bs[rng.randrange(len(bs))] = rng.randrange(n)
    elif edit == 7 and rng.random() < 0.2:
        bs.append(rng.choice([-1, n, n + 5]))


def test_check_witness_agrees_with_the_mask_check():
    rng = random.Random(2311)
    verdicts = {True: 0, False: 0, "raised": 0}
    for _ in range(4000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
        t = rng.randint(1, min(n, 5))
        ans = has_clique_minor(g, t)
        if ans.contains:
            sets = [list(bs) for bs in ans.witness.branch_sets]
        else:  # t random disjoint sets over the vertices
            order = rng.sample(range(n), n)
            sets = [[order[i]] for i in range(t)]
            for v in order[t:]:
                if rng.random() < 0.7:
                    rng.choice(sets).append(v)
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            _mutate(rng, sets, n)
        w = BranchSetWitness(tuple(map(tuple, sets)))
        try:
            want = mask_check_witness(g, w)
        except InvalidArgumentError as exc:
            with pytest.raises(InvalidArgumentError) as err:
                check_witness(g, w)
            assert str(err.value) == str(exc), (g, w)
            verdicts["raised"] += 1
            continue
        assert check_witness(g, w) == want, (g, w)
        verdicts[want] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_check_witness_builds_no_masks_on_a_long_cycle(monkeypatch):
    forbid_adjacency_masks(monkeypatch)
    n = 10**5
    g = cycle(n)
    a, b = n // 3, 2 * n // 3
    arcs = [list(range(a)), list(range(a, b)), list(range(b, n))]

    def check(sets):
        return check_witness(g, BranchSetWitness(tuple(map(tuple, sets))))

    assert check(arcs)
    holed = arcs[0][: a // 2] + arcs[0][a // 2 + 1 :]
    assert not check([holed, arcs[1], arcs[2]])  # one arc split by a gap
    # one arc split into two sets: its halves miss the far arc
    assert not check([arcs[0][: a // 2], arcs[0][a // 2 :], arcs[1], arcs[2]])
    assert not check([arcs[0], arcs[1] + [0], arcs[2]])  # overlapping sets
    assert not check([arcs[0] + [0], arcs[1], arcs[2]])  # a repeated vertex


def test_counting_bound_values():
    assert counting_bound(complete(4), [[0], [1], [2], [3]]) == 4
    assert counting_bound(cycle(5), [[0, 2], [1, 3], [4]]) == 4
    octahedron = complete_multipartite([2] * 3)
    assert counting_bound(octahedron, [[0, 1], [2, 3], [4, 5]]) == 4
    apexed = complete_multipartite([2] * 2 + [1])
    assert counting_bound(apexed, [[0, 1], [2, 3], [4]]) == 4
    assert counting_bound(Graph.from_edges(0, []), []) == 0


def test_counting_bound_rejects_non_partitions():
    g = cycle(4)
    for parts in (
        [[0, 1], [2, 3]],  # edge inside a part
        [[0, 2], [1]],  # vertex 3 missing
        [[0, 2], [1, 3], [3]],  # vertex 3 twice
        [[0, 2], [1, 3], []],  # empty part
        [[0, 2], [1, 4]],  # out of range
        [[0, 2], [1, -1]],
        [[0, 2], [1, True]],
        [[0, 2], [1, "3"]],
    ):
        assert counting_bound(g, parts) is None, parts


def test_witness_json_roundtrip():
    w = BranchSetWitness(((0, 1), (2,), (3, 4)))
    doc = w.to_json_dict()
    assert doc["t"] == 3
    assert BranchSetWitness.from_json_dict(doc) == w
    # a K_0 witness claims nothing; `has_clique_minor` takes t >= 1
    with pytest.raises(InvalidArgumentError, match="at least one branch set"):
        BranchSetWitness.from_json_dict({"branch_sets": []})


def test_k4_minor_in_k4_found_with_singleton_witness():
    ans = has_clique_minor(complete(4), 4)
    assert ans.contains
    assert ans.witness.branch_sets == ((0,), (1,), (2,), (3,))


def test_positive_answers_carry_valid_witnesses():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 8), 0.6)
        t = rng.randint(2, 5)
        ans = has_clique_minor(g, t)
        if ans.contains:
            assert len(ans.witness.branch_sets) == t
            assert check_witness(g, ans.witness)


def subdivided(g: Graph, every: int = 1) -> Graph:
    """`g` with `every` new vertices on each edge."""
    edges, n = [], g.n
    for u, v in g.edges:
        path = [u] + list(range(n, n + every)) + [v]
        n += every
        edges += zip(path, path[1:])
    return Graph.from_edges(n, edges)


def test_witnesses_map_back_through_contractions():
    g = subdivided(complete(5))
    ans = has_clique_minor(g, 5)
    assert ans.contains and check_witness(g, ans.witness)
    assert any(len(s) > 1 for s in ans.witness.branch_sets)
    rng = random.Random(37)
    for _ in range(100):
        base = random_graph(rng, rng.randint(4, 7), 0.7)
        g = subdivided(base, rng.randint(1, 3))
        # pendant trees, which rule (a) peels off again
        extra = rng.randint(0, 4)
        edges = list(g.edges) + [(rng.randrange(v), v) for v in range(g.n, g.n + extra)]
        g = Graph.from_edges(g.n + extra, edges)
        for t in (4, 5):  # rule (b) contracts only for t >= 4
            ans = has_clique_minor(g, t)
            assert ans.contains == oracle_has_minor(base, t)
            if ans.contains:
                assert len(ans.witness.branch_sets) == t
                assert check_witness(g, ans.witness)


def test_long_cycle_is_decided_without_search():
    ans = has_clique_minor(cycle(2000), 4)
    assert (ans.contains, ans.witness, ans.nodes) == (False, None, 0)


def _rule_applies(adj, v, t) -> bool:
    """Rule (a) or (b) of the module docstring would still fire at v."""
    nv = adj[v]
    degree = nv.bit_count()
    others = [u for u in range(len(adj)) if nv >> u & 1]
    simplicial = all(adj[u] >> w & 1 for u in others for w in others if u != w)
    return (degree < t - 1 and simplicial) or (t >= 4 and degree == 2)


def _reduced_graph(adj) -> Graph:
    """The graph `_reduce` left, whose masks must be symmetric and
    loop-free."""
    arcs = {(u, w) for u in range(len(adj)) for w in range(len(adj)) if adj[u] >> w & 1}
    assert all((w, u) in arcs and u != w for u, w in arcs)
    return Graph.from_edges(len(adj), [(u, w) for u, w in arcs if u < w])


def test_reductions_reach_a_fixpoint():
    # after _reduce no rule applies anywhere, and the vertices left stand
    # for disjoint sets of input vertices
    rng = random.Random(43)
    # contracting 0 into 2 joins 2 and 4, which makes 5 simplicial after
    # 5 was last looked at
    edges = [(0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 5), (2, 7), (3, 6)]
    edges += [(3, 7), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7)]
    cases = [(Graph.from_edges(8, edges), 5)]
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.25, 0.4]))
        cases.append((g, rng.randint(2, 6)))
    for g, t in cases:
        adj, members = minors._reduce(adjacency_masks(g), g.n, t)
        merged = [v for m in members for v in m]
        assert len(merged) == len(set(merged)) and all(members)
        _reduced_graph(adj)
        for v in range(len(adj)):
            assert not _rule_applies(adj, v, t), (g, t, v)


def _deleted(g, members) -> bool:
    return sum(map(len, members)) < g.n


def _contracted(g, members) -> bool:
    return any(len(m) > 1 for m in members)


# the rules are inline in `_reduce`; each case checks `_reduce` against
# the oracle wherever its rule fired (rule (a) alone runs for t <= 3)
@pytest.mark.parametrize(
    "rule, fired, first_t",
    [("_delete_simplicial", _deleted, 2), ("_contract_degree_two", _contracted, 4)],
    ids=["_delete_simplicial", "_contract_degree_two"],
)
def test_each_reduction_rule_keeps_the_oracle_answer(rule, fired, first_t):
    rng = random.Random(41)
    applied = set()
    cases = []
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5]))
        cases += [(g, g, t) for t in range(1, 7)]
    # contracted vertices that survive: subdivided dense graphs, which
    # have a K_t minor for t >= 4 exactly when the graph before
    # subdividing has
    for _ in range(30):
        base = random_graph(rng, rng.randint(4, 6), 0.7)
        cases += [(subdivided(base), base, t) for t in (4, 5, 6)]
    # `_reduce` returns nothing when the count test decides, so t = 6
    # needs bases with the 15 edges a K_6 does
    for _ in range(10):
        base = random_graph(rng, 7, 0.8)
        cases.append((subdivided(base), base, 6))
    for g, same, t in cases:
        adj, members = minors._reduce(adjacency_masks(g), g.n, t)
        if not fired(g, members):
            continue
        applied.add(t)
        want = oracle_has_minor(same, t)
        assert oracle_has_minor(_reduced_graph(adj), t) == want, (rule, g, t)
    assert applied == set(range(first_t, 7)), rule


def test_clique_is_found_in_t_plus_one_nodes():
    # each vertex of K_t opens the next set; the root counts as a node
    for t in range(1, 9):
        ans = has_clique_minor(complete(t), t)
        assert ans.contains and ans.nodes == t + 1
        assert ans.witness.branch_sets == tuple((v,) for v in range(t))


def test_long_cycle_at_three_needs_no_recursion():
    # every vertex has degree t-1 and no rule applies, so the search
    # places all 2000 of them, deeper than the default recursion limit
    g = cycle(2000)
    assert minors._reduce(adjacency_masks(g), g.n, 3)[0] == adjacency_masks(g)
    ans = has_clique_minor(g, 3)
    assert ans.contains and ans.nodes <= g.n + 1
    assert check_witness(g, ans.witness)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def test_negative_searches_keep_their_node_counts():
    # an exhausted tree does not depend on which child is tried first, so
    # these pin the pruning rules, not the value order; the Petersen count
    # grows without any one of the three rules
    assert has_clique_minor(complete_multipartite([2] * 4), 7).nodes == 516
    assert has_clique_minor(complete_multipartite([2] * 5), 8).nodes == 12813
    assert has_clique_minor(petersen(), 6).nodes == 7981


def test_trees_have_no_k3_minor():
    tree = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert has_clique_minor(tree, 2).contains
    assert not has_clique_minor(tree, 3).contains
    assert hadwiger_number(tree) == 2


def test_cycle_contracts_to_triangle_not_k4():
    g = cycle(6)
    assert has_clique_minor(g, 3).contains
    assert not has_clique_minor(g, 4).contains


def test_octahedron_hadwiger_four():
    g = complete_multipartite([2] * 3)
    assert not has_clique_minor(g, 5).contains
    assert has_clique_minor(g, 4).contains
    assert hadwiger_number(g) == 4


def test_petersen_hadwiger_five():
    # contracting the five spokes yields K_5; K_6 would need 15 cross
    # edges plus connectors, more than the 15 edges available
    g = petersen()
    assert has_clique_minor(g, 5).contains
    assert not has_clique_minor(g, 6).contains
    assert hadwiger_number(g) == 5


def test_hadwiger_of_cliques():
    for n in range(1, 7):
        assert hadwiger_number(complete(n)) == n


def test_minus_matching_family():
    # r doubled classes: hadwiger floor(3r/2); with a dominating vertex, +1
    for r in range(1, 5):
        bound = (3 * r) // 2
        assert hadwiger_number(complete_multipartite([2] * r)) == bound
        assert hadwiger_number(complete_multipartite([2] * r + [1])) == bound + 1


def test_matches_partition_oracle():
    rng = random.Random(29)
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 7), rng.choice([0.25, 0.5, 0.75]))
        t = rng.randint(2, min(g.n, 5))
        assert has_clique_minor(g, t).contains == oracle_has_minor(g, t)


def test_edge_bound_short_circuits():
    # too few edges for the target clique: decided without search
    g = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
    ans = has_clique_minor(g, 9)
    assert not ans.contains and ans.nodes == 0


def test_count_decided_negatives_build_no_masks(monkeypatch):
    # more clique vertices than graph vertices, or fewer edges than K_t
    # has: answered before any adjacency mask is built
    forbid_adjacency_masks(monkeypatch)
    cases = [(Graph.from_edges(0, []), 1), (complete(3), 4), (complete(6), 7)]
    cases += [(cycle(5), 4), (cycle(30), 9), (complete_multipartite([1, 5]), 4)]
    for g, t in cases:
        ans = has_clique_minor(g, t)
        assert (ans.contains, ans.witness, ans.nodes) == (False, None, 0), (g, t)


# sha256 of the corpus below as the kernel answered it before its
# per-call bookkeeping was reworked: any change to an answer, a node
# count or a witness of `has_clique_minor`, or to `hadwiger_number`,
# changes it
KERNEL_DIGEST = "18e81588733c09e9dabb83160555fd712904bf687fa6bb78da6eba5f438282a0"


def test_kernel_outputs_keep_their_digest():
    # 4200 queries: about half decided by counting, the rest positives
    # (a third with merged branch sets) and searched negatives
    rng = random.Random(2411)
    h = hashlib.sha256()
    for _ in range(600):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        for t in range(1, 8):
            ans = has_clique_minor(g, t)
            w = ans.witness.branch_sets if ans.witness else None
            h.update(repr((g.n, g.edges, t, ans.contains, ans.nodes, w)).encode())
        h.update(repr(hadwiger_number(g)).encode())
    assert h.hexdigest() == KERNEL_DIGEST


def test_timeout_raises():
    # target above the hadwiger number forces the search to exhaust
    g = complete_multipartite([2] * 7)
    with pytest.raises(SearchTimeout):
        has_clique_minor(g, 11, timeout=1e-4)


def test_invalid_arguments():
    g = complete(3)
    with pytest.raises(InvalidArgumentError):
        has_clique_minor(g, 0)
    with pytest.raises(TypeError):
        has_clique_minor(g, 2, strategy="branch")  # one search, no knob
