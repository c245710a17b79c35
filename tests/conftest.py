"""Shared test helpers: independent oracles and random instance makers.

The oracles here deliberately avoid the package's own kernels.  Minor
containment is re-decided by enumerating set partitions of vertex
subsets, degeneracy by scanning all induced subgraphs, list coloring by
trying the whole list product.  Slow and obviously correct.

The package keeps only what the command line and the certificate
checker reach, so the test-only constructors and checks live here too:
`complete_multipartite` lays a gadget out by its edges, `gadget_lists`
assembles a copy's lists a second way from `build`, `check_coloring`
checks a coloring against the edges and lists, and `hadwiger_number`
runs `has_clique_minor` (not an independent oracle) for t = 2, 3, ...
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Iterable, Sequence

from unchoosable import (
    ConstructionParams,
    Graph,
    InvalidArgumentError,
    ListAssignment,
    gadget_template,
    has_clique_minor,
)
from unchoosable.construction import check_vector


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def forbid_adjacency_masks(monkeypatch) -> None:
    """Make `graphs.adjacency_masks` raise, under every name a loaded
    package module binds it to."""

    def refuse(g):
        raise AssertionError("adjacency masks were built")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "unchoosable" and hasattr(
            module, "adjacency_masks"
        ):
            monkeypatch.setattr(module, "adjacency_masks", refuse)


def adjacency_sets(g: Graph) -> list[set[int]]:
    nbr: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def _connected_block(nbr: list[set[int]], block: list[int]) -> bool:
    todo = [block[0]]
    seen = {block[0]}
    inside = set(block)
    while todo:
        x = todo.pop()
        for y in nbr[x] & inside:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen == inside


def _set_partitions(items: list[int], t: int):
    # every split of items into exactly t nonempty blocks
    if t <= 0 or len(items) < t:
        return
    if t == 1:
        yield [list(items)]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, t - 1):
        yield [[first]] + part
    for part in _set_partitions(rest, t):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def oracle_has_minor(g: Graph, t: int) -> bool:
    """Reference decision for a K_t minor: try every family of t
    disjoint connected blocks over every vertex subset."""
    if t <= 0:
        raise ValueError("t must be positive")
    if t > g.n:
        return False
    nbr = adjacency_sets(g)
    verts = list(range(g.n))
    for k in range(t, g.n + 1):
        for subset in itertools.combinations(verts, k):
            for part in _set_partitions(list(subset), t):
                if not all(_connected_block(nbr, b) for b in part):
                    continue
                good = True
                for i in range(t):
                    for j in range(i + 1, t):
                        if not any(
                            y in nbr[x] for x in part[i] for y in part[j]
                        ):
                            good = False
                            break
                    if not good:
                        break
                if good:
                    return True
    return False


def oracle_degeneracy(g: Graph) -> int:
    """Degeneracy as the max over induced subgraphs of the min degree."""
    nbr = adjacency_sets(g)
    best = 0
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            dmin = min(len(nbr[v] & inside) for v in subset)
            best = max(best, dmin)
    return best


def oracle_list_colorable(g: Graph, lists: list[list[int]]) -> bool:
    """Try every assignment in the product of the lists."""
    if any(not row for row in lists):
        return False
    for combo in itertools.product(*lists):
        if all(combo[u] != combo[v] for u, v in g.edges):
            return True
    return False


def random_lists(
    rng: random.Random, n: int, palette: int, max_size: int
) -> list[list[int]]:
    out = []
    for _ in range(n):
        size = rng.randint(1, max_size)
        out.append(sorted(rng.sample(range(1, palette + 1), size)))
    return out


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with classes of the given sizes.

    Classes occupy consecutive ids in input order; two vertices are
    adjacent iff they lie in different classes.
    """
    if not part_sizes:
        raise InvalidArgumentError("part_sizes must be non-empty")
    for s in part_sizes:
        if s <= 0:
            raise InvalidArgumentError(f"class sizes must be positive, got {s}")
    part_of = [i for i, s in enumerate(part_sizes) for _ in range(s)]
    n = len(part_of)
    # generated normalized and in lexicographic order, as from_edges keeps them
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if part_of[u] != part_of[v]
    )
    return Graph(n=n, edges=edges)


def gadget_lists(params: ConstructionParams, c: Sequence[int]) -> ListAssignment:
    """Lists over the gadget template for vector c: w_i avoids c_i within
    [1,q+1], every other vertex gets [1,q]."""
    vec = check_vector(params, c)
    tpl = gadget_template(params)
    q = params.q
    rows = [tuple(range(1, q + 1))] * len(tpl.part_of)
    for (_, w), ci in zip(tpl.pairs, vec):
        rows[w] = tuple(x for x in range(1, q + 2) if x != ci)
    return ListAssignment.from_lists(q + 1, rows)


def check_coloring(g: Graph, la: ListAssignment, coloring: Iterable[int]) -> bool:
    """True iff `coloring` is proper and drawn from the lists."""
    colors = list(coloring)
    if len(colors) != g.n or la.n != g.n:
        raise InvalidArgumentError(
            f"coloring/list length must match graph order {g.n}"
        )
    for v, c in enumerate(colors):
        if c not in la.lists[v]:
            return False
    for u, w in g.edges:
        if colors[u] == colors[w]:
            return False
    return True


def hadwiger_number(g: Graph) -> int:
    """Largest t such that K_t is a minor of `g`."""
    if g.n < 1:
        raise InvalidArgumentError("hadwiger number needs at least one vertex")
    best = 1
    for t in range(2, g.n + 1):
        if not has_clique_minor(g, t).contains:
            break
        best = t
    return best
