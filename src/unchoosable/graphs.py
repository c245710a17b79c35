"""Immutable simple graphs, clique pasting, degeneracy orderings, and the
walks over vertex masks.

Vertices are dense 0-based ids.  Edges are stored normalized (u < v,
lexicographically sorted) so that equal graphs compare equal and every
serialization is canonical.  A `Graph` is a NamedTuple of exactly those
two fields and holds no derived state.

A vertex's neighbours are one ascending list, read off the sorted edges
by `neighbour_lists` in O(n+m).  The lowest ids lead every row, so in a
built construction, whose roots are ids 0..r-1, the roots a vertex meets
are its row's prefix.  `degeneracy` reads these rows, and so does
direct verify, which checks the construction's own degeneracy order on
them instead of running `degeneracy`.

A vertex set is an int mask, bit v for vertex v.  `adjacency_masks`
builds a graph's masks, n²/16 bytes, and is called only by the two
search kernels, `minors.has_clique_minor` and `listcolor.l_colorable`;
they walk them through `union_over`, `reaches_all` and `components`
here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidArgumentError, PreconditionError

Edge = tuple[int, int]

# the most vertices a construction build or an adjacency-JSON file may
# have; a graph6 file is bounded by its own size
VERTEX_CAP = 100_000
# the longest graph6 text `write_graph6` makes, refused before it packs
# anything: packing holds about 3.6 times the text, which grows as n²/12
# bytes (b2's 5188 vertices take 2.2 MB, about 14 200 vertices reach it)
GRAPH6_BYTE_CAP = 1 << 24


def union_over(table: Sequence[int], mask: int) -> int:
    """The OR of `table[u]` over the vertices u of `mask`, walked inline:
    on the solver's small masks a generator of the set bits costs more."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def reaches_all(adj: Sequence[int], within: int, targets: int) -> bool:
    """Whether one connected part of `within` holds every vertex of
    `targets`, a subset of `within`: grow from the lowest target,
    stopping once all are met.  False when `targets` is empty."""
    frontier = targets & -targets
    todo = within ^ frontier
    while frontier:
        frontier = union_over(adj, frontier) & todo
        todo ^= frontier
        if not targets & todo:
            return True
    return False


def components(adj: Sequence[int], within: int) -> list[int]:
    """The connected parts of `within`, by lowest vertex, each grown by
    a frontier BFS."""
    parts = []
    while within:
        frontier = comp = within & -within
        within ^= comp
        while frontier:
            frontier = union_over(adj, frontier) & within
            within ^= frontier
            comp |= frontier
        parts.append(comp)
    return parts


class Graph(NamedTuple):
    """Undirected simple graph on vertices 0..n-1.

    Immutable and hashable, hence safely shareable across concurrent
    readers.  A NamedTuple of its two fields, with no instance dict, so
    nothing derived can be cached on it.
    """

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> Graph:
        """Validate, normalize and deduplicate `edges` into a Graph."""
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise InvalidArgumentError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range [0,{n})")
            norm.add((u, v) if u < v else (v, u))
        return cls(n=n, edges=tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_vertices(self, vertices: Sequence[int]) -> tuple[int, ...]:
        """Validate a duplicate-free vertex set; returns it as given."""
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise InvalidArgumentError(f"duplicate vertices in {vs}")
        n = self.n
        for v in vs:
            if not (0 <= v < n):
                raise InvalidArgumentError(f"vertex {v} out of range [0,{n})")
        return vs


def adjacency_masks(g: Graph) -> list[int]:
    """Fresh adjacency bitmasks, n²/16 bytes: bit u of the v-th is set
    iff uv is an edge.  The caller owns the list."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


class DegeneracyResult(NamedTuple):
    """Outcome of the min-degree elimination process.

    Removing vertices in `elimination_order`, every vertex has at most
    `degeneracy` neighbors among the vertices not yet removed, and some
    suffix of the process attains that bound exactly.
    """

    degeneracy: int
    elimination_order: tuple[int, ...]


def paste(g1: Graph, s1: Sequence[int], g2: Graph, s2: Sequence[int]) -> Graph:
    """Identify the clique `s1` of g1 with the clique `s2` of g2 pairwise:
    s1[i] is identified with s2[i].

    g1's vertex ids are preserved; g2's remaining vertices are appended in
    ascending order of their original ids.  The identified set stays a
    clique and both originals survive as induced subgraphs.
    """
    s1 = g1.check_vertices(s1)
    s2 = g2.check_vertices(s2)
    if len(s1) != len(s2):
        raise InvalidArgumentError(f"clique sizes differ: {len(s1)} vs {len(s2)}")
    # s1 and s2 are duplicate-free, so each is a clique when every pair of
    # it, sorted as the stored edges are, is an edge
    edges = set(g1.edges)
    if not edges.issuperset(itertools.combinations(sorted(s1), 2)):
        raise PreconditionError(f"{s1} is not a clique in the first graph")
    if not set(g2.edges).issuperset(itertools.combinations(sorted(s2), 2)):
        raise PreconditionError(f"{s2} is not a clique in the second graph")

    relabel = dict(zip(s2, s1))
    fresh = g1.n
    for v in range(g2.n):
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1

    for u, v in g2.edges:
        a, b = relabel[u], relabel[v]
        edges.add((a, b) if a < b else (b, a))  # identification cannot create
        # loops (s2 is duplicate-free) and duplicates are merged here
    # normalized, in range and loop-free already, so no from_edges pass
    return Graph(n=fresh, edges=tuple(sorted(edges)))


def neighbour_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours as one list, in O(n+m), not n²/16 bytes.

    The stored edges are sorted, so every row comes out ascending with
    no sort: v's lower neighbours, from the edges (u, v), come before its
    higher ones, from the edges (v, w).  A `Graph` built directly with
    unsorted or repeated edges gets the same neighbours, out of order or
    repeated."""
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def degeneracy(g: Graph) -> DegeneracyResult:
    """Min-degree elimination with lowest-id tie-break.

    The reported degeneracy equals the largest minimum degree over all
    subgraphs; the elimination order witnesses the upper bound.  The
    smallest-last order of Matula and Beck (J. ACM 1983), kept in one
    min-heap of vertex ids per degree, as Batagelj and Zaversnik bucket
    vertices for cores (arXiv cs/0310049), and a cursor at the least
    degree whose heap may be non-empty.  A removal pushes each live
    neighbour onto the heap of its new degree and steps the cursor down
    to it if it fell below; an entry whose vertex was removed, or whose
    degree changed since the push, is skipped when it reaches the top.
    Each edge pushes once, so the worst case is O((n+m) log n) time and
    O(n+m) space, from the sorted rows of `neighbour_lists` without the
    adjacency masks; only the rows' lengths and members are read, not
    their order.
    """
    # imported on first use: no verify orders vertices, only this function
    from heapq import heappop, heappush

    rows = neighbour_lists(g)
    deg = [len(row) for row in rows]  # -1 once removed
    heaps: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, dv in enumerate(deg):
        heaps[dv].append(v)  # ascending, so already a heap
    order = []
    d = cur = 0
    for _ in range(g.n):
        while True:  # the least live (degree, id): every live v is in heaps[deg[v]]
            heap = heaps[cur]
            if not heap:
                cur += 1
                continue
            v = heappop(heap)
            if deg[v] == cur:
                break  # else v was removed, or its degree fell since this push
        if cur > d:
            d = cur
        deg[v] = -1
        order.append(v)
        for u in rows[v]:
            du = deg[u] - 1
            if du >= 0:  # live: v is its neighbour, so its degree was >= 1
                deg[u] = du
                heappush(heaps[du], u)
                if du < cur:
                    cur = du
    return DegeneracyResult(degeneracy=d, elimination_order=tuple(order))
