"""Benchmark-owned input generators and verdict checkers.

Nothing here calls the package.  Graphs are plain ``(n, edges)`` pairs
with adjacency bitmasks; every verdict the package returns is judged
against these routines, never against the package's own checkers.
"""

from __future__ import annotations

import itertools
import random

# Construction rows of the compositional and direct workloads: the
# largest whose verify and check each stay near 25 ms.  Longer calls
# (a3 takes 1.7 s per verify, c4 and b4 longer; direct c2 0.17 s, b2
# 20 s) get too few fast repetitions per run for a steady minimum.
# Direct b1 is left out because its whole-graph minor search (graphs of
# at most 12 vertices) would make direct mode mostly a minor search.
ROWS = {
    "compositional": ("a2", "b2", "c2", "b3", "c3"),
    "direct": ("a1",),
}


def masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected(adj: list[int], mask: int) -> bool:
    comp = mask & -mask
    while True:
        grow = 0
        for v in _bits(comp):
            grow |= adj[v]
        grow &= mask & ~comp
        if not grow:
            return comp == mask
        comp |= grow


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_clique(rng: random.Random, n: int, edges, k: int):
    adj = masks(n, edges)
    cands = [
        c for c in itertools.combinations(range(n), k)
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(c, 2))
    ]
    return rng.choice(cands) if cands else None


def clique_sum(n1: int, e1, s1, n2: int, e2, s2) -> tuple[int, list[tuple[int, int]]]:
    """Identify s2[i] with s1[i]; the other vertices of the second graph
    follow those of the first in ascending id order."""
    relabel = dict(zip(s2, s1))
    fresh = n1
    for v in range(n2):
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1
    edges = {tuple(sorted(e)) for e in e1}
    for u, v in e2:
        a, b = relabel[u], relabel[v]
        edges.add((min(a, b), max(a, b)))
    return fresh, sorted(edges)


def graph6(n: int, edges) -> str:
    """graph6 encoding for n <= 62 (the query graphs) and up to 258047."""
    adj = masks(n, edges)
    out = bytearray([n + 63] if n <= 62 else [126] + [(n >> s & 63) + 63 for s in (12, 6, 0)])
    bits = [adj[v] >> u & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i:i + 6]:
            group = group << 1 | b
        out.append(group + 63)
    return out.decode("ascii")


def has_clique_minor(n: int, edges, t: int) -> bool:
    """Brute force for small graphs (n <= 8).

    In a connected graph any K_t model extends to a partition of all
    vertices into t connected, pairwise adjacent blocks (keep adding an
    unused vertex to a block it touches), so it suffices to try every
    partition of each component into exactly t blocks."""
    if t > n or len(edges) < t * (t - 1) // 2:
        return False
    adj = masks(n, edges)
    left = (1 << n) - 1
    while left:
        comp = left & -left
        while True:
            grow = 0
            for v in _bits(comp):
                grow |= adj[v]
            grow &= left & ~comp
            if not grow:
                break
            comp |= grow
        left &= ~comp
        verts = list(_bits(comp))
        if len(verts) >= t and _partition_model(adj, verts, t):
            return True
    return False


def _partition_model(adj: list[int], verts: list[int], t: int) -> bool:
    blocks = [0] * t

    def rec(i: int, used: int) -> bool:
        if len(verts) - i < t - used:
            return False
        if i == len(verts):
            return _is_model(adj, blocks)
        bit = 1 << verts[i]
        for k in range(min(used + 1, t)):
            blocks[k] |= bit
            if rec(i + 1, max(used, k + 1)):
                return True
            blocks[k] &= ~bit
        return False

    return rec(0, 0)


def _is_model(adj: list[int], blocks: list[int]) -> bool:
    nbrs = []
    for b in blocks:
        if not _connected(adj, b):
            return False
        nb = 0
        for v in _bits(b):
            nb |= adj[v]
        nbrs.append(nb)
    return all(
        nbrs[i] & blocks[j] for i in range(len(blocks)) for j in range(i + 1, len(blocks))
    )


def witness_ok(n: int, edges, t: int, branch_sets) -> bool:
    """t disjoint, non-empty, connected, pairwise adjacent vertex sets."""
    if len(branch_sets) != t:
        return False
    adj = masks(n, edges)
    blocks, seen = [], 0
    for bs in branch_sets:
        b = 0
        for v in bs:
            if not (0 <= v < n) or b >> v & 1:
                return False
            b |= 1 << v
        if not b or b & seen:
            return False
        seen |= b
        blocks.append(b)
    return _is_model(adj, blocks)


def coloring_ok(n: int, edges, lists, coloring) -> bool:
    if coloring is None or len(coloring) != n:
        return False
    if any(c not in lists[v] for v, c in enumerate(coloring)):
        return False
    return all(coloring[u] != coloring[v] for u, v in edges)


def list_colorable(n: int, edges, lists) -> bool:
    """Plain backtracking in vertex order, for graphs of a few vertices."""
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[max(u, v)].append(min(u, v))
    colors = [0] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        for c in lists[v]:
            if all(colors[u] != c for u in nbr[v]):
                colors[v] = c
                if rec(v + 1):
                    return True
        return False

    return rec(0)


def construction_counts(case: str, t: int) -> dict:
    """The paper's parameter rows and the size of the pasted graph."""
    if case == "a":
        p, q, r, extra = 3 * t + 2, 4 * t, 2 * t + 1, 0
    elif case == "b":
        p, q, r, extra = 3 * t + 1, 4 * t - 2, 2 * t, 0
    else:
        p, q, r, extra = 3 * t, 4 * t - 3, 2 * t - 1, 1
    gadget_n = 2 * r + extra
    gadget_m = gadget_n * (gadget_n - 1) // 2 - r  # minus the matching
    roots = r * (r - 1) // 2
    copies = q**r
    return {
        "p": p,
        "q": q,
        "r": r,
        "n_gadgets": copies,
        "n_vertices": r + copies * (gadget_n - r),
        "n_edges": roots + copies * (gadget_m - roots),
    }


def lower_bound_row(p: int) -> int:
    """Choice-number lower bound q+1 for K_p-minor-free graphs."""
    t, rem = divmod(p, 3)
    case = {0: "c", 1: "b", 2: "a"}[rem]
    return construction_counts(case, t)["q"] + 1
