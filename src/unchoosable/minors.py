"""Exact clique-minor containment on small graphs.

A K_t minor is witnessed by t pairwise-disjoint vertex sets (branch sets),
each inducing a connected subgraph, every pair joined by at least one
edge.  Two complete search strategies are provided:

* branch-set growth: vertices are considered in ascending id and either
  discarded or appended to one of the t sets, with sound pruning rules
  (capacity, stranded components, unfixable set pairs).  Symmetry among
  the unordered sets is broken by requiring set k to be opened by the
  smallest vertex it will ever contain, with opening order 0..t-1.
* contraction enumeration: grow a partition of the vertex set by merging
  adjacent blocks (depth-first, memoized on the block partition) until
  t blocks form a clique in the quotient.  Preferred when n - t is small,
  where only a few merges need exploring.

Both are exhaustive; answers never depend on the strategy.

`counting_bound` is the cheap negative side: a partition of the vertex
set into k independent sets caps every clique minor at floor((n+k)/2),
which is tight for the construction's gadgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidArgumentError, SearchTimeout
from .graphs import Graph, _bits

_TIMEOUT_CHECK_EVERY = 1024


@dataclass(frozen=True)
class BranchSetWitness:
    """Disjoint connected vertex sets, pairwise joined by an edge."""

    branch_sets: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "t": len(self.branch_sets),
            "branch_sets": [list(s) for s in self.branch_sets],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BranchSetWitness":
        """Inverse of `to_json_dict`; InvalidArgumentError unless the
        branch sets are lists of JSON integers."""
        raw = doc["branch_sets"]
        if not isinstance(raw, list) or not all(
            isinstance(s, list) and all(type(v) is int for v in s) for s in raw
        ):
            raise InvalidArgumentError("branch sets must be lists of integer ids")
        return cls(branch_sets=tuple(tuple(s) for s in raw))


@dataclass(frozen=True)
class MinorAnswer:
    contains: bool
    witness: BranchSetWitness | None
    nodes: int
    elapsed: float


class _Stats:
    __slots__ = ("nodes", "deadline")

    def __init__(self, deadline: float | None):
        self.nodes = 0
        self.deadline = deadline

    def tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % _TIMEOUT_CHECK_EVERY == 0:
            if time.monotonic() > self.deadline:
                raise SearchTimeout("minor search exceeded its time budget")


def check_witness(g: Graph, witness: BranchSetWitness) -> bool:
    """True iff the branch sets are disjoint, connected, and pairwise
    adjacent in `g`."""
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
        if not _connected(g.adj, mask):
            return False
    for i in range(len(masks)):
        ni = 0
        for v in _bits(masks[i]):
            ni |= g.adj[v]
        for j in range(i + 1, len(masks)):
            if not ni & masks[j]:
                return False
    return True


def _connected(adj: Sequence[int], mask: int) -> bool:
    if mask == 0:
        return False
    comp = mask & -mask
    while True:
        grow = 0
        for v in _bits(comp):
            grow |= adj[v]
        grow = grow & mask & ~comp
        if not grow:
            break
        comp |= grow
    return comp == mask


def has_clique_minor(
    g: Graph,
    t: int,
    strategy: str = "auto",
    timeout: float | None = None,
) -> MinorAnswer:
    """Exact decision: does `g` contain a K_t minor?

    `strategy` is one of 'auto', 'branch', 'contract'; it never changes
    the answer, only the search path.  With a `timeout` (seconds), raises
    SearchTimeout instead of guessing.
    """
    if t <= 0:
        raise InvalidArgumentError(f"clique order must be positive, got {t}")
    if strategy not in ("auto", "branch", "contract"):
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    stats = _Stats(deadline)

    if t > g.n or g.m < t * (t - 1) // 2:
        return MinorAnswer(False, None, 0, time.monotonic() - start)

    if strategy == "auto":
        strategy = "contract" if g.n - t <= 3 else "branch"
    if strategy == "contract":
        masks = _contract_search(g.adj, g.n, t, stats)
    else:
        masks = _grow_search(g.adj, g.n, t, stats)

    elapsed = time.monotonic() - start
    if masks is None:
        return MinorAnswer(False, None, stats.nodes, elapsed)
    witness = BranchSetWitness(tuple(tuple(_bits(m)) for m in masks))
    return MinorAnswer(True, witness, stats.nodes, elapsed)


def counting_bound(g: Graph, parts: Sequence[Sequence[int]]) -> int | None:
    """Upper bound floor((n+k)/2) on the order of any clique minor of `g`,
    or None when `parts` is not a partition of the vertex set into k
    non-empty independent sets.  O(n+m).

    In a K_t minor model the singleton branch sets are pairwise
    adjacent, so they lie in distinct parts and number s <= k; every
    other branch set has two or more vertices, so s + 2(t-s) <= n and
    2t <= n + k."""
    part_of = [-1] * g.n
    for i, part in enumerate(parts):
        if not part:
            return None
        for v in part:
            if type(v) is not int or not 0 <= v < g.n or part_of[v] != -1:
                return None
            part_of[v] = i
    if -1 in part_of:
        return None
    for u, v in g.edges:
        if part_of[u] == part_of[v]:
            return None
    return (g.n + len(parts)) // 2


def hadwiger_number(g: Graph, timeout: float | None = None) -> int:
    """Largest t such that K_t is a minor of `g`."""
    if g.n < 1:
        raise InvalidArgumentError("hadwiger number needs at least one vertex")
    deadline = None if timeout is None else time.monotonic() + timeout
    best = 1
    for t in range(2, g.n + 1):
        left = None if deadline is None else max(deadline - time.monotonic(), 0.001)
        if not has_clique_minor(g, t, timeout=left).contains:
            break
        best = t
    return best


# --- strategy 1: branch-set growth -----------------------------------------


def _grow_search(adj: Sequence[int], n: int, t: int, stats: _Stats):
    """Exhaustive DFS over assignments of vertices (ascending) to one of
    t branch sets or the discard pile.  Returns set masks or None."""
    suffix_edge = [False] * (n + 1)
    for v in range(n - 1, -1, -1):
        later = ~((1 << (v + 1)) - 1)
        suffix_edge[v] = suffix_edge[v + 1] or bool(adj[v] & later)

    # per-set state: (members, neighborhood, components as (mask, nbr) pairs)
    empty_set = (0, 0, ())

    def success(sets):
        for mask, _, comps in sets:
            if mask == 0 or len(comps) > 1:
                return False
        for i in range(t):
            ni = sets[i][1]
            for j in range(i + 1, t):
                if not ni & sets[j][0]:
                    return False
        return True

    def rec(v, sets, opened):
        stats.tick()
        if success(sets):
            return [s[0] for s in sets]
        if v == n:
            return None
        rest = ~((1 << v) - 1) & ((1 << n) - 1)
        room = rest.bit_count()

        need = t - opened
        for mask, _, comps in sets[:opened]:
            if len(comps) > 1:
                need += 1
        if need > room:
            return None
        for mask, _, comps in sets[:opened]:
            if len(comps) > 1:
                for cmask, cnbr in comps:
                    if not cnbr & rest:
                        return None
        for i in range(opened):
            mi, ni, _ = sets[i]
            for j in range(i + 1, opened):
                mj, nj, _ = sets[j]
                if ni & mj:
                    continue
                if ni & nj & rest:
                    continue  # one future vertex can join either set
                if suffix_edge[v] and ni & rest and nj & rest:
                    continue  # both sets can still grow toward a future edge
                return None

        vbit = 1 << v
        vadj = adj[v]
        limit = min(opened + 1, t)
        for k in range(limit):
            mask, nbr, comps = sets[k]
            touched = [c for c in comps if c[0] & vadj]
            kept = [c for c in comps if not c[0] & vadj]
            cmask = vbit
            cnbr = vadj
            for m2, n2 in touched:
                cmask |= m2
                cnbr |= n2
            kept.append((cmask, cnbr))
            new_sets = list(sets)
            new_sets[k] = (mask | vbit, nbr | vadj, tuple(kept))
            got = rec(v + 1, tuple(new_sets), max(opened, k + 1))
            if got is not None:
                return got
        return rec(v + 1, sets, opened)

    return rec(0, tuple([empty_set] * t), 0)


# --- strategy 2: contraction enumeration ------------------------------------


def _contract_search(adj: Sequence[int], n: int, t: int, stats: _Stats):
    """DFS over partitions formed by merging adjacent blocks, memoized on
    the partition.  A hit is t blocks forming a clique in the quotient."""
    blocks = tuple(1 << v for v in range(n))
    qadj = list(adj)
    visited = {frozenset(blocks)}

    def find_clique(quot, count):
        # targeted t-clique in the quotient, candidates as index bitmask
        chosen = []

        def extend(cands, need):
            if need == 0:
                return True
            if cands.bit_count() < need:
                return False
            for i in _bits(cands):
                chosen.append(i)
                if extend(cands & quot[i] & ~((1 << (i + 1)) - 1), need - 1):
                    return True
                chosen.pop()
            return False

        if extend((1 << count) - 1, t):
            return list(chosen)
        return None

    def rec(blocks, qadj):
        stats.tick()
        b = len(blocks)
        hit = find_clique(qadj, b)
        if hit is not None:
            return [blocks[i] for i in hit]
        if b == t:
            return None
        for i in range(b):
            row = qadj[i]
            for j in _bits(row & ~((1 << (i + 1)) - 1)):
                merged_blocks = list(blocks)
                merged_blocks[i] = blocks[i] | blocks[j]
                del merged_blocks[j]
                key = frozenset(merged_blocks)
                if key in visited:
                    continue
                visited.add(key)
                merged_adj = []
                for a in range(b):
                    if a == j:
                        continue
                    row_a = qadj[a]
                    if a == i:
                        row_a |= qadj[j]
                    if row_a & (1 << j):
                        row_a |= 1 << i  # j's neighbors now border merged i
                    keep_low = row_a & ((1 << j) - 1)
                    keep_high = (row_a >> (j + 1)) << j
                    merged_adj.append(keep_low | keep_high)
                merged_adj[i] &= ~(1 << i)
                got = rec(tuple(merged_blocks), merged_adj)
                if got is not None:
                    return got
        return None

    return rec(blocks, qadj)
