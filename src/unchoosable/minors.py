"""Exact clique-minor containment on small graphs.

A K_t minor is witnessed by t pairwise-disjoint vertex sets (branch sets),
each inducing a connected subgraph, every pair joined by at least one
edge.  `has_clique_minor` first shrinks the graph with two rules, applied
until neither does anything, and keeps for each vertex left the input
vertices merged into it, so that a witness maps back to the input:

* (a) delete a simplicial vertex v of degree below t-1.  As a singleton
  branch set v would need t-1 neighbours.  Inside a larger branch set
  its neighbours there are pairwise adjacent, so the set stays connected
  without v, and any edge from v to another set also leaves from a
  neighbour of v in its own set.  This deletes isolated vertices for
  t >= 2 and leaves for t >= 3, so trees and paths vanish.
* (b) for t >= 4, contract a degree-2 vertex v into its lower neighbour
  a, which inherits v's edge to the other neighbour b.  The result is a
  minor, so a K_t found there is one of the input.  Conversely v is no
  singleton (that needs degree 3).  An unused v, or one sharing its set
  with a, disappears into the contraction; otherwise v is a leaf of its
  set hanging off b, and a's new edge to b replaces v's.  Long cycles
  contract to a triangle, which (a) then deletes.

Both rules need a vertex of degree below t-1, so only those start on
the worklist.  When fewer than t vertices or t(t-1)/2 edges are left,
the answer is no, and nothing is relabelled.

Then one complete search runs on what is left: vertices are considered
in ascending id and each either opens the next set, joins an open set
or is discarded, in that order, with sound pruning rules (capacity,
stranded components, unfixable set pairs).  Symmetry among the
unordered sets is broken by requiring set k to be opened by the
smallest vertex it will ever contain, with opening order 0..t-1.
Trying "open" first finds K_t inside K_t in t+1 nodes.  A search that
finds no minor visits every node the rules leave, and which child is
tried first does not change that set, so negative node counts do not
depend on the order.  Neither the reductions nor the search recurse:
the search keeps an explicit stack of frames, one per placed vertex,
so a long cycle at t = 3 is found in one node per vertex.  Each frame
also counts its split sets (sets of more than one component), so the
success test and the stranded-component scan skip their per-set loops
while none is split, and one index, the highest vertex with a higher
neighbour, says whether an edge can still come among the vertices not
yet placed.

Most queries are small, so the fixed cost of a call matters as much as
the cost of a node: a query decided by counting returns one shared
answer, and the witness is mapped back and read in plain loops.

Only `has_clique_minor` builds adjacency masks (`graphs.adjacency_masks`,
n²/16 bytes), once per call after its early exits, and `_reduce`
rewrites that fresh list in place.  `check_witness` proof-checks a
witness on `g.edges` alone by union-find, in O(n+m), so checking a
certificate never allocates masks.

`counting_bound` is the cheap negative side: a partition of the vertex
set into k independent sets caps every clique minor at floor((n+k)/2),
which is tight for the construction's gadgets.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

from .errors import InvalidArgumentError, SearchTimeout
from .graphs import Graph, adjacency_masks, union_over

# with a timeout the search reads the clock once per this many nodes
_TIMEOUT_CHECK_EVERY = 1024


class BranchSetWitness(NamedTuple):
    """Disjoint connected vertex sets, pairwise joined by an edge."""

    branch_sets: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "t": len(self.branch_sets),
            "branch_sets": [list(s) for s in self.branch_sets],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BranchSetWitness":
        """Inverse of `to_json_dict`; InvalidArgumentError unless there
        is at least one branch set and every one is a list of JSON
        integers (a K_0 minor is no claim: `has_clique_minor` takes t >= 1)."""
        raw = doc["branch_sets"]
        malformed = "branch sets must be lists of integer ids"
        if not isinstance(raw, list):
            raise InvalidArgumentError(malformed)
        for s in raw:
            if not isinstance(s, list):
                raise InvalidArgumentError(malformed)
            for v in s:
                if type(v) is not int:
                    raise InvalidArgumentError(malformed)
        if not raw:
            raise InvalidArgumentError("a witness needs at least one branch set")
        return cls(branch_sets=tuple(map(tuple, raw)))


class MinorAnswer(NamedTuple):
    contains: bool
    witness: BranchSetWitness | None
    nodes: int


# the answer of every query decided without a search; immutable, so shared
_NO_MINOR = MinorAnswer(False, None, 0)


def check_witness(g: Graph, witness: BranchSetWitness) -> bool:
    """True iff the branch sets are disjoint, connected and pairwise
    adjacent in `g`.  One pass over `g.edges` unions the two ends of
    every edge inside a set (union-find) and records every pair of sets
    an edge joins: O(n+m), and no adjacency masks."""
    n = g.n
    owner = [-1] * n
    for i, bs in enumerate(witness.branch_sets):
        if not bs:
            return False
        for v in bs:
            if not (0 <= v < n):
                raise InvalidArgumentError(f"witness vertex {v} out of range [0,{n})")
        for v in bs:
            if owner[v] != -1:
                return False  # overlap between sets or repeats inside one
            owner[v] = i
    t = len(witness.branch_sets)
    parent = list(range(n))
    unions = [0] * t  # a set of k vertices is connected after k-1 unions
    joined = set()
    for u, v in g.edges:
        a, b = owner[u], owner[v]
        if a == -1 or b == -1:
            continue
        if a != b:
            joined.add((a, b) if a < b else (b, a))
            continue
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            unions[a] += 1
    if len(joined) != t * (t - 1) // 2:
        return False
    return all(unions[i] == len(bs) - 1 for i, bs in enumerate(witness.branch_sets))


def has_clique_minor(g: Graph, t: int, *, timeout: float | None = None) -> MinorAnswer:
    """Exact decision: does `g` contain a K_t minor?

    Reduces `g` and searches what is left (see the module docstring);
    the witness names vertices of `g`.  With a `timeout` (seconds),
    raises SearchTimeout instead of guessing.
    """
    if t <= 0:
        raise InvalidArgumentError(f"clique order must be positive, got {t}")
    if t > g.n or g.m < t * (t - 1) // 2:
        return _NO_MINOR
    deadline = None if timeout is None else time.monotonic() + timeout
    adj, members = _reduce(adjacency_masks(g), g.n, t)
    if not adj:
        return _NO_MINOR
    masks, nodes = _grow_search(adj, len(adj), t, deadline)
    if masks is None:
        return MinorAnswer(False, None, nodes)
    branch_sets = []
    for mask in masks:
        bs = []
        while mask:
            low = mask & -mask
            bs += members[low.bit_length() - 1]
            mask ^= low
        bs.sort()
        branch_sets.append(tuple(bs))
    return MinorAnswer(True, BranchSetWitness(tuple(branch_sets)), nodes)


def counting_bound(g: Graph, parts: Sequence[Sequence[int]]) -> int | None:
    """Upper bound floor((n+k)/2) on the order of any clique minor of `g`,
    or None when `parts` is not a partition of the vertex set into k
    non-empty independent sets.  O(n+m).

    In a K_t minor model the singleton branch sets are pairwise
    adjacent, so they lie in distinct parts and number s <= k; every
    other branch set has two or more vertices, so s + 2(t-s) <= n and
    2t <= n + k."""
    n = g.n
    part_of = [-1] * n
    for i, part in enumerate(parts):
        if not part:
            return None
        for v in part:
            if type(v) is not int or not 0 <= v < n or part_of[v] != -1:
                return None
            part_of[v] = i
    if -1 in part_of:
        return None
    for u, v in g.edges:
        if part_of[u] == part_of[v]:
            return None
    return (n + len(parts)) // 2


# --- reductions ------------------------------------------------------------


def _reduce(adj: list[int], n: int, t: int):
    """Apply both rules to a fixpoint.  Returns the adjacency masks of
    what is left, relabelled 0.. in ascending id, and for each vertex
    left the input vertices it stands for; or two empty lists when what
    is left has fewer than t vertices or t(t-1)/2 edges, and so no K_t
    minor, a count test made before any relabelling.  Takes ownership of
    `adj`, which it rewrites in place and returns when no vertex went.

    `members[v]` is emptied when v goes.  A rule that fires pushes the
    vertices whose rule may now apply, in ascending id."""
    small = t - 1  # both rules need degree below this: rule (b)'s 2 < t-1 is t >= 4
    members = [[v] for v in range(n)]
    left = n
    # a vertex of higher degree is pushed once a rule changes its neighbourhood
    todo = [v for v in range(n) if adj[v].bit_count() < small]
    while todo:
        v = todo.pop()
        if not members[v]:
            continue
        nv = adj[v]
        degree = nv.bit_count()
        if degree >= small:
            continue
        # rule (a): delete v if its neighbourhood is a clique
        rest = nv
        while rest:
            low = rest & -rest
            if (adj[low.bit_length() - 1] | low) & nv != nv:
                break
            rest ^= low
        if not rest:
            gone = ~(1 << v)
            rest = nv
            while rest:
                low = rest & -rest
                adj[low.bit_length() - 1] &= gone
                rest ^= low
            adj[v] = 0
            members[v] = []
            left -= 1
            touched = nv
        elif degree == 2:
            # rule (b): contract v into its lower neighbour a, which
            # inherits v's edge to the other neighbour b
            low = nv & -nv
            a = low.bit_length() - 1
            b = (nv ^ low).bit_length() - 1
            adj[a] = adj[a] & ~(1 << v) | 1 << b
            adj[b] = adj[b] & ~(1 << v) | 1 << a
            adj[v] = 0
            members[a] += members[v]
            members[v] = []
            left -= 1
            # a and b changed, and so did the neighbourhoods containing both
            touched = 1 << a | 1 << b | adj[a] & adj[b]
        else:
            continue
        while touched:
            low = touched & -touched
            todo.append(low.bit_length() - 1)
            touched ^= low
    if left < t or sum(map(int.bit_count, adj)) < t * (t - 1):
        return [], []  # each edge is counted from both ends
    if left == n:
        return adj, members
    keep = [v for v in range(n) if members[v]]
    bit = [0] * n  # bit[v]: v's bit after relabelling
    for i, v in enumerate(keep):
        bit[v] = 1 << i
    return [union_over(bit, adj[v]) for v in keep], [members[v] for v in keep]


# --- the search ------------------------------------------------------------


def _grow_search(adj: Sequence[int], n: int, t: int, deadline: float | None):
    """Exhaustive DFS over assignments of vertices (ascending) to one of
    t branch sets or the discard pile.  Returns (set masks or None,
    nodes visited), or raises SearchTimeout once past `deadline`.

    A node is (v, sets, split): vertices below v are placed, `sets` are
    the sets opened so far, and `split` of them have more than one
    component.  A set is (members, neighbourhood, components as (mask,
    neighbourhood) pairs).  Each stack frame is [v, sets, split, next
    choice]; the choices are -1 (v opens the next set, while fewer than
    t are open), 0..opened-1 (v joins that set), then `opened` (v is
    discarded, and the frame is popped).  With no split set the success
    test and the stranded-component scan have no set to look at.
    `last_up` is the highest vertex with a higher neighbour, so some
    edge joins two vertices from v on exactly when v <= last_up."""
    last_up = n - 1
    while last_up >= 0 and not adj[last_up] >> (last_up + 1):
        last_up -= 1
    full = (1 << n) - 1
    nodes = 0
    stack = []
    v, sets, split = 0, (), 0
    while True:
        nodes += 1
        if deadline is not None and nodes % _TIMEOUT_CHECK_EVERY == 0:
            if time.monotonic() > deadline:
                raise SearchTimeout("minor search exceeded its time budget")
        opened = len(sets)
        if opened == t and not split:
            # success: every set connected; is every pair adjacent?
            found = True
            for i, (_, ni, _) in enumerate(sets):
                for mj, _, _ in sets[i + 1 :]:
                    if not ni & mj:
                        found = False
                        break
                if not found:
                    break
            if found:
                return [s[0] for s in sets], nodes
        # the sets still to open, and one joining vertex for each split
        # set, need distinct vertices from v on
        alive = v < n and t - opened + split <= n - v
        if alive:
            rest = full >> v << v
            if split:
                for _, _, comps in sets:
                    if len(comps) > 1:
                        for _, cnbr in comps:
                            if not cnbr & rest:
                                alive = False  # a stranded component
            grows = v <= last_up
            for i, (_, ni, _) in enumerate(sets):
                if not alive:
                    break
                for mj, nj, _ in sets[i + 1 :]:
                    if ni & mj or ni & nj & rest:
                        continue  # adjacent, or one future vertex can join either
                    if grows and ni & rest and nj & rest:
                        continue  # both sets can still grow toward a future edge
                    alive = False  # an unfixable pair
                    break
        if alive:
            k = -1 if opened < t else 0
            frame = [v, sets, split, k]
            stack.append(frame)
        elif stack:
            frame = stack[-1]
            v, sets, split, k = frame
            opened = len(sets)
        else:
            return None, nodes
        if k == opened:
            stack.pop()  # the last choice: discard v
        else:
            frame[3] = k + 1
            vbit = 1 << v
            vadj = adj[v]
            if k < 0:
                sets += ((vbit, vadj, ((vbit, vadj),)),)
            else:
                mask, nbr, comps = sets[k]
                cmask, cnbr, kept = vbit, vadj, ()
                for comp in comps:
                    if comp[0] & vadj:
                        cmask |= comp[0]
                        cnbr |= comp[1]
                    else:
                        kept += (comp,)
                split += (len(kept) > 0) - (len(comps) > 1)
                new = (mask | vbit, nbr | vadj, kept + ((cmask, cnbr),))
                sets = sets[:k] + (new,) + sets[k + 1 :]
        v += 1
