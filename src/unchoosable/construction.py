"""The counterexample family and its verification pipeline.

Three parameter rows, indexed by a case letter and a scale t, each give
a clique order p, a list size q, and a root count r:

    case a: p = 3t+2,  q = 4t,    r = 2t+1,  gadget K_{r x 2}
    case b: p = 3t+1,  q = 4t-2,  r = 2t,    gadget K_{r x 2}
    case c: p = 3t,    q = 4t-3,  r = 2t-1,  gadget K_{1, r x 2}

The gadget is a complete multipartite graph on q+2 vertices whose r
two-vertex classes form a deleted matching v_i w_i.  For a color vector
c in [1,q]^r, give w_i the list [1,q+1] minus {c_i} and every other
vertex the list [1,q]; coloring each v_i with c_i then leaves no proper
completion (q+2 vertices, q+1 colors, and the only non-adjacent pairs
are the matched ones).  Pasting one gadget copy per vector onto the
shared root clique v_1..v_r produces a graph that is K_p-minor-free,
q-degenerate, and not q-choosable.

The gadget's minor bound is a counting argument.  Its vertex set splits
into k independent sets (the r matched pairs, plus the apex in case c),
so a clique minor has at most k singleton branch sets and at most
floor((n+k)/2) branch sets in all: floor(3r/2) for K_{r x 2} and
floor(3r/2)+1 for K_{1, r x 2}, exactly p-1 in every row.

Both modes certify the gadget K_p-minor-free by that counting bound
and check the gluing set is a clique (so pasting cannot create new
clique minors), and refute colorability by the paper's Hall violator,
Régin's alldifferent pigeonhole: with the roots pinned to a proper
vector c, the pairwise adjacent w_i (plus the apex in case c) may only
use the q+1-r colors of [1,q+1] that c leaves free, fewer than there
are of them.  Neither mode searches.  Compositional mode never builds
the graph: the q!/(q-r)! repetition-free vectors are alike, so
(1,...,r) stands for them all, and a vector with a repeated entry is
blocked vacuously.  The gadget is kept only as its class map
(`GadgetTemplate.part_of`), never as edges: two vertices are adjacent
exactly when their classes differ.  Compositional mode reads the
classes, so its gadget work is O(q + r): an independent set lies inside
one class, and a clique meets each class at most once.  Direct mode
lays each copy's edges out from the classes (`build`), then checks the
same test for every proper root coloring on the materialized graph's
lists and its sorted neighbour lists, one row per vertex with the
roots 0..r-1 as the row's prefix.  From the same rows it certifies the
graph q-degenerate by the construction's own order (copy ids r..n-1
ascending, then the roots), never running a degeneracy elimination.
`build` lays out the lists from their q+1 distinct tuples, shared by
every vertex that has one: all copies' rows come from one product over
the choices of each member of a copy, so no per-copy loop runs.

This module is the one place that knows the construction-certificate
format.  A certificate is accepted by running the verifier that wrote
it again and requiring an equal document, so every check lives here:
a property that fails raises ConstructionRefuted rather than being
recorded as a false field.

Only `build` and the direct-mode steps import `graphs` and `listcolor`,
when they run: the parameter rows, the table and compositional mode are
arithmetic on the classes, and a process that runs only them never
loads the graph or coloring code.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import sys
from bisect import bisect_left
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ConstructionRefuted, InvalidArgumentError, ResourceLimitError

if TYPE_CHECKING:
    from .graphs import Graph
    from .listcolor import ListAssignment

CASES = ("a", "b", "c")


class ConstructionParams(NamedTuple):
    case: str
    t: int
    p: int
    q: int
    r: int
    gadget_kind: str  # "K_{rx2}" or "K_{1,rx2}"


def params_for(case: str, t: int) -> ConstructionParams:
    """Parameter row for a case letter and scale t >= 1."""
    if case not in CASES:
        raise InvalidArgumentError(f"case must be one of a, b, c, got {case!r}")
    if t < 1:
        raise InvalidArgumentError(f"scale t must be >= 1, got {t}")
    if case == "a":
        p, q, r, kind = 3 * t + 2, 4 * t, 2 * t + 1, "K_{rx2}"
    elif case == "b":
        p, q, r, kind = 3 * t + 1, 4 * t - 2, 2 * t, "K_{rx2}"
    else:
        p, q, r, kind = 3 * t, 4 * t - 3, 2 * t - 1, "K_{1,rx2}"
    # every count of build_stats is below q^r (q+2)^2 = 10^digits, and
    # str() refuses ints of more than `limit` digits.  r may be past any
    # float, so digits is summed in fixed point, scaled by 2^32.
    scaled = r * round(math.log10(q) * 2**32) + 2 * round(math.log10(q + 2) * 2**32)
    limit = sys.get_int_max_str_digits()
    if limit and scaled >= limit << 32:
        digits = (scaled >> 32) + 1
        # a count of digits can itself be past the limit
        about = f"about {digits}" if digits < 10**limit else f"over {limit}"
        raise InvalidArgumentError(
            f"row {case}{t}: its counts run to {about} digits, "
            f"past Python's {limit}-digit int-to-str limit"
        )
    # p sits one above the gadget's Hadwiger number floor(3r/2) (+1 apex)
    if (3 * r) // 2 + 1 + (kind == "K_{1,rx2}") != p:
        raise InvalidArgumentError(
            f"row {case}{t}: p={p} is not one above the gadget's Hadwiger number"
        )
    return ConstructionParams(case=case, t=t, p=p, q=q, r=r, gadget_kind=kind)


class GadgetTemplate(NamedTuple):
    """One gadget copy before any lists are attached.

    pairs holds the deleted matching (v_i, w_i) in pair order; its v_i
    are the root clique that every copy shares.  own holds the vertices
    a pasted copy adds, in the order `build` lays out their ids: the w_i
    in pair order, then the apex in case c.  part_of maps each vertex to
    its class of the complete multipartite gadget: pair i is class i,
    the apex class r.  Two vertices are adjacent exactly when their
    classes differ, so part_of is the whole gadget: the verifier, the
    certificate check and `build` all read it, and no edge list of the
    gadget is kept.

    `gadget_template` hands the same template to every caller of a row,
    so it is shared: nothing may mutate it.
    """

    pairs: tuple[tuple[int, int], ...]
    own: tuple[int, ...]
    part_of: tuple[int, ...]

    @property
    def root_clique(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.pairs)


@functools.lru_cache(maxsize=1)
def gadget_template(params: ConstructionParams) -> GadgetTemplate:
    """The gadget laid out by arithmetic: pair i is (2i, 2i+1), in class
    i, and the apex of case c is 2r, in class r.

    A pure function of the row, cached for the last row asked: a verify
    and the replay of its certificate ask for one row several times, and
    lay it out once.  The template is shared between calls and never
    mutated."""
    r = params.r
    apex = () if params.gadget_kind == "K_{rx2}" else (2 * r,)
    n = 2 * r + len(apex)
    if n != params.q + 2:
        raise InvalidArgumentError(
            f"{params.gadget_kind} with r={r} has {n} vertices, "
            f"the row needs q+2={params.q + 2}"
        )
    tpl = GadgetTemplate(
        pairs=tuple((2 * i, 2 * i + 1) for i in range(r)),
        own=tuple(range(1, 2 * r, 2)) + apex,
        part_of=tuple(v // 2 for v in range(n)),
    )
    if not _distinct_classes(tpl.part_of, tpl.root_clique):
        raise ConstructionRefuted(f"gadget roots {tpl.root_clique} are not a clique")
    return tpl


def _distinct_classes(part_of: Sequence[int], vertices: Sequence[int]) -> bool:
    """Whether `vertices` are a clique of the complete multipartite graph
    whose classes are `part_of`: no two of them share a class, so a
    repeated vertex fails."""
    return len({part_of[v] for v in vertices}) == len(vertices)


def check_vector(params: ConstructionParams, c: Sequence[int]) -> tuple[int, ...]:
    vec = tuple(int(x) for x in c)
    if len(vec) != params.r:
        raise InvalidArgumentError(
            f"color vector must have length r={params.r}, got {len(vec)}"
        )
    for x in vec:
        if not (1 <= x <= params.q):
            raise InvalidArgumentError(f"vector entry {x} outside [1,{params.q}]")
    return vec


def vector_is_proper(c: Sequence[int]) -> bool:
    """The roots are pairwise adjacent, so a vector is realizable as a
    proper root coloring exactly when its entries are distinct."""
    return len(set(c)) == len(c)


def _w_list(q: int, ci: int) -> tuple[int, ...]:
    """The list of w_i under a vector whose i-th entry is ci."""
    return tuple(x for x in range(1, q + 2) if x != ci)


def _class_hall(
    tpl: GadgetTemplate, q: int, vec: tuple[int, ...]
) -> tuple[bool, set[int]]:
    """The Hall test on the gadget copy for vec, read from the
    template's classes in O(q + r) without its edges.  With the roots
    pinned to vec, each member of `own` keeps the colors of its list in
    that copy (`_w_list` for w_i, [1,q] for the apex) that no root
    adjacent to it holds; the copy is shut out when `own` is a clique
    keeping fewer colors than it has members.
    Returns that verdict and the colors kept.  `_direct_blocked` makes
    the same test on a built graph's sorted neighbour rows.

    A set is a clique when no two members share a class, and a member
    keeps the colors of its list that no root outside its class holds.
    Each list is one shared range less at most one color: [1,q+1] less
    c_i for w_i, [1,q] for the apex.  Every color a list leaves out is
    held by a root, so each color no root holds is kept up to the
    longest range's end.  A held color is kept only by a member whose
    class holds the one root holding it; the roots lie in distinct
    classes, so that is the root of the member's class, and its color,
    in [1,q], lies in every range."""
    part_of = tpl.part_of
    held = collections.Counter(vec)  # color -> roots pinned to it
    root_color = {part_of[v]: x for v, x in zip(tpl.root_clique, vec)}
    cut = {w: ci for (_, w), ci in zip(tpl.pairs, vec)}
    free = set(range(1, q + 2 if cut else q + 1)) - held.keys()
    for s in tpl.own:
        y = root_color.get(part_of[s], 0)
        if held[y] == 1 and y != cut.get(s):
            free.add(y)
    return _distinct_classes(part_of, tpl.own) and len(free) < len(tpl.own), free


def gadget_blocked_detail(params: ConstructionParams, c: Sequence[int]) -> dict:
    """Decide whether the gadget copy for vector c shuts out the root
    coloring c: the Hall test of `_class_hall`, read from the template's
    classes with no edges and no neighbour rows, its roots pinned to c
    and its clique the w_i (plus the apex in case c).  A vector
    repeating a color on the pairwise adjacent roots is vacuously
    blocked, as status improper-root."""
    vec = check_vector(params, c)
    if not vector_is_proper(vec):
        return {"vector": list(vec), "status": "improper-root", "blocked": True}
    tpl = gadget_template(params)
    blocked, free = _class_hall(tpl, params.q, vec)
    return {
        "vector": list(vec),
        "status": "blocked" if blocked else "no-obstruction",
        "blocked": blocked,
        "clique": list(tpl.own),
        "free_colors": sorted(free),
    }


def color_pattern_classes(
    params: ConstructionParams,
) -> list[tuple[tuple[int, ...], int]]:
    """The two classes of [1,q]^r as (representative, size) pairs, sizes
    summing to q^r.  The q!/(q-r)! repetition-free vectors form one orbit
    under the color permutations that fix q+1, represented by (1,...,r).
    The rest repeat a color on the pairwise adjacent roots, represented
    by (1,...,1); that class is empty, and left out, when r = 1.  With
    fewer colors than roots (r > q) the first class is left out instead."""
    q, r = params.q, params.r
    proper = math.perm(q, r)
    classes = []
    if proper:
        classes.append((tuple(range(1, r + 1)), proper))
    if r > 1:
        classes.append(((1,) * r, q**r - proper))
    return classes


class ConstructionStats(NamedTuple):
    params: ConstructionParams
    n_vertices: int
    n_edges: int
    n_gadgets: int

    def manifest(self, mode: str) -> dict:
        p = self.params
        return {
            "case": p.case,
            "t": p.t,
            "p": p.p,
            "q": p.q,
            "r": p.r,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "n_gadgets": self.n_gadgets,
            "mode": mode,
        }


def build_stats(params: ConstructionParams) -> ConstructionStats:
    """Counts for the pasted graph, pure arithmetic: each of the q^r
    copies contributes q+2-r fresh vertices and the gadget's non-root
    edges; the root clique is shared."""
    q, r = params.q, params.r
    copies = q**r
    gv = q + 2
    ge = 2 * r * (r - 1) if params.gadget_kind == "K_{rx2}" else 2 * r * r
    root_edges = r * (r - 1) // 2
    return ConstructionStats(
        params=params,
        n_vertices=r + copies * (gv - r),
        n_edges=copies * (ge - root_edges) + root_edges,
        n_gadgets=copies,
    )


def build(params: ConstructionParams) -> tuple[Graph, ListAssignment]:
    """Materialize the pasted graph and its list assignment.

    Ids 0..r-1 are the shared roots v_i, with list [1,q].  Copy k, in
    lexicographic order of its color vector c, takes the len(own) ids
    from r + k*len(own) on, one per vertex of the template's `own` in
    that order: the w_i with lists [1,q+1] minus c_i, then in case c the
    apex with list [1,q].  Raises ResourceLimitError above VERTEX_CAP;
    use build_stats for the counts instead.

    The lists are q+1 shared tuples.  After the r roots' rows, the rows
    of all copies are one `itertools.product` over per-member choices:
    w_i's row for each c_i in [1,q], then the apex's one row [1,q].  As
    `own` holds the w_i in pair order, then the apex, the product walks
    the vectors lexicographically, each copy's rows in a run, which is
    the id layout above."""
    from .graphs import VERTEX_CAP, Graph
    from .listcolor import ListAssignment

    stats = build_stats(params)
    if stats.n_vertices > VERTEX_CAP:
        raise ResourceLimitError(
            f"full build needs {stats.n_vertices} vertices, cap is {VERTEX_CAP}; "
            "use stats-only"
        )
    q, r = params.q, params.r
    tpl = gadget_template(params)
    size = len(tpl.own)
    # copy 0's edges, sorted: positions a < b of root_clique + own are
    # adjacent exactly when their classes differ; copy k adds k*size to
    # every id from r on
    cls = [tpl.part_of[u] for u in tpl.root_clique + tpl.own]
    pairs = itertools.combinations(range(len(cls)), 2)
    local = [(a, b) for a, b in pairs if cls[a] != cls[b]]
    shifts = range(0, stats.n_gadgets * size, size)
    # emitted in lexicographic order, so normalized as from_edges keeps
    # them: root i's clique edges, then its edges into each copy in copy
    # order; then each copy's inner edges in copy order
    edges = []
    for i in range(r):
        mine = [b for a, b in local if a == i]
        cross = [b for b in mine if b >= r]
        edges += [(i, b) for b in mine if b < r]
        edges += [(i, b + s) for s in shifts for b in cross]
    inner = [(a, b) for a, b in local if a >= r]
    edges += [(a + s, b + s) for s in shifts for a, b in inner]
    # the rows each member of `own` may have, in `own`'s order
    full = tuple(range(1, q + 1))
    w_rows = [_w_list(q, ci) for ci in full]
    w_ids = {w for _, w in tpl.pairs}
    slots = [w_rows if u in w_ids else (full,) for u in tpl.own]
    copies = itertools.chain.from_iterable(itertools.product(*slots))
    rows = itertools.chain([full] * r, copies)
    g = Graph(n=stats.n_vertices, edges=tuple(edges))
    # sorted and in [1, q+1] by construction, so from_lists' checks are skipped
    la = ListAssignment(palette_size=q + 1, lists=tuple(rows))
    if (g.n, g.m) != (stats.n_vertices, stats.n_edges):
        raise ConstructionRefuted(
            f"build made {g.n} vertices and {g.m} edges, the counts say "
            f"{stats.n_vertices} and {stats.n_edges}"
        )
    return g, la


# --- verification -----------------------------------------------------------


def _class_bound(part_of: Sequence[int], parts: Sequence[Sequence[int]]) -> int | None:
    """`minors.counting_bound` on the complete multipartite graph whose
    classes are `part_of`, read from the classes: floor((n+k)/2) when
    the k `parts` cover the n vertices once, each part inside one class
    (so independent), else None.  As there, every vertex id must be an
    int, not a bool, string or float.  O(n log n), no edges."""
    ids = [v for part in parts for v in part]
    if any(type(v) is not int for v in ids) or sorted(ids) != list(range(len(part_of))):
        return None
    if not all(part and len({part_of[v] for v in part}) == 1 for part in parts):
        return None
    return (len(part_of) + len(parts)) // 2


def verify_minor_free(params: ConstructionParams) -> dict:
    """Certify the pasted graph has no K_p minor, without a search.

    The gadget is certified by the counting bound over its matching
    classes (plus the apex in case c), a `counting-bound` child that
    `_class_bound` checks against the template's classes; the gluing set
    is a clique, and pasting minor-free graphs on a clique stays
    minor-free.  Both modes emit this certificate.  A hand-built row the
    bound does not settle (params_for makes none) raises
    InvalidArgumentError naming the bound."""
    tpl = gadget_template(params)
    parts = [list(pair) for pair in tpl.pairs] + [[u] for u in tpl.own[params.r:]]
    bound = _class_bound(tpl.part_of, parts)
    if bound is None or bound >= params.p:
        raise InvalidArgumentError(
            f"row {params.case}{params.t}: the counting bound {bound} of its "
            f"gadget does not exclude K_{params.p}"
        )
    return {
        "kind": "compositional-pasting",
        "case": params.case,
        "t": params.t,
        "p": params.p,
        "q": params.q,
        "r": params.r,
        "n_gadgets": build_stats(params).n_gadgets,
        "glue": list(tpl.root_clique),
        "glue_is_clique": True,
        "children": [
            {
                "kind": "counting-bound",
                "scope": "gadget-template",
                "case": params.case,
                "t": params.t,
                "target": params.p,
                "n": len(tpl.part_of),
                "partition": parts,
            }
        ],
    }


def verify_not_colorable(
    params: ConstructionParams,
    mode: str = "compositional",
    built: tuple[Graph, ListAssignment] | None = None,
    rows: Sequence[list[int]] | None = None,
) -> dict:
    """Certify the pasted graph is not colorable from its lists: every
    proper root coloring is some vector, whose gadget copy cannot be
    completed.  Compositional mode decides one representative per class
    of `color_pattern_classes`, whose sizes must sum to q^r; direct mode
    checks every copy of the materialized graph (`_direct_blocked`) on
    its sorted neighbour lists, where the roots 0..r-1 are each row's
    prefix.  `rows` are built's `neighbour_lists`, if already made."""
    if mode not in ("direct", "compositional"):
        raise InvalidArgumentError(f"unknown verification mode {mode!r}")
    q, r = params.q, params.r
    head = dict(
        kind="non-colorability", case=params.case, t=params.t, q=q, r=r, mode=mode
    )
    if mode == "direct":
        g, la = built if built is not None else build(params)
        if rows is None:
            from .graphs import neighbour_lists

            rows = neighbour_lists(g)
        return {
            **head,
            "n": g.n,
            "palette_size": la.palette_size,
            "blocked_copies": _direct_blocked(params, g, la, rows),
            "total_vectors": q**r,
        }

    entries = []
    for rep, size in color_pattern_classes(params):
        entry = gadget_blocked_detail(params, rep)
        if not entry["blocked"]:
            raise ConstructionRefuted(
                f"no obstruction found for vector {rep} "
                f"in case {params.case}, t={params.t}",
                vector=rep,
            )
        entry["representative"] = entry.pop("vector")
        entry["size"] = size
        entries.append(entry)
    covered = sum(e["size"] for e in entries)
    if covered != q**r:
        raise ConstructionRefuted(
            f"color classes cover {covered} vectors, case {params.case}, "
            f"t={params.t} has {q**r}"
        )
    return {
        **head,
        "palette_size": q + 1,
        "classes": entries,
        "covered": covered,
        "total_vectors": q**r,
    }


def _direct_blocked(
    params: ConstructionParams, g: Graph, la: ListAssignment, rows: Sequence[list[int]]
) -> int:
    """The Hall test of `_class_hall` on the materialized graph g, whose
    `neighbour_lists` are `rows`: the roots 0..r-1 must be a clique,
    each listing exactly [1,q], and each proper root coloring, of rank k
    in `build`'s order of [1,q]^r, must be shut out by copy k, the ids
    from r + k*size on.  The proper colorings are the r-permutations of
    [1,q], walked in that same order, so the repeated vectors are never
    generated.  Returns the copies checked, q!/(q-r)!.

    Every adjacency used is read off a row.  The rows ascend, so a
    vertex's root neighbours are its row's prefix of ids in [0, r).
    Root i's prefix must be the other roots.  A copy member loses the
    colors of its root neighbours from its list, held as an int mask,
    and the rest of its row must start with the copy's other ids, so
    the copy is a clique.  A row out of order or with repeats, as a
    `Graph` given unsorted or repeated edges has, can hide adjacency
    from these tests but never invent it: a graph they accept has every
    edge the proof uses."""
    q, r = params.q, params.r
    size = len(gadget_template(params).own)
    if la.n != g.n or g.n < r or any(
        rows[i][: r - 1] != [*range(i), *range(i + 1, r)] for i in range(r)
    ):
        raise ConstructionRefuted(f"roots 0..{r - 1} are not a clique of the graph")
    full = tuple(range(1, q + 1))
    for i, colors in enumerate(la.lists[:r]):
        if tuple(colors) != full:
            raise ConstructionRefuted(
                f"root {i} lists {list(colors)}, not [1,{q}]: the copies are one "
                f"per vector of [1,{q}]^{r}, so a color outside [1,{q}] has no "
                "gadget copy and one left out leaves copies unchecked"
            )
    step = [size * q ** (r - 1 - i) for i in range(r)]  # ids per unit of entry i
    base = r - sum(step)  # so copy 0, for vector (1,...,1), starts at id r
    list_masks: dict[tuple[int, ...], int] = {}
    blocked = 0
    for vec in itertools.permutations(full, r):
        lo = base + sum(map(operator.mul, vec, step))
        hi = lo + size
        if hi > g.n:
            raise ConstructionRefuted(f"root coloring {vec} has no gadget copy")
        held = [1 << x for x in vec]
        clique = True
        free = 0
        for s in range(lo, hi):
            row = rows[s]
            taken = p = 0
            for v in row:
                if not 0 <= v < r:
                    break
                taken |= held[v]
                p += 1
            if row[p : p + size - 1] != [*range(lo, s), *range(s + 1, hi)]:
                clique = False
            colors = la.lists[s]
            mask = list_masks.get(colors)
            if mask is None:
                mask = list_masks[colors] = sum(1 << x for x in set(colors))
            free |= mask & ~taken
        if not clique or free.bit_count() >= size:
            kept = [x for x in range(free.bit_length()) if free >> x & 1]
            raise ConstructionRefuted(
                f"copy {(lo - r) // size} of row {params.case}{params.t} keeps "
                f"colors {kept} under root coloring {vec}",
                vector=vec,
            )
        blocked += 1
    return blocked


def verify_degeneracy(
    params: ConstructionParams, built: Graph, rows: Sequence[list[int]] | None = None
) -> dict:
    """Certify that `built` is exactly q-degenerate by the construction's
    own order, not by computing one.  Every list in the construction
    has size q, so q-degeneracy is what makes the family tight against
    greedy coloring.  `rows` are built's sorted `neighbour_lists`, if
    already made.

    Upper bound: in the order copy ids r..n-1 ascending, then roots
    0..r-1 ascending, no vertex may have more than q later neighbours.
    A root has at most r-1 later vertices at all, and r-1 <= q since
    q + 2 is 2r or 2r+1, so only copy vertices are counted, and only
    those whose rows are longer than q: a copy vertex's later
    neighbours are its row's root prefix and the ids above it, found by
    `bisect`.  Lower bound: the roots and copy 0, the ids below
    r + size, form a gadget, so each must have q neighbours among them.
    A failure raises ConstructionRefuted naming the vertex, its count
    and q.  The check reads every row's length and a few entries of the
    rows it counts, where the min-heap elimination of
    `graphs.degeneracy` visits every edge.

    A row out of order or with repeats cannot make either bound pass
    falsely: a copy vertex's count falls back to its whole row unless
    the entries taken as earlier are ids between r and its own, and the
    lower bound counts distinct ids only."""
    q, r = params.q, params.r
    gadget = r + len(gadget_template(params).own)  # the roots and copy 0
    where = f"graph for case {params.case}, t={params.t}"
    if built.n < gadget:
        raise ConstructionRefuted(
            f"{where} has {built.n} vertices, fewer than its roots and copy 0"
        )
    if rows is None:
        from .graphs import neighbour_lists

        rows = neighbour_lists(built)
    for v, row in enumerate(rows[r:], r):
        if len(row) <= q:
            continue
        p = bisect_left(row, r)  # its root neighbours, all later than v
        j = bisect_left(row, v, p)  # row[p:j]: the copy ids below v
        later = len(row) - (j - p)
        if j - p > 1 and not r <= min(row[p:j]) <= max(row[p:j]) < v:
            later = len(row)
        if later > q:
            raise ConstructionRefuted(
                f"{where} is not q-degenerate in the construction's order: "
                f"vertex {v} has {later} later neighbours, above q={q}"
            )
    for v in range(gadget):
        row = rows[v]
        inner = {u for u in row[: bisect_left(row, gadget)] if u < gadget}
        inner.discard(v)
        if len(inner) < q:
            raise ConstructionRefuted(
                f"{where} has degeneracy below q: vertex {v} of the roots and "
                f"copy 0 has {len(inner)} neighbours among them, fewer than q={q}"
            )
    return {"degeneracy": q, "bound": q}


def verify_construction(
    params: ConstructionParams, mode: str = "compositional"
) -> dict:
    """Full pipeline: minor-freeness plus non-colorability, bundled with
    the instance manifest.  Direct mode materializes the graph (subject
    to VERTEX_CAP) and adds the check of its degeneracy order; both read
    the graph's `neighbour_lists`, made once: one ascending row per
    vertex, with the roots 0..r-1 as each row's prefix.  Every step is counted or
    checked, none searched, so no step takes a time budget."""
    built = rows = None
    if mode == "direct":
        from .graphs import neighbour_lists

        built = build(params)
        rows = neighbour_lists(built[0])
    bundle = {
        "kind": "construction-verified",
        "manifest": build_stats(params).manifest("full" if built else "stats-only"),
        "children": [
            verify_minor_free(params),
            verify_not_colorable(params, mode=mode, built=built, rows=rows),
        ],
    }
    if built:
        bundle["degeneracy"] = verify_degeneracy(params, built[0], rows)
    return bundle


def lower_bound_table() -> dict[int, dict]:
    """Choice-number lower bounds by forbidden clique order p in [3,11].

    Rows t = 1..3 of the three cases hit each such p once, and the
    witness instance is not q-choosable, so the choice number of
    K_p-minor-free graphs is at least q+1."""
    rows = [params_for(case, t) for case in CASES for t in (1, 2, 3)]
    return {
        pp.p: {
            "p": pp.p,
            "lower_bound": pp.q + 1,
            "case": pp.case,
            "t": pp.t,
            "q": pp.q,
            "r": pp.r,
        }
        for pp in sorted(rows, key=lambda pp: pp.p)
    }
