"""List-coloring decisions.

A list assignment gives every vertex a finite set of allowed colors.
It holds one sorted tuple per distinct list, shared by every vertex
that has that list: the construction names only q+1 distinct lists,
however many vertices it has.  `ListAssignment.from_lists` makes each
row a tuple key, sorts, deduplicates and range-checks each distinct key
once, and hands every vertex its key's tuple with one dict operation;
only when a key fails does it name the vertex, the first that has it.
`from_json_dict` checks the JSON types of every row and entry first, in
one pass over the rows and one over their entries.

The graph is L-colorable when a proper coloring exists that draws each
vertex's color from its own list.  The backtracking solver numbers the
colors that some list names in ascending order and holds the domains
as one vertex mask per color (`has[i]`: the vertices whose domain
still holds color i) and one per domain size (`by_size[k]`).  It picks
the smallest remaining domain first (lowest id on ties), and forward
checks with one AND per color tried: `hit = adj[v] & uncolored & has[i]`
are the uncolored neighbours that lose color i, the color fails if one
of them is in `by_size[1]`, and otherwise all of them lose it at once
and only the size classes that `hit` meets move down by one.  A
vertex's domain is read from `has` only when it becomes a choice point.
The connected components of the uncolored subgraph are solved one at a
time, so independent parts never multiply.

The search keeps an explicit stack and never recurses, so its depth is
not bounded by Python's recursion limit.  One `uncolored` mask says
what is left.  A goal is a (part, cut) pair: once no vertex of the part
is uncolored, the choice points made inside it, above `cut`, are
dropped, so a later failure backs up to the vertex whose coloring split
it off.  After a vertex is colored, the rest of its part is re-split
(`graphs.components`), the parts going on top of the goal list, only
when that vertex was a cut vertex: it had two or more uncolored
neighbors and a search from one of them does not reach all the others
(`graphs.reaches_all`).  Each coloring pushes one `(vertex, color,
hit)` entry on one global trail, and undoing it restores the vertex to
`uncolored` and the color to `hit`, so a failing component rolls back
its siblings' work too.  A choice point is [vertex, untried colors,
trail mark, goals] and holds no mask of its own, and `hit` is kept
shifted down to its lowest vertex, so memory is linear on a long forced
chain: a 2-color path of 2·10⁴ vertices peaks at 5.6 MB traced besides
its n²/16 bytes of adjacency masks.

The parts of a split are solved tightest first: fewest colors whose
mask meets the part, split order (lowest vertex) on ties, with the keys
taken once when the choice point is made.  A part that cannot be
colored is then usually met before its colorable siblings are solved,
which the vertex that split them would otherwise redo under each of its
colors.  The last split is kept as one (rest, parts) pair, so a later
choice point that leaves the same rest reuses its parts instead of
searching them out again.  The order changes no answer: parts share no
edges, so each part's first coloring does not depend on when it is
solved, and a split vertex still keeps its first color under which
every part is colorable.  Only the backtrack count can differ, where a
failing part used to come after others.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidArgumentError, PreconditionError, SearchTimeout
from .graphs import Graph, adjacency_masks, components, reaches_all, union_over

# with a timeout the clock is read once per this many backtracks; every
# failed branch ends in one, so no long search goes unchecked
_TIMEOUT_CHECK_EVERY = 256


class ListAssignment(NamedTuple):
    """Immutable per-vertex color lists over palette [1, palette_size].

    Equal lists are one shared tuple, in every assignment that
    `from_lists`, `from_json_dict` or `construction.build` makes: the
    first two sort and range-check each distinct row once, and `build`
    lays its rows out from its q+1 tuples.  `to_json_dict` gives each
    vertex a list of its own, so the document it returns aliases none."""

    palette_size: int
    lists: tuple[tuple[int, ...], ...]

    @classmethod
    def from_lists(
        cls, palette_size: int, lists: Iterable[Iterable[int]]
    ) -> "ListAssignment":
        if palette_size < 0:
            raise InvalidArgumentError(f"palette size must be >= 0, got {palette_size}")
        keys = list(map(tuple, lists))
        # first[v]: the first vertex whose row equals v's.  `seen` holds
        # the distinct rows in order of first appearance, so the first bad
        # one is the first bad vertex's.
        seen: dict[tuple, int] = {}
        first = list(map(seen.setdefault, keys, range(len(keys))))
        made: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal tuples shared
        for key, v in seen.items():
            colors = tuple(sorted(set(map(int, key))))
            # sorted, so the ends decide; the scan names the least bad color
            if colors and (colors[0] < 1 or colors[-1] > palette_size):
                c = next(c for c in colors if not (1 <= c <= palette_size))
                raise InvalidArgumentError(
                    f"vertex {v} lists color {c}, outside [1,{palette_size}]"
                )
            keys[v] = made.setdefault(colors, colors)  # read through `first`
        return cls(palette_size=palette_size, lists=tuple(map(keys.__getitem__, first)))

    @property
    def n(self) -> int:
        return len(self.lists)

    def to_json_dict(self) -> dict:
        return {
            "palette_size": self.palette_size,
            "lists": {str(v): list(row) for v, row in enumerate(self.lists)},
        }

    @classmethod
    def from_json_dict(cls, doc: object) -> "ListAssignment":
        """Inverse of `to_json_dict`; InvalidArgumentError for any other
        JSON value.  Every row and entry is type-checked before
        `from_lists` makes the rows keys: checked per distinct key, a row
        `[true]` would pass behind an equal `[1]`."""
        raw = doc.get("lists") if isinstance(doc, dict) else None
        if not isinstance(raw, dict) or type(doc.get("palette_size")) is not int:
            raise InvalidArgumentError(
                "list assignment needs an integer palette_size and lists"
            )
        rows = [raw.get(str(v)) for v in range(len(raw))]
        if not (
            {list}.issuperset(map(type, rows))
            and {int}.issuperset(map(type, chain.from_iterable(rows)))
        ):
            raise InvalidArgumentError(
                "lists must be keyed by the ids 0..n-1, each an array of integer colors"
            )
        return cls.from_lists(doc["palette_size"], rows)


def precoloring_from_json_dict(doc: object) -> dict[int, int]:
    """Parse an object of decimal vertex id -> integer color; `l_colorable`
    range-checks both.  InvalidArgumentError for any other JSON value."""
    try:
        ok = isinstance(doc, dict) and all(
            k.isascii() and k.isdecimal() and str(int(k)) == k and type(c) is int
            for k, c in doc.items()
        )
    except ValueError:  # an id past Python's int digit limit
        ok = False
    if not ok:
        raise InvalidArgumentError("precoloring must map vertex ids to integer colors")
    return {int(k): c for k, c in doc.items()}


class SolveResult(NamedTuple):
    colorable: bool
    coloring: tuple[int, ...] | None
    backtracks: int


def l_colorable(
    g: Graph,
    la: ListAssignment,
    precoloring: Mapping[int, int] | None = None,
    timeout: float | None = None,
) -> SolveResult:
    """Decide L-colorability; on success the coloring is proper and
    list-respecting.  `precoloring` pins vertices to single colors and
    must agree with their lists.  With a `timeout` (seconds), raises
    SearchTimeout once the search runs past it."""
    deadline = None if timeout is None else time.monotonic() + timeout
    if la.n != g.n:
        raise InvalidArgumentError(
            f"list assignment covers {la.n} vertices, graph has {g.n}"
        )
    pins = precoloring or {}
    for v, c in pins.items():
        if not (0 <= v < g.n):
            raise InvalidArgumentError(f"precolored vertex {v} out of range")
        if c not in la.lists[v]:
            raise PreconditionError(
                f"precoloring pins vertex {v} to {c}, not in its list"
            )
    # color i is the i-th smallest color in use: a list may name a color
    # far above the rest, and a mask per color up to it would cost c masks
    colors = sorted({c for row in la.lists for c in row})
    index = {c: i for i, c in enumerate(colors)}
    # has[i]: the vertices whose domain holds color i.  by_size[k]: the
    # vertices whose domain has k colors; forward checking never empties
    # a domain, so by_size[0] stays 0 once the search starts.
    has = [0] * len(colors)
    domains = _Domains(has, index, la.lists)
    by_size = [0] * (domains.widest + 1)
    for v, row in enumerate(la.lists):
        if v in pins:
            row = (pins[v],)
        ub = 1 << v
        for c in row:
            has[index[c]] |= ub
        by_size[len(row)] |= ub
    if by_size[0]:
        return SolveResult(False, None, 0)
    # bit k set iff by_size[k] is not empty
    filled = sum(1 << k for k, vs in enumerate(by_size) if vs)

    adj = adjacency_masks(g)
    result = [0] * g.n
    uncolored = (1 << g.n) - 1
    # one (vertex, color, hit >> shift, shift) entry per coloring, `hit`
    # shifted down to its lowest vertex: whole n-bit masks would add
    # about n²/8 bytes on a long forced chain
    trail: list[tuple[int, int, int, int]] = []
    # a choice point: [vertex, untried colors, trail mark, goals after it]
    choices: list[list] = []
    backtracks = 0
    # the last split made and its parts: a choice point that leaves the
    # same rest reuses them instead of searching the rest again
    split_rest, split_parts = 0, []

    goals = _push_parts(_order(components(adj, uncolored), domains), 0, None)
    while goals is not None:
        part, cut, below = goals
        comp = part & uncolored
        if not comp:  # the part is solved: drop its choice points
            del choices[cut:]
            goals = below
            continue
        # smallest domain first, lowest id on ties
        k = 1
        while not by_size[k] & comp:
            k += 1
        low = by_size[k] & comp
        low &= -low
        v = low.bit_length() - 1
        rest = comp ^ low
        live = adj[v] & rest
        # the rest stays connected unless v was a cut vertex; its parts,
        # tightest first, cut back to just above v's choice point, go on
        # top.  The last split's rest is known not to be connected.
        if rest == split_rest or live & (live - 1) and not reaches_all(adj, rest, live):
            if rest != split_rest:
                split_rest, split_parts = rest, components(adj, rest)
            goals = _push_parts(_order(split_parts, domains), len(choices) + 1, goals)
        cp = [v, domains[v], len(trail), goals]
        choices.append(cp)
        # descend into the first color that survives forward checking,
        # backing up the choice points as their colors run out
        while True:
            v, untried = cp[0], cp[1]
            if untried:
                bit = untried & -untried
                cp[1] = untried ^ bit
                i = bit.bit_length() - 1
                result[v] = i
                # the uncolored neighbours that still have color i: all
                # lose it at once, unless one of them has nothing else
                hit = adj[v] & uncolored & has[i]
                if not hit & by_size[1]:
                    uncolored ^= 1 << v
                    shift = (hit & -hit).bit_length() - 1 if hit else 0
                    trail.append((v, i, hit >> shift, shift))
                    if hit:
                        has[i] ^= hit
                        filled = _move(by_size, filled, hit, -1)
                    goals = cp[3]
                    break
            else:
                choices.pop()
                if not choices:
                    return SolveResult(False, None, backtracks)
                cp = choices[-1]
            mark = cp[2]
            while len(trail) > mark:
                u, i, hit, shift = trail.pop()
                uncolored |= 1 << u
                if hit:
                    hit <<= shift
                    has[i] |= hit
                    filled = _move(by_size, filled, hit, 1)
            backtracks += 1
            if deadline is not None and backtracks % _TIMEOUT_CHECK_EVERY == 0:
                if time.monotonic() > deadline:
                    raise SearchTimeout("coloring search exceeded its time budget")
    return SolveResult(True, tuple(colors[i] for i in result), backtracks)


class _Domains:
    """Vertex v's domain as a color mask (bit i for color i), read from
    the per-color vertex masks `has` through v's list, so nothing per
    vertex is stored or kept up to date."""

    __slots__ = ("has", "index", "lists", "widest")

    def __init__(self, has: list[int], index: dict[int, int], lists) -> None:
        self.has, self.index, self.lists = has, index, lists
        self.widest = max(map(len, lists), default=0)

    def __getitem__(self, v: int) -> int:
        ub, domain = 1 << v, 0
        for c in self.lists[v]:
            i = self.index[c]
            if self.has[i] & ub:
                domain |= 1 << i
        return domain


def _order(parts: list[int], domains: _Domains) -> list[int]:
    """`parts` by the number of colors that some vertex of theirs still
    has, fewest first; ties keep their order.  A part is keyed by one AND
    per color or, when its vertices have fewer list entries in all than
    there are colors, by the union of their domains: many small parts
    under many colors then cost their vertices, not parts times colors."""
    if len(parts) < 2:
        return parts
    has = domains.has
    keys = [
        sum(1 for h in has if h & comp)
        if comp.bit_count() * domains.widest >= len(has)
        else union_over(domains, comp).bit_count()
        for comp in parts
    ]
    return [parts[i] for i in sorted(range(len(parts)), key=keys.__getitem__)]


def _move(by_size: list[int], filled: int, hit: int, step: int) -> int:
    """Move every vertex of `hit` from its size class k to k + step,
    visiting only the classes that `filled` marks as non-empty, so a
    long list costs no walk over the sizes it does not have; returns the
    updated `filled`."""
    k = 0 if step > 0 else 1  # no vertex of class 1 is ever hit
    while hit:
        above = filled >> (k + 1)
        k += (above & -above).bit_length()
        moved = by_size[k] & hit
        if moved:
            hit ^= moved
            by_size[k] ^= moved
            by_size[k + step] |= moved
            filled |= 1 << (k + step)
            if not by_size[k]:
                filled ^= 1 << k
    return filled


def _push_parts(parts: list[int], cut: int, goals: tuple | None) -> tuple | None:
    """Put `parts` on the goal list in order as (part, cut, below) entries."""
    for part in reversed(parts):
        goals = (part, cut, goals)
    return goals
