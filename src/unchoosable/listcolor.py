"""List-coloring decisions on small graphs.

A list assignment gives every vertex a finite set of allowed colors.
The graph is L-colorable when a proper coloring exists that draws each
vertex's color from its own list.  The backtracking solver carries
per-vertex domains as bitmasks (color c lives at bit c-1), picks the
smallest remaining domain first, forward-checks neighbors, and splits
the uncolored subgraph into connected components so independent parts
never multiply.  All domain edits go through one global trail so a
failing component rolls back its siblings' work too.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidArgumentError, PreconditionError, SearchTimeout
from .graphio import load_json
from .graphs import Graph, _bits

# with a timeout the clock is read once per this many backtracks; every
# failed branch ends in one, so no long search goes unchecked
_TIMEOUT_CHECK_EVERY = 256


@dataclass(frozen=True)
class ListAssignment:
    """Immutable per-vertex color lists over palette [1, palette_size]."""

    palette_size: int
    lists: tuple[tuple[int, ...], ...]

    @classmethod
    def from_lists(
        cls, palette_size: int, lists: Iterable[Iterable[int]]
    ) -> "ListAssignment":
        if palette_size < 0:
            raise InvalidArgumentError(f"palette size must be >= 0, got {palette_size}")
        rows = []
        for v, row in enumerate(lists):
            colors = sorted(set(int(c) for c in row))
            for c in colors:
                if not (1 <= c <= palette_size):
                    raise InvalidArgumentError(
                        f"vertex {v} lists color {c}, outside [1,{palette_size}]"
                    )
            rows.append(tuple(colors))
        return cls(palette_size=palette_size, lists=tuple(rows))

    @property
    def n(self) -> int:
        return len(self.lists)

    def masks(self) -> list[int]:
        out = []
        for row in self.lists:
            m = 0
            for c in row:
                m |= 1 << (c - 1)
            out.append(m)
        return out

    def to_json_dict(self) -> dict:
        return {
            "palette_size": self.palette_size,
            "lists": {str(v): list(row) for v, row in enumerate(self.lists)},
        }

    @classmethod
    def from_json_dict(cls, doc: object) -> "ListAssignment":
        """Inverse of `to_json_dict`; InvalidArgumentError for any other
        JSON value."""
        raw = doc.get("lists") if isinstance(doc, dict) else None
        if not isinstance(raw, dict) or type(doc.get("palette_size")) is not int:
            raise InvalidArgumentError(
                "list assignment needs an integer palette_size and lists"
            )
        rows = [raw.get(str(v)) for v in range(len(raw))]
        if not all(type(r) is list and all(type(c) is int for c in r) for r in rows):
            raise InvalidArgumentError(
                "lists must be keyed by the ids 0..n-1, each an array of integer colors"
            )
        return cls.from_lists(doc["palette_size"], rows)


def precoloring_from_json_dict(doc: object) -> dict[int, int]:
    """Parse an object of decimal vertex id -> integer color; `l_colorable`
    range-checks both.  InvalidArgumentError for any other JSON value."""
    if not isinstance(doc, dict) or not all(
        k.isascii() and k.isdecimal() and str(int(k)) == k and type(c) is int
        for k, c in doc.items()
    ):
        raise InvalidArgumentError("precoloring must map vertex ids to integer colors")
    return {int(k): c for k, c in doc.items()}


@dataclass(frozen=True)
class SolveResult:
    colorable: bool
    coloring: tuple[int, ...] | None
    backtracks: int


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
    domains = la.masks()
    if precoloring:
        for v, c in precoloring.items():
            if not (0 <= v < g.n):
                raise InvalidArgumentError(f"precolored vertex {v} out of range")
            if c not in la.lists[v]:
                raise PreconditionError(
                    f"precoloring pins vertex {v} to {c}, not in its list"
                )
            domains[v] = 1 << (c - 1)

    adj = g.adj
    colored = [False] * g.n
    result = [0] * g.n
    trail: list[tuple[int, int]] = []  # (vertex, previous domain)
    backtracks = 0

    def set_domain(v: int, mask: int) -> None:
        trail.append((v, domains[v]))
        domains[v] = mask

    def rewind(mark: int) -> None:
        while len(trail) > mark:
            v, old = trail.pop()
            domains[v] = old

    def assign(v: int, bit: int) -> bool:
        # returns False if a neighbor domain empties
        colored[v] = True
        result[v] = bit.bit_length()
        for u in _bits(adj[v]):
            if not colored[u] and domains[u] & bit:
                left = domains[u] & ~bit
                if not left:
                    return False
                set_domain(u, left)
        return True

    def components(live_mask: int) -> list[int]:
        comps = []
        rest = live_mask
        while rest:
            comp = rest & -rest
            while True:
                grow = 0
                for v in _bits(comp):
                    grow |= adj[v]
                grow &= rest & ~comp
                if not grow:
                    break
                comp |= grow
            comps.append(comp)
            rest &= ~comp
        return comps

    def solve(live_mask: int) -> bool:
        nonlocal backtracks
        if live_mask == 0:
            return True
        parts = components(live_mask)
        if len(parts) > 1:
            mark = len(trail)
            undo: list[int] = []
            for comp in parts:
                if not solve(comp):
                    for v in undo:
                        colored[v] = False
                    rewind(mark)
                    return False
                undo.extend(_bits(comp))
            return True
        comp = parts[0]
        best, best_count = -1, 1 << 62
        for v in _bits(comp):
            cnt = domains[v].bit_count()
            if cnt < best_count:
                best, best_count = v, cnt
                if cnt <= 1:
                    break
        if best_count == 0:
            return False
        v = best
        rest = comp & ~(1 << v)
        dom = domains[v]
        for c in _bits(dom):
            bit = 1 << c
            mark = len(trail)
            if assign(v, bit) and solve(rest):
                return True
            colored[v] = False
            rewind(mark)
            backtracks += 1
            if deadline is not None and backtracks % _TIMEOUT_CHECK_EVERY == 0:
                if time.monotonic() > deadline:
                    raise SearchTimeout("coloring search exceeded its time budget")
        return False

    live = 0
    for v in range(g.n):
        if domains[v] == 0:
            return SolveResult(False, None, 0)
        live |= 1 << v
    if solve(live):
        return SolveResult(True, tuple(result), backtracks)
    return SolveResult(False, None, backtracks)


def read_list_assignment(path: str) -> ListAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        doc = load_json(fh.read())
    return ListAssignment.from_json_dict(doc)


def write_list_assignment(la: ListAssignment, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(la.to_json_dict(), fh, indent=2)
        fh.write("\n")
