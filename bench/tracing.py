"""In-memory span recorder that wraps the package's layer functions from
outside.

Each wrapped function is replaced at every name the package's modules
bind it to (``construction`` and ``certificates`` import their
dependencies by name), so calls made inside the package are seen too.
`restore` puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

PACKAGE = "unchoosable"


def _minor_counts(res, args):
    return {"nodes": res.nodes, "positive": int(res.contains)}


def _color_counts(res, args):
    return {"backtracks": res.backtracks, "vertices": args[0].n}


def _build_counts(res, args):
    return {"vertices": res[0].n}


def _classes_counts(res, args):
    return {"classes": len(res)}


def _blocked_counts(res, args):
    return {"solver_runs": int(res["status"] != "improper-root")}


def _g6_counts(res, args):
    return {"g6_bytes": len(res)}


# (module, function, counters read from the return value)
LAYER_FUNCTIONS = (
    ("minors", "has_clique_minor", _minor_counts),
    ("listcolor", "l_colorable", _color_counts),
    ("graphs", "degeneracy", None),
    ("graphs", "paste", None),
    ("graphio", "write_graph6", _g6_counts),
    ("graphio", "read_graph6", None),
    ("construction", "build", _build_counts),
    ("construction", "color_pattern_classes", _classes_counts),
    ("construction", "gadget_blocked_detail", _blocked_counts),
    ("construction", "verify_construction", None),
    ("certificates", "check_certificate", None),
)


def _adj_bytes(g) -> int:
    adj = getattr(g, "__dict__", {}).get("adj")  # only if already computed
    return sum(sys.getsizeof(m) for m in adj) if adj is not None else 0


class Tracer:
    """Records spans ``[id, parent, name, start, end, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.adj_bytes = 0  # largest adjacency-mask footprint of one graph

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def install(self) -> None:
        for modname, fname, counts in LAYER_FUNCTIONS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            original = getattr(mod, fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, counts)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, attr, original))
                        setattr(other, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            s[5] = counts(res, args) if counts else {}
            if args and hasattr(args[0], "edges"):
                tracer.adj_bytes = max(tracer.adj_bytes, _adj_bytes(args[0]))
            return res

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-name totals for one span tree.

    ``<name>.s`` counts only the outermost span of each name (recursive
    calls would double-count), ``<name>.self_s`` is the span minus its
    children, ``<name>.calls`` counts every span, and counters are
    summed as ``<name>.<counter>``.  ``root.self_s`` is the time no
    layer span covered."""
    child_time = [0.0] * len(spans)  # span ids are their list indices
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    out: dict[str, float] = {}
    for s in spans:
        sid, parent, name = s[0], s[1], s[2]
        dur = s[4] - s[3]
        key = "root" if parent is None else name
        out[key + ".self_s"] = out.get(key + ".self_s", 0.0) + dur - child_time[sid]
        out[key + ".calls"] = out.get(key + ".calls", 0) + 1
        up, nested = parent, False
        while up is not None:
            if spans[up][2] == name:
                nested = True
                break
            up = spans[up][1]
        if not nested:
            out[key + ".s"] = out.get(key + ".s", 0.0) + dur
        for k, v in (s[5] or {}).items():
            out[f"{key}.{k}"] = out.get(f"{key}.{k}", 0) + v
    return out
