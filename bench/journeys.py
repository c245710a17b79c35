"""The three benchmark workloads, run in a fresh process.

Usage: python3 bench/journeys.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a list of units (one instance or one query), each a
sequence of timed steps that call the package the way its command-line
tools do, plus an untimed check of the result against bench/oracles.py.
Passes over all units repeat until the time is up.  A step's figure is
its fastest repetition: on a shared two-core machine most repetitions
run slowed by neighbours, and only steps that finish within the short
stretches of full speed give a steady minimum, so every unit is kept to
tens of milliseconds.  Prints one JSON line with the per-step minima
(or, with --trace 1, the per-layer summary) and the peak RSS.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402
from unchoosable import (  # noqa: E402
    certificates,
    construction,
    graphio,
    graphs,
    listcolor,
    minors,
)

# Tool queries, drawn from the seed (criterion 7iii's distribution for
# the minor part, 7ii's for the small coloring part).
MINOR_PAIRS = 2000
SIDE_MAX_N = 7  # 7iii draws up to 8
PASTED_MAX_N = 7  # query cost is heavy-tailed in the size; see README.md
COLOR_SMALL = 400
CYCLE_BANDS = (30, 50, 70, 90)  # one even and one odd cycle per band


@dataclass
class Unit:
    """One instance or query: timed steps, then an untimed check."""

    workload: str
    label: str
    steps: list  # (group, span name or None, fn(state))
    check: object  # fn(state) -> str | None (None means correct)
    tamper: object = None  # fn(certificate) -> copy the checker must reject
    minor: bool = False  # a minor query, whose witness can be tampered
    best: list = field(default_factory=list)  # per-step minimum seconds
    best_total: float = float("inf")  # fastest traced repetition
    layers: dict = field(default_factory=dict)  # its span summary
    spans: list = field(default_factory=list)  # and its spans


# --- compositional and direct ---------------------------------------------


def _construction_unit(workload: str, case: str, t: int, rng: random.Random) -> Unit:
    params = construction.params_for(case, t)
    want = oracles.construction_counts(case, t)
    direct = workload == "direct"
    mode = "direct" if direct else "compositional"
    first: dict = {}

    def verify(st):
        st["cert"] = construction.verify_construction(params, mode=mode)

    def dump(st):
        st["text"] = json.dumps(st["cert"])

    def parse(st):
        st["doc"] = json.loads(st["text"])

    def check_cert(st):
        st["res"] = certificates.check_certificate(st["doc"])

    steps = []
    if direct:

        def build(st):
            st["g"], st["la"] = construction.build(params)

        def write_g6(st):
            st["g6"] = graphio.write_graph6(st["g"])

        def write_lists(st):
            st["lists_text"] = json.dumps(st["la"].to_json_dict())

        def read_g6(st):
            st["g_back"] = graphio.read_graph6(st["g6"])

        def read_lists(st):
            st["la_back"] = listcolor.ListAssignment.from_json_dict(
                json.loads(st["lists_text"])
            )

        steps += [
            ("build", None, build),
            ("write", None, write_g6),
            ("write", "graphio.json", write_lists),
            ("read", None, read_g6),
            ("read", "graphio.json", read_lists),
        ]
    steps += [
        ("verify", None, verify),
        ("dump", "certificates.json_dump", dump),
        ("check", "certificates.json_parse", parse),
        ("check", None, check_cert),
    ]

    def check(st):
        if not st["res"].ok:
            return f"certificate rejected: {st['res'].reason}"
        if "text" not in first:
            problem = _check_bundle(st["cert"], want, mode)
            if problem:
                return problem
            first["text"] = st["text"]
        elif st["text"] != first["text"]:
            return "certificate differs between repetitions"
        if direct:
            g, la = st["g"], st["la"]
            if (g.n, g.m) != (want["n_vertices"], want["n_edges"]):
                return f"built {g.n} vertices, {g.m} edges"
            if any(len(row) != want["q"] for row in la.lists):
                return "a list does not have q colors"
            if "g6" not in first:
                first["g6"] = oracles.graph6(g.n, g.edges)
            if st["g6"] != first["g6"]:
                return "graph6 output differs from the reference encoding"
            if st["g_back"].edges != g.edges or st["la_back"] != la:
                return "graph or lists changed in the round trip"
        return None

    return Unit(workload, f"{case}{t}", steps, check, tamper=_tamper_bundle(rng, direct))


def _check_bundle(cert: dict, want: dict, mode: str) -> str | None:
    man = cert["manifest"]
    for key in ("p", "q", "r", "n_vertices", "n_edges", "n_gadgets"):
        if man[key] != want[key]:
            return f"manifest {key}={man[key]}, expected {want[key]}"
    kinds = sorted(c["kind"] for c in cert["children"])
    if kinds != ["compositional-pasting", "non-colorability"]:
        return f"bundle children {kinds}"
    color = next(c for c in cert["children"] if c["kind"] == "non-colorability")
    if color["total_vectors"] != want["q"] ** want["r"] or color["mode"] != mode:
        return "non-colorability certificate covers the wrong vectors"
    if mode == "compositional":
        if color["covered"] != want["q"] ** want["r"]:
            return f"classes cover {color['covered']} vectors"
        if not all(e["blocked"] for e in color["classes"]):
            return "a class is not blocked"
    elif cert["degeneracy"]["degeneracy"] > want["q"]:
        return "degeneracy above q"
    return None


def _tamper_bundle(rng: random.Random, direct: bool):
    """A copy the checker must reject: one manifest count changed
    (direct) or one pattern class dropped (compositional)."""
    key = rng.choice(["n_vertices", "n_edges", "n_gadgets"])
    pick = rng.random()

    def tamper(cert: dict) -> dict:
        bad = json.loads(json.dumps(cert))
        if direct:
            bad["manifest"][key] += 1
        else:
            classes = bad["children"][1]["classes"]
            del classes[int(pick * len(classes))]
        return bad

    return tamper


# --- tool queries ------------------------------------------------------------


def _minor_unit(label, sides, cliques, t, want, expect_graph) -> Unit:
    """`sides` are graph6 texts; two sides are pasted on `cliques`."""
    n, edges = expect_graph

    def read(i, key):
        def step(st):
            st[key] = graphio.read_graph6(sides[i])

        return step

    def paste(st):
        st["q"] = graphs.paste(st["g0"], cliques[0], st["g1"], cliques[1])

    def minor(st):
        st["ans"] = minors.has_clique_minor(st["q"], t)

    def check_witness(st):
        st["res"] = None
        if st["ans"].contains:
            doc = {"kind": "branch-set-positive"}
            doc.update(st["ans"].witness.to_json_dict())
            st["doc"] = doc
            st["res"] = certificates.check_certificate(doc, st["q"])

    if len(sides) == 2:
        steps = [("input", None, read(0, "g0")), ("input", None, read(1, "g1")),
                 ("paste", None, paste)]
    else:
        steps = [("input", None, read(0, "q"))]
    steps += [("minor", None, minor), ("check", None, check_witness)]

    verified: dict = {}  # a repeated, already verified answer is not re-checked

    def check(st):
        g, ans = st["q"], st["ans"]
        res = st["res"]
        key = (g.n, g.edges, ans.contains, ans.witness, res.ok if res else None)
        if verified.get("key") == key:
            return None
        if g.n != n or list(g.edges) != edges:
            return "graph differs from the reference clique-sum"
        if ans.contains != want:
            return f"K_{t} minor answer {ans.contains}, expected {want}"
        if want:
            if not oracles.witness_ok(n, edges, t, ans.witness.branch_sets):
                return "invalid branch-set witness"
            if not res.ok:
                return "valid witness rejected by check_certificate"
        verified["key"] = key
        return None

    return Unit("tool-queries", label, steps, check, minor=True)


def _color_unit(label, n, edges, palette, lists, want) -> Unit:
    text = oracles.graph6(n, edges)
    sorted_edges = tuple(sorted(edges))
    lists_text = json.dumps(
        {"palette_size": palette, "lists": {str(v): row for v, row in enumerate(lists)}}
    )

    def read_graph(st):
        st["g"] = graphio.read_graph6(text)

    def read_lists(st):
        st["la"] = listcolor.ListAssignment.from_json_dict(json.loads(lists_text))

    def color(st):
        st["res"] = listcolor.l_colorable(st["g"], st["la"])

    verified: dict = {}  # a repeated, already verified answer is not re-checked

    def check(st):
        res = st["res"]
        key = (st["g"].edges, st["la"], res.colorable, res.coloring)
        if verified.get("key") == key:
            return None
        if st["g"].n != n or st["g"].edges != sorted_edges or st["la"].lists != tuple(map(tuple, lists)):
            return "graph or lists differ from the query"
        if res.colorable != want:
            return f"colorable={res.colorable}, expected {want}"
        if want and not oracles.coloring_ok(n, edges, lists, res.coloring):
            return "returned coloring is improper or off-list"
        verified["key"] = key
        return None

    steps = [
        ("input", None, read_graph),
        ("input", "graphio.json", read_lists),
        ("color", None, color),
    ]
    return Unit("tool-queries", label, steps, check)


def _tool_units(rng: random.Random) -> list[Unit]:
    units = []
    pairs = 0
    while pairs < MINOR_PAIRS:
        n1, n2 = rng.randint(3, SIDE_MAX_N), rng.randint(3, SIDE_MAX_N)
        e1 = oracles.random_edges(rng, n1, 0.45)
        e2 = oracles.random_edges(rng, n2, 0.45)
        k = rng.randint(1, 3)
        c1 = oracles.random_clique(rng, n1, e1, k)
        c2 = oracles.random_clique(rng, n2, e2, k)
        if c1 is None or c2 is None:
            continue
        t = rng.randint(3, 6)
        h1 = oracles.has_clique_minor(n1, e1, t)
        h2 = oracles.has_clique_minor(n2, e2, t)
        g1, g2 = oracles.graph6(n1, e1), oracles.graph6(n2, e2)
        units.append(_minor_unit(f"m{pairs}a", [g1], None, t, h1, (n1, e1)))
        units.append(_minor_unit(f"m{pairs}b", [g2], None, t, h2, (n2, e2)))
        if n1 + n2 - k <= PASTED_MAX_N:
            # a clique-sum has a K_t minor iff one of its sides has
            pasted = oracles.clique_sum(n1, e1, c1, n2, e2, c2)
            units.append(
                _minor_unit(f"m{pairs}p", [g1, g2], (c1, c2), t, h1 or h2, pasted)
            )
        pairs += 1
    for i in range(COLOR_SMALL):
        n = rng.randint(1, 9)
        edges = oracles.random_edges(rng, n, rng.choice([0.3, 0.5, 0.7]))
        palette = rng.randint(1, 4)
        lists = [
            sorted(rng.sample(range(1, palette + 1), rng.randint(1, min(3, palette))))
            for _ in range(n)
        ]
        want = oracles.list_colorable(n, edges, lists)
        units.append(_color_unit(f"c{i}", n, edges, palette, lists, want))
    for lo in CYCLE_BANDS:
        even = rng.randrange(lo, lo + 10, 2)
        for n in (even, even + 1):  # 2-colorable exactly when even
            edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
            units.append(_color_unit(f"cycle{n}", n, edges, 2, [[1, 2]] * n, n % 2 == 0))
    rng.shuffle(units)
    return units


def _tamper_witness(st: dict) -> dict:
    """Overlapping branch sets: the checker must reject."""
    doc = json.loads(json.dumps(st["doc"]))
    sets = doc["branch_sets"]
    sets[1].append(sets[0][0])
    return doc


def make_units(workload: str, seed: int) -> list[Unit]:
    rng = random.Random(seed)
    if workload == "tool-queries":
        return _tool_units(rng)
    units = [
        _construction_unit(workload, row[0], int(row[1:]), rng)
        for row in oracles.ROWS[workload]
    ]
    rng.shuffle(units)
    return units


# --- running -------------------------------------------------------------


class Runner:
    def __init__(self, units: list[Unit]):
        self.units = units
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = tracing.Tracer()
        self.last_state: dict[int, dict] = {}

    def run_unit(self, i: int, unit: Unit, traced: bool) -> None:
        self.attempted += 1
        st: dict = {}
        times = []
        tracer = self.tracer
        try:
            if traced:
                tracer.reset()
                with tracer.span("unit"):
                    for _, span, fn in unit.steps:
                        if span:
                            with tracer.span(span):
                                fn(st)
                        else:
                            fn(st)
                total = tracer.spans[0][4] - tracer.spans[0][3]
                if total < unit.best_total:
                    unit.best_total = total
                    unit.layers = tracing.summarize(tracer.spans)
                    unit.spans = tracer.spans
            else:
                for _, _, fn in unit.steps:
                    t0 = time.perf_counter()
                    fn(st)
                    times.append(time.perf_counter() - t0)
            problem = unit.check(st)
        except Exception as exc:  # any raise is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{unit.workload}/{unit.label}: {problem}")
            return
        if times:
            unit.best = times if not unit.best else [min(a, b) for a, b in zip(unit.best, times)]
        self.last_state[i] = st

    def run_pass(self, traced: bool) -> float:
        t0 = time.perf_counter()
        if traced:
            self.tracer.install()
        try:
            for i, unit in enumerate(self.units):
                self.run_unit(i, unit, traced)
        finally:
            self.tracer.restore()
        return time.perf_counter() - t0

    def tamper_probes(self, workload: str, rng: random.Random) -> None:
        """Untimed: each tampered certificate must come back rejected."""
        if workload == "tool-queries":
            positives = [
                (u, self.last_state[i]) for i, u in enumerate(self.units)
                if i in self.last_state and self.last_state[i].get("res") is not None
                and u.minor
            ]
            probes = [
                (u, _tamper_witness(st), st["q"])
                for u, st in rng.sample(positives, min(3, len(positives)))
            ]
        else:
            probes = [
                (u, u.tamper(self.last_state[i]["cert"]), None)
                for i, u in enumerate(self.units) if i in self.last_state
            ]
        for unit, bad, graph in probes:
            self.attempted += 1
            try:
                res = certificates.check_certificate(bad, graph)
                if res.ok:
                    self.failures.append(f"{unit.workload}/{unit.label}: tampered copy accepted")
            except Exception as exc:
                self.failures.append(f"{unit.workload}/{unit.label}: tamper probe raised {exc!r}")


def untraced_summary(units: list[Unit]) -> dict[str, dict[str, float]]:
    """Per unit, the fastest time of each step group, summed."""
    out: dict[str, dict[str, float]] = {}
    for unit in units:
        groups = out.setdefault(unit.label, {})
        for (group, _, _), t in zip(unit.steps, unit.best):
            groups[group] = groups.get(group, 0.0) + t
    return out


def traced_summary(units: list[Unit]) -> dict:
    total: dict[str, float] = {}
    minor_unit_s = []
    rows: dict[str, dict] = {}
    for unit in units:
        for k, v in unit.layers.items():
            total[k] = total.get(k, 0) + v
        if "minors.has_clique_minor.s" in unit.layers:
            minor_unit_s.append(unit.layers["minors.has_clique_minor.s"])
        rows[unit.label] = {
            "s": unit.layers.get("root.s", 0.0),
            "nodes": unit.layers.get("minors.has_clique_minor.nodes", 0),
        }
    return {
        "layers": total,
        "minor_unit_s": minor_unit_s,
        "rows": rows,
        "traced_s": sum(u.best_total for u in units),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    args = ap.parse_args(argv)

    units = make_units(args.workload, args.seed)
    runner = Runner(units)

    start = time.perf_counter()
    passes, last = 0, 0.0
    traced = False
    while passes < 2 or time.perf_counter() - start + last <= args.seconds:
        if args.trace:
            traced = not traced  # alternate, so overhead compares like with like
        last = runner.run_pass(traced)
        passes += 1
    runner.tamper_probes(args.workload, random.Random(args.seed ^ 0x5EED))

    out = {
        "workload": args.workload,
        "passes": passes,
        "units": len(units),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "cert_bytes": sum(
            len(st.get("text", "")) for st in runner.last_state.values()
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "untraced": untraced_summary(units),
    }
    if args.trace:
        out["traced"] = traced_summary(units)
        out["traced"]["adj_bytes"] = runner.tracer.adj_bytes
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for unit in units:
                    for s in unit.spans:
                        fh.write(json.dumps([unit.label] + s) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
