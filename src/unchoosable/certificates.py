"""Re-validation of emitted certificates.

A certificate is a plain JSON document.  Checking one re-derives every
claim it makes: positive minor witnesses are re-verified structurally,
counting bounds re-counted over their partition, exhaustive negatives
re-searched, pasting certificates rebuilt from the stated parameters,
and compositional non-colorability certificates checked against the two
color classes recomputed from the parameters, entry for entry, with
each representative re-solved.  Nothing is trusted from the
payload beyond the instance parameters; a tampered certificate (a
flipped witness vertex, a dropped, duplicated or resized class) must
come back rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .construction import (
    build,
    build_stats,
    color_pattern_classes,
    gadget_blocked_detail,
    gadget_template,
    params_for,
)
from .errors import InvalidArgumentError
from .graphs import Graph, degeneracy
from .listcolor import l_colorable
from .minors import (
    BranchSetWitness,
    check_witness,
    counting_bound,
    has_clique_minor,
)

KINDS = (
    "branch-set-positive",
    "counting-bound",
    "exhaustive-negative",
    "compositional-pasting",
    "non-colorability",
    "construction-verified",
)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str


def _fail(reason: str) -> CheckResult:
    return CheckResult(False, reason)


def _left(deadline: float | None) -> float | None:
    return None if deadline is None else max(deadline - time.monotonic(), 0.0)


def check_certificate(
    cert: dict, graph: Graph | None = None, timeout: float | None = None
) -> CheckResult:
    """Re-validate a certificate document.

    `graph` is required for kinds that talk about an externally supplied
    graph (branch-set-positive, bare counting-bound or
    exhaustive-negative); construction certificates carry their
    parameters and rebuild what they need.  With a `timeout` (seconds)
    every minor re-search and coloring re-solve shares that budget, and
    SearchTimeout is raised when it runs out."""
    deadline = None if timeout is None else time.monotonic() + timeout
    if not isinstance(cert, dict):
        return _fail("certificate must be a JSON object")
    kind = cert.get("kind")
    if kind is None and "branch_sets" in cert:
        kind = "branch-set-positive"  # bare minor witness file
    if kind not in KINDS:
        return _fail(f"unknown certificate kind {kind!r}")
    try:
        if kind == "branch-set-positive":
            return _check_branch_sets(cert, graph)
        if kind == "counting-bound":
            return _check_counting_bound(cert, graph)
        if kind == "exhaustive-negative":
            return _check_exhaustive_negative(cert, graph, deadline)
        if kind == "compositional-pasting":
            return _check_pasting(cert, deadline)
        if kind == "non-colorability":
            return _check_non_colorability(cert, deadline)
        return _check_bundle(cert, deadline)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed certificate: {exc}")


def _check_branch_sets(cert: dict, graph: Graph | None) -> CheckResult:
    if graph is None:
        return _fail("branch-set certificate needs the graph it talks about")
    witness = BranchSetWitness.from_json_dict(cert)
    if "t" in cert and int(cert["t"]) != len(witness.branch_sets):
        return _fail(
            f"witness claims t={cert['t']} but carries "
            f"{len(witness.branch_sets)} branch sets"
        )
    try:
        ok = check_witness(graph, witness)
    except InvalidArgumentError as exc:
        return _fail(str(exc))
    if not ok:
        return _fail("branch sets are not disjoint connected pairwise-adjacent")
    return CheckResult(True, f"valid K_{len(witness.branch_sets)} minor witness")


def _gadget_graph(cert: dict, graph: Graph | None) -> Graph | None:
    if graph is None and cert.get("scope") == "gadget-template":
        graph = gadget_template(params_for(cert["case"], int(cert["t"]))).graph
    return graph


def _check_counting_bound(cert: dict, graph: Graph | None) -> CheckResult:
    target = int(cert["target"])
    graph = _gadget_graph(cert, graph)
    if graph is None:
        return _fail("counting-bound certificate needs the graph")
    if int(cert["n"]) != graph.n:
        return _fail(f"certificate states n={cert['n']}, graph has {graph.n}")
    bound = counting_bound(graph, cert["partition"])
    if bound is None:
        return _fail("partition is not a partition of V into independent sets")
    if bound >= target:
        return _fail(
            f"counting bound {bound} does not exclude a K_{target} minor"
        )
    return CheckResult(
        True,
        f"counted: no K_{target} minor, every clique minor on {graph.n} "
        f"vertices has order at most {bound}",
    )


def _check_exhaustive_negative(
    cert: dict, graph: Graph | None, deadline: float | None
) -> CheckResult:
    target = int(cert["target"])
    graph = _gadget_graph(cert, graph)
    if graph is None:
        return _fail("exhaustive-negative certificate needs the graph")
    if "n" in cert and int(cert["n"]) != graph.n:
        return _fail(f"certificate states n={cert['n']}, graph has {graph.n}")
    ans = has_clique_minor(graph, target, timeout=_left(deadline))
    if ans.contains:
        return _fail(f"re-search found a K_{target} minor the certificate denies")
    return CheckResult(True, f"re-verified: no K_{target} minor on {graph.n} vertices")


def _check_pasting(cert: dict, deadline: float | None) -> CheckResult:
    params = params_for(cert["case"], int(cert["t"]))
    for key in ("p", "q", "r"):
        if int(cert[key]) != getattr(params, key):
            return _fail(
                f"stated {key}={cert[key]} disagrees with the parameter "
                f"table value {getattr(params, key)}"
            )
    tpl = gadget_template(params)
    glue = tuple(int(v) for v in cert["glue"])
    if glue != tpl.root_clique:
        return _fail(f"glue set {list(glue)} is not the template root clique")
    if not tpl.graph.is_clique(glue):
        return _fail("glue set is not a clique, pasting cannot bound the minor")
    if int(cert["n_gadgets"]) != params.q**params.r:
        return _fail(
            f"certificate pastes {cert['n_gadgets']} copies, construction "
            f"needs {params.q**params.r}"
        )
    children = cert.get("children", [])
    if not children:
        return _fail("pasting certificate carries no gadget certificate")
    for child in children:
        if child.get("kind") != "counting-bound":
            return _fail(f"unexpected child kind {child.get('kind')!r}")
        if (child.get("case"), child.get("t")) != (params.case, params.t):
            return _fail(
                f"child speaks of case {child.get('case')!r}, "
                f"t={child.get('t')!r}, pasting is case {params.case}, "
                f"t={params.t}"
            )
        if int(child["target"]) != params.p:
            return _fail(
                f"child certifies K_{child['target']}-freeness, pasting "
                f"needs K_{params.p}"
            )
        sub = _check_counting_bound(child, tpl.graph)
        if not sub.ok:
            return sub
    direct = cert.get("direct_agreement")
    if direct and direct.get("ran"):
        g, _ = build(params)
        if g.n != int(direct["n"]):
            return _fail(
                f"direct-agreement graph has {g.n} vertices, stated {direct['n']}"
            )
        if has_clique_minor(g, params.p, timeout=_left(deadline)).contains:
            return _fail("whole-graph re-search contradicts the certificate")
    return CheckResult(
        True,
        f"K_{params.p}-minor-freeness re-verified compositionally "
        f"({cert['n_gadgets']} copies)",
    )


def _check_non_colorability(cert: dict, deadline: float | None) -> CheckResult:
    params = params_for(cert["case"], int(cert["t"]))
    q, r = params.q, params.r
    mode = cert.get("mode")
    if mode == "direct":
        g, la = build(params)
        if g.n != int(cert["n"]):
            return _fail(f"stated n={cert['n']}, rebuilt graph has {g.n}")
        if l_colorable(g, la, timeout=_left(deadline)).colorable:
            return _fail("rebuilt graph is colorable, contradicting the certificate")
        return CheckResult(True, f"re-solved directly on {g.n} vertices: not colorable")
    if mode != "compositional":
        return _fail(f"unknown non-colorability mode {mode!r}")

    if int(cert["covered"]) != q**r:
        return _fail(f"certificate covers {cert['covered']} vectors, need {q**r}")
    entries = cert["classes"]
    stated = [
        (tuple(int(x) for x in e["representative"]), int(e["size"]))
        for e in entries
    ]
    expected = [
        (c.representative, c.size) for c in color_pattern_classes(params)
    ]
    if stated != expected:
        return _fail(f"classes differ from the recomputed classes {expected}")
    for (rep, _), e in zip(stated, entries):
        detail = gadget_blocked_detail(params, rep, timeout=_left(deadline))
        if not detail["blocked"]:
            return _fail(f"vector {rep} re-solves as completable")
        if detail["status"] != e.get("status"):
            return _fail(
                f"vector {rep} re-solves with status {detail['status']!r}, "
                f"certificate says {e.get('status')!r}"
            )
    return CheckResult(
        True,
        f"non-colorability re-verified over {len(entries)} classes "
        f"covering {q**r} vectors",
    )


def _check_bundle(cert: dict, deadline: float | None) -> CheckResult:
    man = cert["manifest"]
    params = params_for(man["case"], int(man["t"]))
    stats = build_stats(params)
    for key, want in (
        ("p", params.p),
        ("q", params.q),
        ("r", params.r),
        ("n_vertices", stats.n_vertices),
        ("n_edges", stats.n_edges),
        ("n_gadgets", stats.n_gadgets),
    ):
        if int(man[key]) != want:
            return _fail(f"manifest {key}={man[key]} disagrees with {want}")
    children = cert.get("children", [])
    kinds = [c.get("kind") for c in children]
    if "compositional-pasting" not in kinds or "non-colorability" not in kinds:
        return _fail("bundle must certify both minor-freeness and non-colorability")
    for child in children:
        sub = check_certificate(child, timeout=_left(deadline))
        if not sub.ok:
            return sub
    deg = cert.get("degeneracy")
    if deg is not None:
        if int(deg["bound"]) != params.q:
            return _fail(f"degeneracy bound {deg['bound']} is not q={params.q}")
        g, _ = build(params)
        fresh = degeneracy(g).degeneracy
        if fresh != int(deg["degeneracy"]) or fresh > params.q:
            return _fail(
                f"recomputed degeneracy {fresh} disagrees with the bundle "
                f"(stated {deg['degeneracy']}, bound {params.q})"
            )
    return CheckResult(
        True,
        f"construction bundle re-verified for case {params.case}, t={params.t}",
    )
