"""Re-validation of emitted certificates.

A certificate is a plain JSON document, checked in one of two ways.

Construction certificates (a `construction-verified` bundle, a
`compositional-pasting` or a `non-colorability` certificate) are
re-derived: the checker reads the row (case, t) and the mode, runs the
verifier of `construction` that wrote the certificate again, and
accepts only a document equal to the given one, field for field and
type for type (`true` is not `1`, `1` is not `1.0`).  A pasting is the
same in both modes, so its row is all the replay needs.  No check
searches: a direct replay rebuilds the graph and checks the Hall
obstruction on each gadget copy and the construction's degeneracy
order.  A bundle's manifest is compared with the manifest arithmetic
first, so a bundle relabelled to another row is rejected without
verifying that row.  Equal documents are accepted by
a type-exact comparison of their `marshal` bytes; otherwise one walk
decides, and names the first differing path.  Nothing in the payload is
trusted beyond the row and the mode, and this module knows no field of
these certificates beyond those.

`branch-set-positive` witnesses and `counting-bound` certificates are
proof-checked: the branch sets must be disjoint, connected and pairwise
adjacent, and the partition must split the vertices into independent
sets whose count caps the clique minor below the target.  They talk
about a graph given from outside, except a `counting-bound` with scope
`gadget-template` given alone: its partition is checked against the
classes of its row's gadget by the verifier's own `_class_bound`, so no
gadget edges are laid out.  Counts and vertex ids must be JSON integers,
not bools, strings or floats.
"""

from __future__ import annotations

import marshal
from typing import NamedTuple

from .construction import (
    _class_bound,
    build_stats,
    gadget_template,
    params_for,
    verify_construction,
    verify_minor_free,
    verify_not_colorable,
)
from .errors import ConstructionRefuted, InvalidArgumentError
from .graphs import Graph
from .minors import BranchSetWitness, check_witness, counting_bound

KINDS = (
    "branch-set-positive",
    "counting-bound",
    "compositional-pasting",
    "non-colorability",
    "construction-verified",
)

# the manifest's mode says whether the graph was materialized
_MANIFEST_MODES = {"full": "direct", "stats-only": "compositional"}


class CheckResult(NamedTuple):
    ok: bool
    reason: str


def _fail(reason: str) -> CheckResult:
    return CheckResult(False, reason)


def _int(doc: dict, key: str) -> int:
    """doc[key], which must be a JSON integer (not a bool, string or
    float)."""
    if type(doc[key]) is not int:
        raise TypeError(f"{key} must be an integer, got {doc[key]!r}")
    return doc[key]


def check_certificate(cert: dict, graph: Graph | None = None) -> CheckResult:
    """Re-validate a certificate document.

    `graph` is required for kinds that talk about an externally supplied
    graph (branch-set-positive, bare counting-bound); construction
    certificates carry their row and rebuild what they need."""
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
        return _check_construction(cert, kind)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed certificate: {exc}")


def _check_branch_sets(cert: dict, graph: Graph | None) -> CheckResult:
    if graph is None:
        return _fail("branch-set certificate needs the graph it talks about")
    witness = BranchSetWitness.from_json_dict(cert)
    if "t" in cert and _int(cert, "t") != len(witness.branch_sets):
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


def _check_counting_bound(cert: dict, graph: Graph | None) -> CheckResult:
    """Proof-check the partition: on `graph` by its edges, or, for a
    gadget-template certificate given without one, on the classes of
    its row's template by the verifier's own `_class_bound`."""
    target = _int(cert, "target")
    if graph is not None:
        n, bound = graph.n, counting_bound(graph, cert["partition"])
    elif cert.get("scope") == "gadget-template":
        part_of = gadget_template(params_for(cert["case"], _int(cert, "t"))).part_of
        n, bound = len(part_of), _class_bound(part_of, cert["partition"])
    else:
        return _fail("counting-bound certificate needs the graph")
    if _int(cert, "n") != n:
        return _fail(f"certificate states n={cert['n']}, graph has {n}")
    if bound is None:
        return _fail("partition is not a partition of V into independent sets")
    if bound >= target:
        return _fail(
            f"counting bound {bound} does not exclude a K_{target} minor"
        )
    return CheckResult(
        True,
        f"counted: no K_{target} minor, every clique minor on {n} "
        f"vertices has order at most {bound}",
    )


def _check_construction(cert: dict, kind: str) -> CheckResult:
    """Run the verifier that wrote `cert` again and require its output."""
    try:
        if kind == "construction-verified":
            man = cert["manifest"]
            params = params_for(man["case"], _int(man, "t"))
            mode = _MANIFEST_MODES.get(man["mode"])
            if mode is None:
                return _fail(f"unknown manifest mode {man['mode']!r}")
            want = build_stats(params).manifest(man["mode"])
            if diff := _difference(want, man, "manifest"):
                return _fail(diff)
            fresh = verify_construction(params, mode)
        elif kind == "non-colorability":
            params = params_for(cert["case"], _int(cert, "t"))
            fresh = verify_not_colorable(params, cert["mode"])
        else:
            params = params_for(cert["case"], _int(cert, "t"))
            fresh = verify_minor_free(params)
    except ConstructionRefuted as exc:
        return _fail(f"re-derivation refutes the claim: {exc}")
    if diff := _difference(fresh, cert):
        return _fail(diff)
    return CheckResult(
        True,
        f"{kind} certificate re-derived for case {params.case}, "
        f"t={params.t}: every field matches",
    )


def _difference(fresh, given, path: str = "") -> str | None:
    """None when `given` equals the re-derived `fresh`, type for type at
    every node, else the first differing path.

    Format 0 of `marshal` writes every value under a code for its exact
    type (bool, int, str, list and dict each have one; subclasses are
    refused) and no back-references, so equal bytes are equal documents,
    keys in the same order; `fresh` holds no floats, whose bytes could
    differ from `==`.  Otherwise, keys in another order, a type `marshal`
    refuses or nesting past its depth, `_first_difference` walks the two
    and also names the path."""
    try:
        if marshal.dumps(fresh, 0) == marshal.dumps(given, 0):
            return None
    except ValueError:
        pass
    return _first_difference(fresh, given, path)


def _show(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return f"a list of {len(value)}"
    return repr(value)


def _first_difference(fresh, given, path: str = "") -> str | None:
    """Name the first place, in `fresh`'s key order, where `given`
    departs from the re-derived `fresh`, or return None when the two are
    equal.  Types count: `true` is not `1`, and `1` is not `1.0`."""
    if (
        type(fresh) is not type(given)
        or (isinstance(fresh, list) and len(fresh) != len(given))
        or (not isinstance(fresh, (dict, list)) and fresh != given)
    ):
        return (
            f"{path or 'certificate'}: certificate has {_show(given)}, "
            f"re-derived {_show(fresh)}"
        )
    if isinstance(fresh, dict):
        for key in [*fresh, *(k for k in given if k not in fresh)]:
            sub = f"{path}.{key}" if path else key
            if key not in given:
                return f"{sub}: missing, re-derived {_show(fresh[key])}"
            if key not in fresh:
                return f"{sub}: not in the re-derived certificate"
            if diff := _first_difference(fresh[key], given[key], sub):
                return diff
    elif isinstance(fresh, list):
        for i, (a, b) in enumerate(zip(fresh, given)):
            if diff := _first_difference(a, b, f"{path}[{i}]"):
                return diff
    return None
