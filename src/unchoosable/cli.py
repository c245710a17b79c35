"""Command-line entry points.

Exit codes are part of the interface: 0 means the positive determination
asked for (verified, colorable, minor found, certificate accepted),
1 a negative but successful determination (refuted, not colorable,
minor-free, certificate rejected), 2 a usage or input error, 3 a
resource limit, a timeout, or any other failure inside the tool; an
internal failure never ends in 1.  With --json, stdout carries one JSON
document; human-readable lines otherwise.

Only argparse, json and the error types are imported with this module;
each command imports the modules it calls when it runs, so a fresh
process loads no more of the package than its command needs (`table`
and a compositional `verify` never load the graph, coloring or file
modules).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConstructionRefuted,
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    SearchTimeout,
)


def _emit(doc: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _parse_ids(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise InvalidArgumentError(f"expected comma-separated ids, got {raw!r}")


def _cmd_build(args) -> int:
    from .construction import build, build_stats, params_for
    from .graphio import write_graph, write_json

    params = params_for(args.case, args.t)
    stats = build_stats(params)
    if args.stats_only:
        man = stats.manifest("stats-only")
        _emit(
            man,
            f"case {params.case} t={params.t}: {man['n_vertices']} vertices, "
            f"{man['n_edges']} edges, {man['n_gadgets']} gadget copies "
            "(not materialized)",
            args.json,
        )
        return 0
    g, la = build(params)
    if args.graph:
        write_graph(g, args.graph)
    if args.lists:
        write_json(args.lists, la.to_json_dict())
    man = stats.manifest("full")
    _emit(
        man,
        f"case {params.case} t={params.t}: built {g.n} vertices, {g.m} edges, "
        f"{man['n_gadgets']} gadget copies",
        args.json,
    )
    return 0


def _cmd_verify(args) -> int:
    from .construction import params_for, verify_construction

    params = params_for(args.case, args.t)
    try:
        cert = verify_construction(params, mode=args.mode)
    except ConstructionRefuted as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return 1
    if args.cert:
        from .graphio import write_json

        write_json(args.cert, cert)
    _emit(
        cert,
        f"verified: case {params.case} t={params.t} is K_{params.p}-minor-free "
        f"and not {params.q}-choosable ({args.mode} mode)",
        args.json,
    )
    return 0


def _cmd_minor(args) -> int:
    from .graphio import read_graph, write_json
    from .minors import has_clique_minor

    g = read_graph(args.input)
    ans = has_clique_minor(g, args.target, timeout=args.timeout)
    if ans.contains:
        doc = {"contains": True, "target": args.target}
        doc.update(ans.witness.to_json_dict())
        if args.witness:
            out = {"kind": "branch-set-positive", **ans.witness.to_json_dict()}
            write_json(args.witness, out)
        _emit(
            doc,
            f"contains a K_{args.target} minor: "
            + " | ".join(
                ",".join(map(str, s)) for s in ans.witness.branch_sets
            ),
            args.json,
        )
        return 0
    _emit(
        {"contains": False, "target": args.target, "nodes": ans.nodes},
        f"no K_{args.target} minor ({ans.nodes} search nodes)",
        args.json,
    )
    return 1


def _cmd_color(args) -> int:
    from .graphio import read_graph, read_json, write_json
    from .listcolor import ListAssignment, l_colorable, precoloring_from_json_dict

    g = read_graph(args.graph)
    la = ListAssignment.from_json_dict(read_json(args.lists))
    pre = None
    if args.precolor:
        pre = precoloring_from_json_dict(read_json(args.precolor))
    res = l_colorable(g, la, precoloring=pre)
    if res.colorable:
        if args.coloring:
            write_json(args.coloring, {"coloring": list(res.coloring)})
        _emit(
            {"colorable": True, "coloring": list(res.coloring)},
            "colorable: " + ",".join(map(str, res.coloring)),
            args.json,
        )
        return 0
    _emit(
        {"colorable": False, "backtracks": res.backtracks},
        f"not colorable from the given lists ({res.backtracks} backtracks)",
        args.json,
    )
    return 1


def _cmd_degeneracy(args) -> int:
    from .graphio import read_graph
    from .graphs import degeneracy

    g = read_graph(args.input)
    res = degeneracy(g)
    _emit(
        {
            "degeneracy": res.degeneracy,
            "elimination_order": list(res.elimination_order),
        },
        f"degeneracy {res.degeneracy}",
        args.json,
    )
    return 0


def _cmd_paste(args) -> int:
    from .graphio import read_graph, write_graph
    from .graphs import paste

    g1 = read_graph(args.g1)
    g2 = read_graph(args.g2)
    s1 = _parse_ids(args.clique1)
    s2 = _parse_ids(args.clique2)
    g = paste(g1, s1, g2, s2)
    write_graph(g, args.out)
    _emit(
        {"n": g.n, "m": g.m, "out": args.out},
        f"pasted: {g.n} vertices, {g.m} edges -> {args.out}",
        args.json,
    )
    return 0


def _cmd_table(args) -> int:
    from .construction import lower_bound_table

    rows = lower_bound_table()
    if args.json:
        print(json.dumps({str(p): row for p, row in rows.items()}, indent=2))
        return 0
    for p, row in sorted(rows.items()):
        print(
            f"K_{p}-minor-free, not {row['q']}-choosable "
            f"(case {row['case']}, t={row['t']}): lower bound {row['lower_bound']}"
        )
    print("lower bounds:", " ".join(str(rows[p]["lower_bound"]) for p in sorted(rows)))
    return 0


def _cmd_check_cert(args) -> int:
    from .certificates import check_certificate
    from .graphio import read_graph, read_json

    cert = read_json(args.cert)
    graph = read_graph(args.graph) if args.graph else None
    res = check_certificate(cert, graph)
    _emit(
        {"ok": res.ok, "reason": res.reason},
        ("accepted: " if res.ok else "rejected: ") + res.reason,
        args.json,
    )
    return 0 if res.ok else 1


def _seconds(raw: str) -> float:
    value = float(raw)  # argparse turns a ValueError into a usage error
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected positive seconds, got {raw!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unchoosable",
        description="Build and verify clique-minor-free graphs that are "
        "not q-choosable.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="JSON on stdout")
        return p

    p = add("build", _cmd_build, help="materialize an instance or its counts")
    p.add_argument("--case", required=True, choices=["a", "b", "c"])
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--stats-only", action="store_true")
    p.add_argument("--graph", help="write the graph here (.g6 or .json)")
    p.add_argument("--lists", help="write the list assignment here (JSON)")

    p = add("verify", _cmd_verify, help="run the full verification pipeline")
    p.add_argument("--case", required=True, choices=["a", "b", "c"])
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--mode", choices=["direct", "compositional"],
                   default="compositional")
    p.add_argument("--cert", help="write the certificate here (JSON)")

    p = add("minor", _cmd_minor, help="exact clique-minor search")
    p.add_argument("--input", required=True, help="graph file (.g6 or .json)")
    p.add_argument("--target", required=True, type=int)
    p.add_argument("--witness", help="write a positive witness here (JSON)")
    p.add_argument("--timeout", type=_seconds, help="search budget in seconds")

    p = add("color", _cmd_color, help="list-coloring decision")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--precolor", help="JSON object vertex -> color")
    p.add_argument("--coloring", help="write a found coloring here (JSON)")

    p = add("degeneracy", _cmd_degeneracy, help="degeneracy and elimination order")
    p.add_argument("--input", required=True)

    p = add("paste", _cmd_paste, help="clique-sum two graphs")
    p.add_argument("--g1", required=True)
    p.add_argument("--clique1", required=True, help="comma-separated ids in g1")
    p.add_argument("--g2", required=True)
    p.add_argument("--clique2", required=True, help="comma-separated ids in g2")
    p.add_argument("--out", required=True)

    add("table", _cmd_table, help="choice-number lower bounds for K_p-minor-free")

    p = add("check-cert", _cmd_check_cert, help="re-validate a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--graph", help="graph file for witness certificates")

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ResourceLimitError, SearchTimeout) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (
        InvalidArgumentError,
        PreconditionError,
        ParseError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "refuted"; a failure of the tool itself must not
        # look like a verdict
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
