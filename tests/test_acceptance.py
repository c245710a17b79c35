"""Acceptance gate: the eight headline claims, each timed and reported.

Every test prints one PASS/FAIL line.  Certificates produced along the
way are cached so the integrity criterion re-checks the same documents
the earlier criteria emitted.
"""

import itertools
import json
import math
import random
import time

from unchoosable import (
    Graph,
    ListAssignment,
    build,
    build_stats,
    check_certificate,
    gadget_blocked_detail,
    gadget_template,
    has_clique_minor,
    l_colorable,
    lower_bound_table,
    params_for,
    paste,
    verify_construction,
    verify_not_colorable,
)
from unchoosable.graphs import adjacency_masks
from unchoosable.minors import _grow_search

from conftest import (
    complete_multipartite,
    gadget_lists,
    hadwiger_number,
    oracle_has_minor,
    oracle_list_colorable,
    random_graph,
    random_lists,
)

_certs: dict[str, dict] = {}


def _bundle(name: str, case: str, t: int, mode: str) -> dict:
    if name not in _certs:
        _certs[name] = verify_construction(params_for(case, t), mode=mode)
    return _certs[name]


def _report(n: int, desc: str, fn) -> None:
    t0 = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc} ({time.monotonic() - t0:.3f}s)")


def test_criterion_1_case_b_t1_full_direct():
    def body():
        t0 = time.monotonic()
        pp = params_for("b", 1)
        g, la = build(pp)
        assert g.n == 10 == pp.r + pp.q**pp.r * (pp.q + 2 - pp.r)
        # the whole-graph cross-check of b1: verify only counts the gadget
        assert not has_clique_minor(g, 4).contains
        assert all(len(row) == 2 for row in la.lists)
        assert not l_colorable(g, la).colorable
        assert not oracle_list_colorable(g, la.lists)
        _bundle("b1", "b", 1, "direct")
        assert time.monotonic() - t0 < 1.0

    _report(1, "case b t=1: 10 vertices, no K_4 minor, not 2-choosable", body)


def test_criterion_2_case_a_t1_mixed():
    def body():
        t0 = time.monotonic()
        pp = params_for("a", 1)
        g, la = build(pp)
        assert g.n == 195
        bundle = _bundle("a1", "a", 1, "direct")
        gadget_cert = bundle["children"][0]["children"][0]
        assert gadget_cert["n"] == 6 and gadget_cert["target"] == 5
        direct = l_colorable(g, la)
        assert not direct.colorable
        comp = verify_not_colorable(pp, mode="compositional")
        assert comp["covered"] == 64
        assert all(e["blocked"] for e in comp["classes"])
        assert time.monotonic() - t0 < 60.0

    _report(
        2,
        "case a t=1: 195 vertices, certificate rooted at the octahedron, "
        "direct and compositional verdicts agree",
        body,
    )


def test_criterion_3_case_c_t1_tiny():
    def body():
        t0 = time.monotonic()
        pp = params_for("c", 1)
        g, la = build(pp)
        assert g.n == 3 and g.m == 2
        # the whole-graph cross-check of c1: verify only counts the gadget
        assert not has_clique_minor(g, 3).contains
        assert all(len(row) == 1 for row in la.lists)
        assert not l_colorable(g, la).colorable
        assert time.monotonic() - t0 < 0.010
        _bundle("c1", "c", 1, "direct")

    _report(3, "case c t=1: 3-vertex tree, no K_3 minor, not 1-choosable", body)


def test_criterion_4_t2_compositional_symmetry():
    def body():
        t0 = time.monotonic()
        for case in "abc":
            pp = params_for(case, 2)
            bundle = _bundle(f"{case}2", case, 2, "compositional")
            color = bundle["children"][1]
            proper = math.perm(pp.q, pp.r)
            classes = [
                (tuple(e["representative"]), e["size"], e["status"], e["blocked"])
                for e in color["classes"]
            ]
            assert classes == [
                (tuple(range(1, pp.r + 1)), proper, "blocked", True),
                ((1,) * pp.r, pp.q**pp.r - proper, "improper-root", True),
            ]
            assert color["covered"] == pp.q**pp.r
            stats = build_stats(pp)
            assert stats.n_vertices == pp.r + pp.q**pp.r * (pp.q + 2 - pp.r)
            assert bundle["manifest"]["n_vertices"] == stats.n_vertices
            gadget_cert = bundle["children"][0]["children"][0]
            assert gadget_cert["kind"] == "counting-bound"
            # the exhaustive search agrees, and finds K_{p-1}: see
            # test_construction::test_exhaustive_search_agrees_with_counting_bound
            assert gadget_cert["n"] == pp.q + 2 <= 10
        assert _certs["a2"]["children"][1]["covered"] == 32768
        assert time.monotonic() - t0 < 300.0

    _report(
        4,
        "t=2 all cases: both color classes blocked, counts match, "
        "gadgets certified by counting",
        body,
    )


def test_criterion_5_lower_bound_table():
    def body():
        lower_bound_table()  # warm
        # the fastest of 5 calls, as the bench times a step: one call
        # can be slowed past 1 ms by a busy neighbour on the machine
        elapsed = float("inf")
        for _ in range(5):
            t0 = time.monotonic()
            rows = lower_bound_table()
            elapsed = min(elapsed, time.monotonic() - t0)
        assert [rows[p]["lower_bound"] for p in range(3, 12)] == [
            2, 3, 5, 6, 7, 9, 10, 11, 13,
        ]
        for p, row in rows.items():
            pp = params_for(row["case"], row["t"])
            assert pp.p == p and row["lower_bound"] == pp.q + 1
        assert elapsed < 0.001

    _report(5, "lower-bound row 2 3 5 6 7 9 10 11 13 with witnesses", body)


def test_criterion_6_degeneracy():
    def body():
        from unchoosable import degeneracy

        values = {}
        for case in "abc":
            pp = params_for(case, 1)
            g, _ = build(pp)
            values[case] = degeneracy(g).degeneracy
            assert values[case] <= pp.q
        assert values["a"] == params_for("a", 1).q == 4
        assert values["b"] == params_for("b", 1).q == 2

    _report(6, "degeneracy at most q everywhere, equal to q in cases a and b", body)


def test_criterion_7i_minor_search_vs_oracle():
    def body():
        rng = random.Random(20260819)
        for _ in range(500):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
            t = rng.randint(2, min(n, 5))
            want = oracle_has_minor(g, t)
            assert has_clique_minor(g, t).contains == want
            # the search alone, on graphs the reductions would shrink
            assert (_grow_search(adjacency_masks(g), g.n, t, None)[0] is not None) == want

    _report(7, "(i) 500 random minor instances agree with the partition oracle", body)


def test_criterion_7ii_solver_vs_exhaustive():
    def body():
        rng = random.Random(8191)
        for _ in range(500):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            palette = rng.randint(1, 4)
            lists = random_lists(rng, n, palette, min(3, palette))
            la = ListAssignment.from_lists(palette, lists)
            want = oracle_list_colorable(g, lists)
            assert l_colorable(g, la).colorable == want

    _report(7, "(ii) 500 random coloring instances agree with the list product", body)


def test_criterion_7iii_pasting_preserves_minor_freeness():
    def body():
        rng = random.Random(6174)
        done = 0
        while done < 500:
            g1 = random_graph(rng, rng.randint(3, 8), 0.45)
            g2 = random_graph(rng, rng.randint(3, 8), 0.45)
            k = rng.randint(1, 3)
            c1 = _random_clique(rng, g1, k)
            c2 = _random_clique(rng, g2, k)
            if c1 is None or c2 is None:
                continue
            t = rng.randint(3, 6)
            if has_clique_minor(g1, t).contains or has_clique_minor(g2, t).contains:
                continue
            assert not has_clique_minor(paste(g1, c1, g2, c2), t).contains
            done += 1

    _report(7, "(iii) 500 random clique-sums stay minor-free", body)


def _random_clique(rng, g, k):
    edges = set(g.edges)
    cands = [
        c
        for c in itertools.combinations(range(g.n), k)
        if edges.issuperset(itertools.combinations(c, 2))
    ]
    return rng.choice(cands) if cands else None


def test_criterion_7iv_minus_matching_exhaustive():
    def body():
        for r in range(1, 5):
            bound = (3 * r) // 2
            assert hadwiger_number(complete_multipartite([2] * r)) == bound
            assert hadwiger_number(complete_multipartite([2] * r + [1])) == bound + 1

    _report(7, "(iv) doubled-class gadget hadwiger numbers for r in [1,4]", body)


def test_criterion_7v_symmetry_soundness():
    def body():
        rng = random.Random(2357)
        for _ in range(500):
            pp = params_for(rng.choice("abc"), rng.choice([1, 2]))
            rep = tuple(range(1, pp.r + 1))
            member = tuple(rng.sample(range(1, pp.q + 1), pp.r))
            assert gadget_blocked_detail(pp, rep)["status"] == "blocked"
            assert gadget_blocked_detail(pp, member)["status"] == "blocked"
            tpl = gadget_template(pp)
            gadget = complete_multipartite([2] * pp.r + [1] * (len(tpl.own) - pp.r))
            for vec in (rep, member):
                pin = {v: ci for (v, _), ci in zip(tpl.pairs, vec)}
                la = gadget_lists(pp, vec)
                assert not l_colorable(gadget, la, precoloring=pin).colorable

    _report(
        7,
        "(v) 500 repetition-free vectors blocked, like (1,...,r), and the "
        "solver agrees",
        body,
    )


def test_criterion_8_certificate_integrity():
    def body():
        for name, case, t, mode in [
            ("b1", "b", 1, "direct"),
            ("a1", "a", 1, "direct"),
            ("c1", "c", 1, "direct"),
            ("a2", "a", 2, "compositional"),
            ("b2", "b", 2, "compositional"),
            ("c2", "c", 2, "compositional"),
        ]:
            cert = json.loads(json.dumps(_bundle(name, case, t, mode)))
            res = check_certificate(cert)
            assert res.ok, (name, res.reason)

        # mutation 1: flip one branch-set vertex in a positive witness
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
        g = Graph.from_edges(5, edges)
        ans = has_clique_minor(g, 4)
        doc = json.loads(json.dumps(ans.witness.to_json_dict()))
        assert check_certificate({"kind": "branch-set-positive", **doc}, g).ok
        sets = doc["branch_sets"]
        flat = {v for s in sets for v in s}
        spare = next(v for v in range(g.n) if v not in flat)
        sets[0][0] = spare
        assert not check_certificate({"kind": "branch-set-positive", **doc}, g).ok

        # mutation 2: drop one color class from a compositional cert
        cert = json.loads(json.dumps(_certs["a2"]))
        color = cert["children"][1]
        gone = color["classes"].pop()
        color["covered"] -= gone["size"]
        assert not check_certificate(cert).ok

    _report(8, "certificates re-check from JSON; tampering is rejected", body)
