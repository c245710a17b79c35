"""Compositional verify plus check must grow polynomially in the scale
t: it reads one gadget of q+2 = O(t) vertices from its classes, never
its edges nor the q^r copies.  Each row is timed with the template
cache cleared, so the gadget is laid out afresh, and the fitted log-log
exponent must stay below 1.2: on 2 vCPU and Python 3.11 it is about 0.5
for every case over t = 8..32, where laying out the gadget's edges made
it about 1.6.

Direct mode's degeneracy order must grow near-linearly in the graph's
size: four times the vertices and edges may take at most eight times
as long, a loose factor for a noisy machine (about 5 measured).  It is
timed in CPU seconds of this process (`time.process_time`), which the
load of other processes does not add to, and the two sizes are timed in
turn, so a slow stretch of the machine falls on both."""

import json
import math
import time

import pytest

from unchoosable import (
    Graph,
    check_certificate,
    degeneracy,
    gadget_template,
    params_for,
    verify_construction,
)

SCALES = (8, 16, 32)
RUNS = 5


def _verify_and_check(case: str, t: int) -> float:
    """The fastest of RUNS compositional verifies plus checks of row
    (case, t), each starting from an empty template cache."""
    params = params_for(case, t)
    best = math.inf
    for _ in range(RUNS):
        gadget_template.cache_clear()
        t0 = time.perf_counter()
        bundle = verify_construction(params, mode="compositional")
        res = check_certificate(json.loads(json.dumps(bundle)))
        best = min(best, time.perf_counter() - t0)
        assert res.ok, (case, t, res.reason)
    return best


def _slope(xs, ys) -> float:
    """Least-squares slope of ys on xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


@pytest.mark.parametrize("case", "abc")
def test_compositional_verify_and_check_is_polynomial_in_t(case):
    times = [_verify_and_check(case, t) for t in SCALES]
    exponent = _slope([math.log(t) for t in SCALES], [math.log(s) for s in times])
    assert exponent < 1.2, (case, dict(zip(SCALES, times)), exponent)


def _chorded_cycle(n: int) -> Graph:
    """The cycle on 0..n-1 with chords i ~ i+2: 4-regular and sparse."""
    return Graph.from_edges(n, [(i, (i + k) % n) for i in range(n) for k in (1, 2)])


def _degeneracy_time(g: Graph) -> float:
    t0 = time.process_time()
    res = degeneracy(g)
    elapsed = time.process_time() - t0
    assert (res.degeneracy, len(res.elimination_order)) == (4, g.n)
    return elapsed


def test_degeneracy_is_near_linear_in_size():
    small, large = _chorded_cycle(20_000), _chorded_cycle(80_000)
    best_small = best_large = math.inf
    for _ in range(7):
        best_small = min(best_small, _degeneracy_time(small))
        best_large = min(best_large, _degeneracy_time(large))
    assert best_large / best_small < 8, (best_small, best_large)
